"""Fast self-test of the benchmark harness at tiny degrees.

    python3 perfbench/selftest.py

Runs extend to 4, verify at 4 and dims to 5 through the benchmark's own
code, untraced and traced, and checks that the golden checks pass, that
a deliberately wrong expectation is counted as a failure, that the
tamper generator is deterministic and its output is caught, that the
span arithmetic adds up, and that the metrics printed match the names
and units declared in BENCHMARK.json.  Prints one line per check and
exits 1 if any check fails.  Takes a few seconds.
"""

import json
import sys

import run
import tracer

EXTEND4_SHA256 = "048e0476376b3501bf133cb0758accdb7488c3596b3e3f38bfe6d5046222d9fa"

TINY = {
    "extend": (run.Workload("extend", 4), EXTEND4_SHA256, "0" * 64),
    "verify": (
        run.Workload("verify", 4),
        run.expected_pass_report(4),
        run.expected_pass_report(4).replace("r_2 1/48", "r_2 1/24"),
    ),
    "dims": (
        run.Workload("dims", 5),
        run.expected_dims(5),
        run.expected_dims(5, krv=(1, 1, 1, 0, 1)),
    ),
}

failures = []


def check(label, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(label)


def declared_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    end_to_end, per_layer = declared_metrics()
    for kind, (workload, golden, wrong) in TINY.items():
        workdir = run.WORK / f"selftest-{kind}"
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            result, info = run.run_workload(workload, 7, 0, trace, golden, workdir)
            check(f"{kind} trace={trace} passes its golden checks",
                  result["correct"] and info["fail_ratio"] == 0, "; ".join(info["failures"]))
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(f"{kind} trace={trace} prints the declared metrics", printed == declared,
                  f"extra {sorted(set(printed) - set(declared))}, "
                  f"missing {sorted(set(declared) - set(printed))}")
            if trace:
                ratio = result["metrics"]["trace.self_sum_ratio"]["value"]
                check(f"{kind} self_sum_ratio within 2% of 1", abs(ratio - 1) <= 0.02, str(ratio))
        result, info = run.run_workload(workload, 7, 0, 0, wrong, workdir)
        check(f"{kind} wrong expectation gives fail_ratio > 0",
              info["fail_ratio"] > 0 and not result["correct"], json.dumps(info))

    text = run.SOL10.read_text(encoding="utf-8")
    first, second = run.tamper(text, 11, 10), run.tamper(text, 11, 10)
    check("same seed gives the same tampered file", first == second)
    check("tampered file differs from the canonical one", first[0] != text)
    seeds = {json.dumps(run.tamper(text, s, 10)[1]) for s in range(20)}
    check("different seeds tamper different coefficients", len(seeds) > 1)

    spans = [["a", 0, 10, -1], ["b", 1, 9, 0], ["a", 2, 8, 1], ["b", 3, 4, 2]]
    times = tracer.span_times(spans)
    check("span_times: self and non-recursive total",
          times == {"a": [2, 7, 10], "b": [2, 3, 8]}, str(times))

    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
