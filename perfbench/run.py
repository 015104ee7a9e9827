"""End-to-end benchmark of the kvtower command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
``src/`` and nothing is installed.  Every job is one fresh interpreter
running the real CLI, so each job pays the cold start and refills the
global caches, as a CLI user does.  Jobs run one at a time.

With ``--trace 0`` the workload's jobs repeat round-robin for about
``--seconds`` (at least one of each).  The benchmark, its jobs and the
fixed reference work ``perfbench/reference.py`` are pinned to one CPU and
the reference runs throughout, so it shares every time slice with the job
being timed.  The end-to-end times are CPU times divided by the reference
chunk's CPU time over the same interval, in units of ``CHUNK_S``: the
machine's speed drifts by up to 2x within minutes, and this ratio does
not.  The end-to-end metrics are medians over the jobs (over the set-ups
for ``setup_s``).  With ``--trace 1`` the job set runs once untraced and
once under ``perfbench/tracer.py``, without the reference, and the
per-layer metrics come from the traced spans.  Every job's exit code and
output are checked against the golden values below; a mismatch is a
failed operation, and any failure makes the benchmark exit 1 after
printing its result.

The last line of standard output is the JSON result; the line before it
records the seed and the tampered coefficient.  Workload reasons and the
layer table are in ``perfbench/NOTES.md``.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SOL10 = BENCH / "data" / "sol10.json"
REFERENCE = BENCH / "reference.py"
# CPU seconds that one reference chunk stands for: a normalised time is
# (CPU time / chunk CPU time) * CHUNK_S, i.e. CPU seconds on a machine that
# runs the chunk in CHUNK_S.  Close to the chunk's time on the 2-CPU
# machine the benchmark was tuned on (NOTES.md); fixed, so values from
# different machines and days compare.
CHUNK_S = 0.007
# Fewest reference chunks that must fall inside a timed interval.
MIN_CHUNKS = 5

# Golden values.  The degree-10 document is the canonical output of
# `kvtower extend --in <identity seed> --to-degree 10`.
SOL10_SHA256 = "58d22df43439b38cede1b70f1c37c99991f441dca191993853c08645090939a6"
EXTEND_SHA256 = {8: "8e6e180515daac74867174a35b5ff212a2b9c3bae85f97653239627464cf670f"}
# Lyndon counts (dimension of the free Lie algebra on x, y) and the krv
# dimensions predicted by krv2 = grt1 + K.t, degrees 1..10.
DIMS_LIE = (2, 1, 2, 3, 6, 9, 18, 30, 56, 99)
DIMS_KRV = (1, 0, 1, 0, 1, 0, 1, 1, 1, 1)

IDENTITY_SEED = json.dumps({"format_version": "1", "cap": 1, "f1": [], "f2": [],
                            "duflo": [], "variant": "SolKV"}, indent=2) + "\n"

TAMPER_FACTORS = (Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2))
SETUP_REPEATS = 21
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    kind: str  # "extend", "verify" or "dims"
    degree: int


# Degrees are low enough that one run holds 17-28 jobs; NOTES.md has the
# measured job costs and run-to-run spreads that set them.
WORKLOADS = {
    "extend_d8": Workload("extend", 8),
    "verify_d9": Workload("verify", 9),
    "dims_d9": Workload("dims", 9),
}


@dataclass
class Job:
    label: str
    argv: list
    check: Callable[[int, str], Optional[str]]  # (exit code, stdout) -> error
    out: Optional[Path] = None  # document the job writes
    reads: Optional[Path] = None  # document the job reads


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or data)."""


def bernoulli(m):
    """Bernoulli numbers B_0..B_m with B_1 = -1/2."""
    b = [Fraction(1)]
    for n in range(1, m + 1):
        b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    return b


def expected_pass_report(degree):
    """The SolKV report of any solution: the even Bernoulli Duflo series
    r_2k = B_2k / (2 * 2k * (2k)!), then PASS."""
    b = bernoulli(degree)
    lines = []
    fact = 1
    for k in range(1, degree + 1):
        fact *= k
        if k >= 2 and k % 2 == 0:
            lines.append(f"r_{k} {b[k] / (2 * k * fact)}")
    return "\n".join(lines + ["PASS"]) + "\n"


def expected_dims(degree, lie=DIMS_LIE, krv=DIMS_KRV):
    rows = [f"{n} {lie[n - 1]} {krv[n - 1]}" for n in range(1, degree + 1)]
    return "\n".join(["n lie krv"] + rows) + "\n"


def tamper(text, seed, degree):
    """Change one exponent coefficient of a solution document.

    The seed picks the slot (f1 or f2), a word of the slot's highest
    degree below ``degree`` and a factor other than 1.  The first
    equation's defect then starts exactly one degree above the word, so
    ``verify`` at ``degree`` must report it.  Keeping the word near the top
    degree and scaling, rather than shifting, keeps the error from
    spreading through many degrees and the coefficient's size unchanged,
    so the check costs about the same whichever seed is used.
    """
    rng = random.Random(f"perfbench-tamper:{seed}")
    doc = json.loads(text)
    slot = rng.choice([s for s in ("f1", "f2") if any(len(e["word"]) < degree for e in doc[s])])
    top = max(len(e["word"]) for e in doc[slot] if len(e["word"]) < degree)
    entry = rng.choice([e for e in doc[slot] if len(e["word"]) == top])
    old = Fraction(int(entry["num"]), int(entry["den"]))
    new = old * rng.choice(TAMPER_FACTORS)
    entry["num"], entry["den"] = str(new.numerator), str(new.denominator)
    info = {"slot": slot, "word": entry["word"], "old": str(old), "new": str(new)}
    return json.dumps(doc, indent=2) + "\n", info


def _check_equal(expected, want_code=0):
    def check(code, out):
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        if out != expected:
            return "output differs from the golden output"
        return None
    return check


def _check_tampered(word):
    def check(code, out):
        lines = out.splitlines()
        if code != 1 or not lines or lines[-1] != "FAIL":
            return f"exit code {code}, expected 1 and FAIL"
        defects = [ln.split()[1] for ln in lines if ln.startswith("defect ")]
        if not defects:
            return "no defect line for a tampered first-equation coefficient"
        if min(len(w) for w in defects) != len(word) + 1:
            return f"defect does not start at degree {len(word) + 1}"
        return None
    return check


def _check_document(path, sha256):
    def check(code, out):
        if code != 0:
            return f"exit code {code}, expected 0"
        if not path.exists() or hashlib.sha256(path.read_bytes()).hexdigest() != sha256:
            return "output document differs from the golden document"
        return None
    return check


def prepare(workload, seed, workdir, golden=None):
    """Write the workload's inputs into ``workdir``; return (jobs, info).

    ``golden`` overrides the expected value of the workload's kind (the
    extend sha256 or the dims tables); the self-test uses it.
    """
    n = workload.degree
    if workload.kind == "extend":
        seed_doc = workdir / "seed.json"
        seed_doc.write_text(IDENTITY_SEED, encoding="utf-8")
        out = workdir / f"extend{n}.json"
        sha = golden if golden is not None else EXTEND_SHA256[n]
        argv = ["extend", "--in", str(seed_doc), "--to-degree", str(n), "--out", str(out)]
        return [Job("extend", argv, _check_document(out, sha), out=out)], {}
    if workload.kind == "verify":
        text = SOL10.read_text(encoding="utf-8")
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != SOL10_SHA256:
            raise BenchError(f"{SOL10} is not the canonical degree-10 document")
        good, bad = workdir / "solution.json", workdir / "tampered.json"
        good.write_text(text, encoding="utf-8")
        bad_text, info = tamper(text, seed, n)
        bad.write_text(bad_text, encoding="utf-8")
        base = ["verify", "--degree", str(n), "--variant", "SolKV", "--in"]
        report = golden if golden is not None else expected_pass_report(n)
        return [
            Job("verify-pass", base + [str(good)], _check_equal(report), reads=good),
            Job("verify-tampered", base + [str(bad)], _check_tampered(info["word"]), reads=bad),
        ], {"tamper": info}
    if workload.kind == "dims":
        table = golden if golden is not None else expected_dims(n)
        return [Job("dims", ["dims", "--max-degree", str(n)], _check_equal(table))], {}
    raise ValueError(workload.kind)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHASHSEED")}
    env["PYTHONPATH"] = str(SRC)
    # Fixed string hashing keeps set and dict iteration order, and with
    # it the timing, the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


CLI_MAIN = "import sys; from kvtower.cli import main; sys.exit(main())"


@dataclass
class Timing:
    code: Optional[int]  # None when the process was killed at its timeout
    start: float  # time.perf_counter() before the process started
    end: float  # and after it was reaped
    cpu_s: float
    maxrss_kb: int
    stdout: bytes = b""

    @property
    def wall_s(self):
        return self.end - self.start


def spawn(cmd, timeout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL):
    """Run ``cmd`` to its end and time it.  The wait is ``os.wait4``: it
    blocks without polling (``subprocess`` polls in steps of up to 50 ms
    when given a timeout) and returns the child's own CPU time and peak
    RSS.  A timer kills the child after ``timeout`` seconds."""
    timed_out = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=child_env())

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(max(1.0, timeout), kill)
    timer.start()
    try:
        output = proc.stdout.read() if stdout == subprocess.PIPE else b""
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    code = None if timed_out.is_set() else proc.returncode
    return Timing(code, t0, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, output)


def cold_import():
    t = spawn([sys.executable, "-c", "import kvtower"], 60, stderr=subprocess.STDOUT)
    if t.code != 0:
        raise BenchError("cannot import kvtower from src/: "
                         + t.stdout.decode(errors="replace").strip()[-400:])
    return t


class Reference:
    """``reference.py`` running beside this process, pinned with it (and
    so with every child started after it) to one CPU."""

    def __init__(self, log):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.log = log
        self.proc = subprocess.Popen([sys.executable, str(REFERENCE), str(log)],
                                     env=child_env())
        # Time nothing until the reference has finished its first chunk.
        deadline = time.monotonic() + 30
        while not self.chunks():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise BenchError(f"{REFERENCE} did not start")
            time.sleep(0.01)

    def close(self):
        self.proc.terminate()
        self.proc.wait()

    def chunks(self):
        """(start, end, CPU seconds) of every chunk logged so far; a line
        still being written has no newline yet and is left out."""
        if not self.log.exists():
            return []
        lines = self.log.read_text(encoding="utf-8").split("\n")[:-1]
        return [tuple(map(float, line.split())) for line in lines]

    def normalised(self, timings):
        """Each timing's CPU seconds over the mean CPU seconds of the
        reference chunks that ran wholly inside it, times CHUNK_S."""
        if self.proc.poll() is not None:
            raise BenchError(f"{REFERENCE} stopped with exit code {self.proc.returncode}")
        chunks = self.chunks()
        values = []
        for t in timings:
            inside = [cpu for start, end, cpu in chunks if start >= t.start and end <= t.end]
            if len(inside) < MIN_CHUNKS:
                raise BenchError(f"only {len(inside)} reference chunks ran beside a "
                                 f"{t.wall_s:.3f} s interval")
            values.append(t.cpu_s / statistics.mean(inside) * CHUNK_S)
        return values


def setup(workload, seed, workdir, golden=None):
    """Produce the inputs and cold-import the library, SETUP_REPEATS times;
    returns the jobs, the info record and one Timing per set-up (the
    input files are written by this process, so its CPU time counts)."""
    timings = []
    for _ in range(SETUP_REPEATS):
        t0, cpu0 = time.perf_counter(), time.process_time()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        jobs, info = prepare(workload, seed, workdir, golden)
        prep_cpu = time.process_time() - cpu0
        imported = cold_import()
        imported.start, imported.cpu_s = t0, imported.cpu_s + prep_cpu
        timings.append(imported)
    return jobs, info, timings


@dataclass
class JobResult(Timing):
    label: str = ""
    error: Optional[str] = None


def run_job(job, workdir, deadline, spans_out=None):
    """Run one CLI job in a fresh interpreter and check its output."""
    if spans_out is None:
        cmd = [sys.executable, "-c", CLI_MAIN] + job.argv
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_out)] + job.argv
    if job.out is not None and job.out.exists():
        job.out.unlink()
    stdout_path = workdir / f"{job.label}.stdout"
    with open(stdout_path, "wb") as out, open(workdir / f"{job.label}.stderr", "wb") as err:
        t = spawn(cmd, deadline - time.monotonic(), stdout=out, stderr=err)
    if t.code is None:
        error = "timed out"
    else:
        error = job.check(t.code, stdout_path.read_text(encoding="utf-8", errors="replace"))
    return JobResult(t.code, t.start, t.end, t.cpu_s, t.maxrss_kb, label=job.label, error=error)


def run_jobset(jobs, workdir, deadline, traced=False):
    results = []
    for i, job in enumerate(jobs):
        spans_out = workdir / f"spans-{i}.json" if traced else None
        results.append(run_job(job, workdir, deadline, spans_out))
    return results


def max_coeff_bits(jobs):
    """Largest numerator or denominator bit length in the documents the
    jobs write (extend) or read (verify); 0 when there are none."""
    bits = 0
    for job in jobs:
        path = job.out or job.reads
        if path is None or not path.exists():
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        for entry in doc["f1"] + doc["f2"] + doc["duflo"]:
            bits = max(bits, abs(int(entry["num"])).bit_length(), int(entry["den"]).bit_length())
    return bits


def layer_metrics(jobs, workdir):
    """Per-layer metrics from the span files of one traced job set."""
    totals, systems, caches = {}, [], {}
    root_ns = 0
    for i in range(len(jobs)):
        data = json.loads((workdir / f"spans-{i}.json").read_text(encoding="utf-8"))
        for name, times in tracer.span_times(data["spans"]).items():
            entry = totals.setdefault(name, [0, 0, 0])
            for k, value in enumerate(times):
                entry[k] += value
        root_ns += sum(end - start for name, start, end, _ in data["spans"]
                       if name == tracer.ROOT_SPAN)
        systems += data["systems"]
        for key, size in data["caches"].items():
            caches[key] = size if size is None else max(size, caches.get(key) or 0)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    module_ns = dict.fromkeys(tracer.MODULES, 0)
    for name, (_, self_ns, _) in totals.items():
        module_ns[name.split(".")[0]] += self_ns
    for module, ns in module_ns.items():
        put(f"{module}.self_s", ns / 1e9, "s")
    for module, path in tracer.TRACED:
        name = tracer.metric_name(module, path)
        calls, self_ns, total_ns = totals.get(name, (0, 0, 0))
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", self_ns / 1e9, "s")
        put(f"{name}.total_s", total_ns / 1e9, "s")
    put("linalg.systems", len(systems), "count")
    put("linalg.max_rows", max((s[0] for s in systems), default=0), "count")
    put("linalg.max_cols", max((s[1] for s in systems), default=0), "count")
    put("linalg.nnz_total", sum(s[2] for s in systems), "count")
    put("linalg.kernel_dim_total", sum(s[3] for s in systems), "count")
    put("documents.max_coeff_bits", max_coeff_bits(jobs), "bits")
    for key in tracer.CACHES:
        # -1 marks a cache global that no kvtower module defines.
        size = caches.get(key)
        put(f"cache.{key}", -1 if size is None else size, "count")
    put("trace.root_s", root_ns / 1e9, "s")
    put("trace.self_sum_ratio", sum(module_ns.values()) / root_ns if root_ns else 0.0, "ratio")
    return metrics


def run_workload(workload, seed, seconds, trace, golden=None, workdir=None):
    """Run one workload; returns the result dict and the info record."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    workdir = workdir or WORK / f"{workload.kind}{workload.degree}"
    results = []
    metrics = {}
    if not trace:
        workdir.mkdir(parents=True, exist_ok=True)
        reference = Reference(workdir.parent / f"{workdir.name}-reference.log")
        try:
            jobs, info, setups = setup(workload, seed, workdir, golden)
            # The job set runs in whole rounds, so every job runs equally
            # often.  After the first round, a round starts only if it is
            # predicted (by the median round so far) to end within
            # --seconds, so a run lasts about --seconds whatever the job size.
            t0 = time.monotonic()
            rounds = []
            while not rounds or (
                not any(r.error for r in results)
                and time.monotonic() - t0 + statistics.median(rounds) <= seconds
            ):
                round_start = time.monotonic()
                results += run_jobset(jobs, workdir, deadline)
                rounds.append(time.monotonic() - round_start)
            setup_s = statistics.median(reference.normalised(setups))
            job_s = reference.normalised(results)
        finally:
            reference.close()
        metrics = {
            "norm_cpu_s": {"value": statistics.median(job_s), "unit": "s"},
            "peak_rss_mb": {"value": max(r.maxrss_kb for r in results) / 1024, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        info["job_norm_cpu_s"] = [round(v, 4) for v in job_s]
        info["job_cpu_s"] = [round(r.cpu_s, 3) for r in results]
    else:
        jobs, info, _ = setup(workload, seed, workdir, golden)
        plain = run_jobset(jobs, workdir, deadline)
        traced = run_jobset(jobs, workdir, deadline, traced=True)
        results = plain + traced
        if not any(r.error for r in results):
            metrics = layer_metrics(jobs, workdir)
            overhead = sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain)
            metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    failed = [f"{r.label}: {r.error}" for r in results if r.error]
    info["failures"] = failed
    info["fail_ratio"] = len(failed) / len(results)
    result = {"correct": not failed, "attempted": len(results), "failed": len(failed),
              "metrics": metrics}
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kvtower" / "__init__.py").is_file():
        print(f"error: no kvtower sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, info = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in info["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
