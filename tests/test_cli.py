import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kvtower.cli
import kvtower.kv
import kvtower.tangential
from kvtower.cli import emit_report, run_command
from kvtower.documents import SolutionDocument, emit_document
from kvtower.kv import check_sol_kv, extend_solkv
from kvtower.tangential import TAutElt


GOLDEN = Path(__file__).parent / "golden"
# The canonical degree-10 solution that the benchmark also reads.
SOL10 = Path(__file__).parent.parent / "perfbench" / "data" / "sol10.json"


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _golden_extend_d8(tmp_path, capsys):
    seed = tmp_path / "seed.json"
    out = tmp_path / "sol8.json"
    run(capsys, "seed", "--out", str(seed))
    code, _, _ = run(capsys, "extend", "--in", str(seed), "--to-degree", "8",
                     "--out", str(out))
    return code, out.read_bytes()


def _golden_verify_d8_fail(tmp_path, capsys):
    # The degree-8 golden document with its first degree-7 f1 coefficient
    # doubled.
    doc = json.loads((GOLDEN / "extend_d8.json").read_text())
    item = next(i for i in doc["f1"] if len(i["word"]) == 7)
    item["num"] = str(2 * int(item["num"]))
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--in", str(path), "--degree", "8",
                       "--variant", "SolKV")
    return code, out.encode()


def _golden_stdout(*argv):
    def job(tmp_path, capsys):
        code, out, _ = run(capsys, *argv)
        return code, out.encode()
    return job


GOLDEN_CASES = [
    ("extend_d8.json", _golden_extend_d8, 0),
    ("dims_d9.txt", _golden_stdout("dims", "--max-degree", "9"), 0),
    ("bch_d7.txt", _golden_stdout("bch", "--degree", "7"), 0),
    ("bch_d10.txt", _golden_stdout("bch", "--degree", "10"), 0),
    ("verify_d8_fail.txt", _golden_verify_d8_fail, 1),
    # A SolKV solution is not in the left symmetry group: the KV check runs
    # the BCH Duflo target and fails.
    ("verify_kv_d10.txt",
     _golden_stdout("verify", "--in", str(SOL10), "--degree", "10", "--variant", "KV"), 1),
    # The Duflo series of a solution is the even Bernoulli series
    # B_2k / (2 * 2k * (2k)!).
    ("verify_sol_d10.txt",
     _golden_stdout("verify", "--in", str(SOL10), "--degree", "10", "--variant", "SolKV"), 0),
    # A SolKV solution is not in the graded symmetry group either; the KRV
    # check runs the x + y Duflo target on both sides.
    ("verify_krv_d10.txt",
     _golden_stdout("verify", "--in", str(SOL10), "--degree", "10", "--variant", "KRV"), 1),
    # gr-test prints the transported rank and the graded dimension; it is
    # the one CLI path through taut_exp, taut_inverse and taut_compose.
    ("gr_d7.txt",
     _golden_stdout("gr-test", "--in", str(GOLDEN / "extend_d8.json"), "--degree", "7"), 0),
    ("gr_d9.txt", _golden_stdout("gr-test", "--in", str(SOL10), "--degree", "9"), 0),
]


@pytest.mark.parametrize(
    "name, job, expected_code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES]
)
def test_golden_outputs(name, job, expected_code, tmp_path, capsys):
    code, data = job(tmp_path, capsys)
    assert code == expected_code
    assert data == (GOLDEN / name).read_bytes()


def test_seed_document(tmp_path, capsys):
    path = tmp_path / "seed.json"
    code, out, err = run(capsys, "seed", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data == {
        "format_version": "1",
        "cap": 1,
        "f1": [],
        "f2": [],
        "duflo": [],
        "variant": "SolKV",
    }


def test_bch_degree_two(capsys):
    code, out, err = run(capsys, "bch", "--degree", "2")
    assert code == 0
    assert out.splitlines() == ["x 1", "y 1", "xy 1/2"]


def test_dims_table(capsys):
    code, out, err = run(capsys, "dims", "--max-degree", "4")
    assert code == 0
    assert out.splitlines() == ["n lie krv", "1 2 1", "2 1 0", "3 2 1", "4 3 0"]


def test_seed_extend_verify_roundtrip(tmp_path, capsys):
    seed = tmp_path / "seed.json"
    sol = tmp_path / "sol4.json"
    assert run(capsys, "seed", "--out", str(seed))[0] == 0
    assert (
        run(capsys, "extend", "--in", str(seed), "--to-degree", "4", "--out", str(sol))[0]
        == 0
    )
    code, out, err = run(capsys, "verify", "--in", str(sol), "--degree", "4",
                         "--variant", "SolKV")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_verify_seed_at_degree_two_fails(tmp_path, capsys):
    seed = tmp_path / "seed.json"
    run(capsys, "seed", "--out", str(seed))
    code, out, err = run(capsys, "verify", "--in", str(seed), "--degree", "2",
                         "--variant", "SolKV")
    assert code == 1
    assert "defect xy 1/2" in out
    assert out.strip().endswith("FAIL")


def test_tampered_solution_fails_verification(tmp_path, capsys):
    seed = tmp_path / "seed.json"
    sol = tmp_path / "sol.json"
    run(capsys, "seed", "--out", str(seed))
    run(capsys, "extend", "--in", str(seed), "--to-degree", "3", "--out", str(sol))
    data = json.loads(sol.read_text())
    data["f1"][0]["num"] = "7"
    sol.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--in", str(sol), "--degree", "3",
                         "--variant", "SolKV")
    assert code == 1
    assert "defect" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run(capsys, "verify", "--in", str(bad), "--degree", "2",
                         "--variant", "SolKV")
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "no-such-command")[0] == 2


def test_degree_guard(capsys):
    code, out, err = run(capsys, "bch", "--degree", "13")
    assert code == 2
    assert "allow-large" in err


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 200000],
    ids=["non-utf8", "deeply-nested"],
)
def test_unreadable_document_exit_code(content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "verify", "--in", str(path), "--degree", "2",
                         "--variant", "SolKV")
    assert code == 2
    assert err.startswith("error: ")


def _document(**changes):
    """The identity seed as a JSON-ready dict, with ``changes`` applied."""
    doc = {"format_version": "1", "cap": 1, "f1": [], "f2": [], "duflo": [],
           "variant": "SolKV"}
    doc.update(changes)
    return doc


def _entry(word):
    return {"word": word, "num": "1", "den": "1"}


# The longest decimal string ``int`` converts; 0 where there is no limit.
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_VERIFY_DOC = ["verify", "--in", "DOC", "--degree", "1", "--variant", "SolKV"]
EXIT_2_CASES = [
    pytest.param(["dims", "--max-degree", "0"], None, "degree must be >= 1",
                 id="max-degree-0"),
    pytest.param(_VERIFY_DOC, None, "cannot read", id="missing-file"),
    pytest.param(["extend", "--in", str(GOLDEN / "extend_d8.json"), "--to-degree", "4"],
                 None, "below the document cap", id="to-degree-below-cap"),
    pytest.param(_VERIFY_DOC, [], "top level must be an object", id="top-level-array"),
    pytest.param(_VERIFY_DOC, _document(format_version="2"), "unsupported format_version",
                 id="format-version-2"),
    pytest.param(_VERIFY_DOC, _document(cap=0), "cap must be", id="cap-0"),
    pytest.param(_VERIFY_DOC, _document(cap=True), "cap must be", id="cap-true"),
    pytest.param(_VERIFY_DOC, _document(cap="3"), "cap must be", id="cap-string"),
    pytest.param(_VERIFY_DOC, _document(f1={}), "f1: expected a list", id="f1-not-a-list"),
    pytest.param(_VERIFY_DOC, _document(f1=[{"word": "xy", "num": "1", "den": "1"}]),
                 "word degree exceeds cap", id="word-above-cap"),
    # A 200 KB word is named by its first 40 characters and its length.
    pytest.param(_VERIFY_DOC, _document(cap=200000, f1=[_entry("y" + "x" * 199999)]),
                 "f1[0]: not a Lyndon word: 'yxxxxx", id="long-word-not-lyndon"),
    pytest.param(_VERIFY_DOC, _document(cap=200000, f1=[_entry("x" * 199999 + "z")]),
                 "f1[0]: invalid word 'xxxxxx", id="long-word-invalid"),
    pytest.param(_VERIFY_DOC, _document(cap=200000, f2=[_entry("x" * 199999 + "y")] * 2),
                 "(200000 characters)", id="long-word-duplicate"),
    # A duflo index may have as many digits as the cap; a duplicate one is
    # shown as a long word is.
    pytest.param(_VERIFY_DOC, _document(cap=10**400, duflo=[{"k": 10**399 + 7, "num": "1",
                                                             "den": "1"}] * 2),
                 "duflo[1]: duplicate k '1000", id="long-index-duplicate"),
    pytest.param(
        _VERIFY_DOC,
        _document(f1=[{"word": "y", "num": "1" * (_INT_DIGITS + 1), "den": "1"}]),
        "f1[0].num: not an integer",
        id="numerator-above-int-digit-limit",
        marks=pytest.mark.skipif(_INT_DIGITS == 0, reason="no int digit limit"),
    ),
    # json.loads raises a plain ValueError for an integer literal over the
    # limit; json.dumps cannot write one, so these documents are text.
    pytest.param(
        _VERIFY_DOC,
        json.dumps(_document(cap=1)).replace('"cap": 1', '"cap": ' + "1" * (_INT_DIGITS + 1)),
        "malformed JSON",
        id="cap-literal-above-int-digit-limit",
        marks=pytest.mark.skipif(_INT_DIGITS == 0, reason="no int digit limit"),
    ),
    pytest.param(
        _VERIFY_DOC,
        json.dumps(_document(duflo=[{"k": 2, "num": "1", "den": "1"}]))
        .replace('"k": 2', '"k": ' + "2" * (_INT_DIGITS + 1)),
        "malformed JSON",
        id="duflo-k-literal-above-int-digit-limit",
        marks=pytest.mark.skipif(_INT_DIGITS == 0, reason="no int digit limit"),
    ),
]


@pytest.mark.parametrize("argv, document, message", EXIT_2_CASES)
def test_documented_exit_2_paths(argv, document, message, tmp_path, capsys):
    # "DOC" stands for a document path; it is left missing when there is
    # no document to write.  A str document is written verbatim.
    path = tmp_path / "doc.json"
    if document is not None:
        path.write_text(document if isinstance(document, str) else json.dumps(document))
    code, out, err = run(capsys, *(str(path) if a == "DOC" else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err
    if document is not None:
        # The line names the fault without echoing a long value back.
        assert len(err) < 200


@pytest.mark.parametrize("num", ["1_000", " 7 ", "+3", "\u0663"])
def test_non_ascii_decimal_integer_exit_code(num, tmp_path, capsys):
    seed = tmp_path / "seed.json"
    run(capsys, "seed", "--out", str(seed))
    doc = json.loads(seed.read_text())
    doc["f1"] = [{"word": "y", "num": num, "den": "1"}]
    seed.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--in", str(seed), "--degree", "1",
                         "--variant", "SolKV")
    assert code == 2
    assert err.startswith("error: ") and "f1[0].num" in err


def test_gr_test_guards_document_cap(tmp_path, capsys):
    seed = tmp_path / "seed.json"
    run(capsys, "seed", "--out", str(seed))
    doc = json.loads(seed.read_text())
    doc["cap"] = 13
    path = tmp_path / "cap13.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gr-test", "--in", str(path), "--degree", "3")
    assert code == 2
    assert "allow-large" in err


def test_extend_rejects_non_solution_variant(tmp_path, capsys):
    doc = {
        "format_version": "1",
        "cap": 1,
        "f1": [],
        "f2": [],
        "duflo": [],
        "variant": "KRV",
    }
    path = tmp_path / "krv.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "extend", "--in", str(path), "--to-degree", "2")
    assert code == 2


def test_extend_output_reverifies(tmp_path, capsys):
    seed = tmp_path / "seed.json"
    sol = tmp_path / "sol.json"
    run(capsys, "seed", "--out", str(seed))
    run(capsys, "extend", "--in", str(seed), "--to-degree", "5", "--out", str(sol))
    for variant, expected in (("SolKV", 0), ("KRV", 1)):
        code, out, err = run(capsys, "verify", "--in", str(sol), "--degree", "5",
                             "--variant", variant)
        assert code == expected


def test_determinism_of_extend(tmp_path, capsys):
    seed = tmp_path / "seed.json"
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "seed", "--out", str(seed))
    run(capsys, "extend", "--in", str(seed), "--to-degree", "4", "--out", str(a))
    run(capsys, "extend", "--in", str(seed), "--to-degree", "4", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gr_test_command(tmp_path, capsys):
    seed = tmp_path / "seed.json"
    sol = tmp_path / "sol.json"
    run(capsys, "seed", "--out", str(seed))
    run(capsys, "extend", "--in", str(seed), "--to-degree", "3", "--out", str(sol))
    code, out, err = run(capsys, "gr-test", "--in", str(sol), "--degree", "2")
    assert code == 0
    assert "EQUAL" in out


def test_gr_test_computes_the_graded_dimension_once(tmp_path, capsys, monkeypatch):
    seed = tmp_path / "seed.json"
    sol = tmp_path / "sol4.json"
    run(capsys, "seed", "--out", str(seed))
    run(capsys, "extend", "--in", str(seed), "--to-degree", "4", "--out", str(sol))
    calls = []
    real = kvtower.kv.krv_dim

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(kvtower.kv, "krv_dim", counting)
    monkeypatch.setattr("kvtower.cli.krv_dim", counting)
    code, out, _ = run(capsys, "gr-test", "--in", str(sol), "--degree", "3")
    assert code == 0
    assert out.splitlines() == ["gr_rank 3 = 1", "krv_dim 3 = 1", "EQUAL"]
    assert calls == [3]


def test_emit_report_formats():
    F = extend_solkv(TAutElt.identity(1), 4)
    passing = emit_report(check_sol_kv(F, 4))
    assert passing.splitlines()[-1] == "PASS"
    assert any(line.startswith("r_2 ") for line in passing.splitlines())
    failing = emit_report(check_sol_kv(TAutElt.identity(2), 2))
    assert failing.splitlines() == ["defect xy 1/2", "FAIL"]


def test_emit_report_pass_only_when_series_zero():
    F = TAutElt.identity(1)
    text = emit_report(check_sol_kv(F, 1))
    assert text == "PASS\n"


@pytest.mark.parametrize("command", ["seed", "extend"])
def test_unwritable_out_exit_code(command, tmp_path, capsys):
    seed = tmp_path / "seed.json"
    run(capsys, "seed", "--out", str(seed))
    target = tmp_path / "no-such-dir" / "x.json"
    argv = ["seed"] if command == "seed" else ["extend", "--in", str(seed),
                                                "--to-degree", "2"]
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert "cannot write" in err
    assert not target.exists()


@pytest.mark.parametrize("command", ["seed", "extend"])
def test_stdout_output_equals_out_file(command, tmp_path, capsys):
    seed = tmp_path / "seed.json"
    run(capsys, "seed", "--out", str(seed))
    argv = ["seed"] if command == "seed" else ["extend", "--in", str(seed),
                                                "--to-degree", "4"]
    path = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == path.read_bytes()


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["dims", "--max-degree", "3"], False),
        (["bch", "--degree", "3"], False),
        (["verify", "--in", str(SOL10), "--degree", "2", "--variant", "SolKV"], True),
    ],
    ids=["dims", "bch", "verify"],
)
def test_only_commands_that_read_a_document_load_the_document_layer(argv, loaded):
    # A fresh interpreter, since this one has imported kvtower.documents.
    # It is asked for the package, not for json, which a site hook may load.
    script = (
        "import sys\n"
        "from kvtower.cli import main\n"
        f"main({argv!r})\n"
        "print('kvtower.documents' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[-1] == str(loaded)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--in", str(SOL10), "--degree", "4", "--variant", "SolKV"],
        ["dims", "--max-degree", "6"],
        ["bch", "--degree", "5"],
        ["seed"],
    ],
    ids=["verify", "dims", "bch", "seed"],
)
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exit_code(argv, unbuffered):
    # The reading end of stdout is closed before the process starts, so
    # every write to it fails; this is an I/O error, not a failed check.
    # Buffered, the output also stays behind for the flush at exit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kvtower.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_internal_fault_exit_code(tmp_path, capsys, monkeypatch):
    seed = tmp_path / "seed.json"
    run(capsys, "seed", "--out", str(seed))
    # The extension's solves report an inconsistent system.
    monkeypatch.setattr(kvtower.kv, "_particular", lambda M, b: None)
    code, out, err = run(capsys, "extend", "--in", str(seed), "--to-degree", "3")
    assert code == 3
    assert "internal inconsistency" in err


@pytest.mark.parametrize(
    "exc_type, argv",
    [
        (KeyError, ["verify", "--in", str(SOL10), "--degree", "2", "--variant", "SolKV"]),
        (ValueError, ["dims", "--max-degree", "3"]),
    ],
    ids=["verify", "dims"],
)
def test_unexpected_exception_exit_code(exc_type, argv, capsys, monkeypatch):
    # A bug is an internal error shown with its traceback, not a failed check.
    def fail(*args):
        raise exc_type("injected fault")

    monkeypatch.setitem(kvtower.cli._CHECKERS, "SolKV", fail)
    monkeypatch.setattr("kvtower.cli.krv_dim", fail)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "Traceback" in err
    assert f"{exc_type.__name__}: " in err


def test_verify_normalises_at_the_checked_degree(tmp_path, capsys, monkeypatch):
    # f1 = x + y needs a BCH normalisation; below the document's cap it
    # must run at the checked degree, not at the cap.
    outputs = {}
    for cap in (11, 2):
        path = tmp_path / f"cap{cap}.json"
        doc = SolutionDocument(cap, {"x": 1, "y": 1}, {}, {}, "SolKV")
        path.write_text(emit_document(doc))
        caps = []
        real_bch = kvtower.tangential.bch

        def recording_bch(u, v):
            caps.append(u.cap)
            return real_bch(u, v)

        monkeypatch.setattr(kvtower.tangential, "bch", recording_bch)
        code, out, _ = run(capsys, "verify", "--in", str(path), "--degree", "2",
                           "--variant", "SolKV")
        monkeypatch.undo()
        assert code == 1
        assert caps and max(caps) <= 2
        outputs[cap] = out
    assert outputs[11] == outputs[2]


def test_extend_refuses_a_failed_final_check(tmp_path, capsys, monkeypatch):
    seed = tmp_path / "seed.json"
    out = tmp_path / "sol2.json"
    run(capsys, "seed", "--out", str(seed))
    monkeypatch.setattr(
        "kvtower.cli._extend_from", lambda F, to_degree: TAutElt.identity(2)
    )
    code, _, err = run(capsys, "extend", "--in", str(seed), "--to-degree", "2",
                       "--out", str(out))
    assert code == 3
    assert "internal inconsistency" in err
    assert not out.exists()


def test_extend_checks_its_input_and_its_output_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = check_sol_kv

    def counting(F, n):
        calls.append(n)
        return real(F, n)

    monkeypatch.setattr(kvtower.kv, "check_sol_kv", counting)
    monkeypatch.setattr("kvtower.cli.check_sol_kv", counting)
    seed = tmp_path / "seed.json"
    out = tmp_path / "sol4.json"
    run(capsys, "seed", "--out", str(seed))
    code, _, _ = run(capsys, "extend", "--in", str(seed), "--to-degree", "4",
                     "--out", str(out))
    assert code == 0
    assert calls == [1, 4]
    # A non-solution is reported once, and nothing is extended.
    calls.clear()
    bad = tmp_path / "bad.json"
    bad.write_text(emit_document(SolutionDocument(2, {}, {}, {}, "SolKV")))
    code, report, _ = run(capsys, "extend", "--in", str(bad), "--to-degree", "4")
    assert code == 1
    assert report == emit_report(real(TAutElt.identity(2), 2))
    assert calls == [2]


def test_extend_to_its_own_cap_checks_once(tmp_path, capsys, monkeypatch):
    seed = tmp_path / "seed.json"
    sol4 = tmp_path / "sol4.json"
    out = tmp_path / "again.json"
    run(capsys, "seed", "--out", str(seed))
    run(capsys, "extend", "--in", str(seed), "--to-degree", "4", "--out", str(sol4))
    calls = []
    real = check_sol_kv

    def counting(F, n):
        calls.append(n)
        return real(F, n)

    monkeypatch.setattr(kvtower.kv, "check_sol_kv", counting)
    monkeypatch.setattr("kvtower.cli.check_sol_kv", counting)
    code, _, _ = run(capsys, "extend", "--in", str(sol4), "--to-degree", "4",
                     "--out", str(out))
    assert code == 0
    # No step runs, so the entry check is the only check.
    assert calls == [4]
    assert out.read_bytes() == sol4.read_bytes()


def test_out_is_replaced_atomically(tmp_path, capsys, monkeypatch):
    out = tmp_path / "seed.json"
    assert run(capsys, "seed", "--out", str(out))[0] == 0
    old = out.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seed.json"]

    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr("kvtower.cli.os.replace", failing_replace)
    code, _, err = run(capsys, "extend", "--in", str(out), "--to-degree", "2",
                       "--out", str(out))
    assert code == 2
    assert "cannot write" in err
    assert out.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seed.json"]
