import ast
import importlib.util
import itertools
import json
import os
import shlex
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import count_checks, count_logs
import kvtower.cli
import kvtower.kv
import kvtower.tangential
from kvtower.cli import _read_args, build_parser, emit_report, run_command
from kvtower.documents import SolutionDocument, emit_document
from kvtower.kv import DufloSeries, check_sol_kv, extend_solkv
from kvtower.lie import LieElt
from kvtower.linalg import LinearSolution, QMatrix
from kvtower.tangential import TAutElt


GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent
# The canonical degree-10 solution that the benchmark also reads.
SOL10 = ROOT / "perfbench" / "data" / "sol10.json"


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


def _tampered_sol10(tmp_path):
    # The degree-10 solution with its first degree-8 f2 coefficient
    # doubled: both equations fail from degree 8 on.
    doc = json.loads(SOL10.read_text())
    item = next(i for i in doc["f2"] if len(i["word"]) == 8)
    item["num"] = str(2 * int(item["num"]))
    path = tmp_path / "tampered10.json"
    path.write_text(json.dumps(doc))
    return path


def _golden_verify_sol_d10_fail(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--in", str(_tampered_sol10(tmp_path)),
                       "--degree", "10", "--variant", "SolKV")
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
    ("verify_sol_d10_fail.txt", _golden_verify_sol_d10_fail, 1),
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
    # gr-test prints the transported rank and the graded dimension; it
    # transports each graded basis vector through log F, as a series of
    # derivation brackets, and goes through no group operation.
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


def _typed(args):
    """``vars(args)`` with the type of each value, so that True and 1 differ."""
    return {name: (type(value), value) for name, value in vars(args).items()}


def _parsed(argv):
    """argparse's reading of ``argv``, typed; ``None`` where it prints
    help or a usage error and exits."""
    try:
        return _typed(build_parser().parse_args(argv))
    except SystemExit:
        return None


# Each command with a plain value for every option.
_PLAIN_OPTIONS = {
    "bch": [["--degree", "7"], ["--allow-large"]],
    "dims": [["--max-degree", "9"], ["--allow-large"]],
    "verify": [["--in", "sol.json"], ["--degree", "9"], ["--variant", "SolKV"],
               ["--allow-large"]],
    "extend": [["--in", "sol.json"], ["--to-degree", "8"], ["--out", "out.json"],
               ["--allow-large"]],
    "seed": [["--out", "out.json"]],
    "gr-test": [["--in", "sol.json"], ["--degree", "7"], ["--allow-large"]],
}
_OPTIONAL = {"--allow-large", "--out"}


def _argv_corpus():
    """(argv, plain) pairs: ``plain`` when argv has the form that
    ``_read_args`` reads, ``COMMAND (--option VALUE | --flag)...``."""
    for command, options in _PLAIN_OPTIONS.items():
        # Every order, and with each option left out in turn.
        for order in itertools.permutations(options):
            yield [command, *itertools.chain(*order)], True
        for i, left_out in enumerate(options):
            rest = options[:i] + options[i + 1:]
            yield [command, *itertools.chain(*rest)], left_out[0] in _OPTIONAL
        first = options[0]
        yield [command, "-h"], False
        yield [command, "--help"], False
        yield [command, *itertools.chain(*options), "--help"], False
        yield [command, "--"] + list(itertools.chain(*options)), False
        yield [command, *itertools.chain(*options), "--"], False
        yield [command, *itertools.chain(*options), "extra"], False
        yield [command, *itertools.chain(*options), first[0]], False
        yield [command, *itertools.chain(*options), *first], False
        if len(first) == 2:
            yield [command, f"{first[0]}={first[1]}", *itertools.chain(*options[1:])], False
            yield [command, first[0][:-1], first[1], *itertools.chain(*options[1:])], False
    yield [], False
    yield ["-h"], False
    yield ["--help"], False
    yield ["--help", "dims"], False
    yield ["no-such-command"], False
    yield ["dim", "--max-degree", "9"], False
    yield ["dims", "--max", "9"], False
    yield ["dims", "--max-degree", "9", "--allow"], False
    yield ["dims", "--allow-large", "yes", "--max-degree", "9"], False
    yield ["dims", "--allow-large", "--allow-large", "--max-degree", "9"], False
    # int values as int() reads them, as type=int does; a value that starts
    # with "-" is argparse's, a negative number included.
    for value, plain in ((" 9", True), ("1_0", True), ("\u0669", True), ("+3", True),
                         ("-3", False), ("", False), ("nine", False), ("9.0", False),
                         ("1" * 5000, False)):
        yield ["dims", "--max-degree", value], plain
    # Empty strings, and a value that is an option name.
    yield ["verify", "--in", "", "--degree", "9", "--variant", "SolKV"], True
    yield ["extend", "--in", "sol.json", "--to-degree", "8", "--out", ""], True
    yield ["verify", "--in", "--degree", "9", "--variant", "SolKV"], False
    yield ["verify", "--in", "-", "--degree", "9", "--variant", "SolKV"], False
    yield ["extend", "--in", "sol.json", "--to-degree", "8", "--out", "--allow-large"], False
    yield ["verify", "--in", "sol.json", "--degree", "9", "--variant", "solkv"], False
    yield ["verify", "--in", "sol.json", "--degree", "9", "--variant", ""], False
    yield ["verify", "--in", "sol.json", "--degree", "9", "--variant"], False
    yield ["verify", "--degree", "9", "--variant", "SolKV", "--in"], False
    yield ["seed", "--out"], False
    yield ["seed", "out.json"], False
    yield ["seed", "--out", "a b", "--out", "c"], False


def test_plain_command_lines_are_read_as_argparse_reads_them(capsys):
    # argparse is the reference: the reader returns exactly what it sets,
    # or None to leave the argv to it.
    for argv, plain in _argv_corpus():
        got = _read_args(argv)
        want = _parsed(argv)
        if plain:
            assert got is not None and want is not None, argv
        else:
            assert got is None, argv
        assert got is None or _typed(got) == want, argv


def _benchmark_argvs(tmp_path):
    """The argv of every job of every benchmark workload."""
    bench = ROOT / "perfbench"
    sys.path.insert(0, str(bench))  # run.py imports its tracer by name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    for name, workload in module.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        jobs, _ = module.prepare(workload, 1, workdir)
        yield from (job.argv for job in jobs)


def _ci_argvs():
    """The argv of every ``python -m kvtower.cli`` call in the CI step
    "CLI as a process", up to its first shell operator."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    step = text.split("- name: CLI as a process", 1)[1].split("- name:", 1)[0]
    prefix = "python -m kvtower.cli "
    for line in step.splitlines():
        if prefix in line:
            words = shlex.split(line.split(prefix, 1)[1].rstrip("\\"))
            stop = next((i for i, w in enumerate(words)
                         if w.startswith((">", "2>", "|", "<"))), len(words))
            yield words[:stop]


# The CI calls that run argparse's path as a process.
_CI_FALLBACKS = [["dims", "--max=9"], ["dims", "--max", "9"], ["--help"],
                 ["verify", "--help"], ["dims"]]


def test_every_benchmark_job_and_ci_call_is_read_without_argparse(tmp_path, capsys):
    argvs = list(_benchmark_argvs(tmp_path))
    assert {argv[0] for argv in argvs} == {"extend", "verify", "dims"}
    ci = list(_ci_argvs())
    assert all(argv in ci for argv in _CI_FALLBACKS)
    for argv in argvs + [argv for argv in ci if argv not in _CI_FALLBACKS]:
        got = _read_args(argv)
        assert got is not None, argv
        assert _typed(got) == _parsed(argv), argv
    for argv in _CI_FALLBACKS:
        assert _read_args(argv) is None, argv


@pytest.mark.parametrize("argv, imported", [(["dims", "--max-degree", "3"], False),
                                            (["--help"], True)], ids=["plain", "help"])
def test_only_argparses_own_command_lines_import_it(argv, imported):
    # A fresh interpreter, since pytest itself imports argparse.
    script = (
        "import sys\n"
        "from kvtower.cli import run_command\n"
        f"run_command({argv!r})\n"
        "print('argparse' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[-1] == str(imported)


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
    # A read error names the path once, with the system's reason.
    pytest.param(_VERIFY_DOC, None, "cannot read DOC: No such file or directory",
                 id="missing-file"),
    pytest.param(["verify", "--in", "DIR", "--degree", "1", "--variant", "SolKV"], None,
                 "cannot read DIR: Is a directory", id="directory"),
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
    pytest.param(_VERIFY_DOC, _document(f1=[_entry(1)]), "f1[0]: word must be a string",
                 id="word-not-a-string"),
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
    # no document to write.  A str document is written verbatim.  "DIR"
    # stands for a directory.  A message that names either is the whole
    # error line.
    path = tmp_path / "doc.json"
    if document is not None:
        path.write_text(document if isinstance(document, str) else json.dumps(document))
    names = {"DOC": str(path), "DIR": str(tmp_path)}
    code, out, err = run(capsys, *(names.get(a, a) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    shown = message.replace("DOC", names["DOC"]).replace("DIR", names["DIR"])
    assert shown in err
    if shown != message:
        assert err == f"error: {shown}\n"
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


def test_gr_test_names_the_degree_it_refuses(capsys):
    # The transport needs the solution one degree beyond the one tested.
    code, out, err = run(capsys, "gr-test", "--in", str(SOL10), "--degree", "10")
    assert (code, out) == (2, "")
    assert err == "error: the solution must be known beyond degree 10; its cap is 10\n"


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


def test_gr_test_never_uses_the_group_operations(capsys, monkeypatch):
    # The transport goes through log F alone: with the group inverse,
    # exponential and composition all failing, gr-test prints its golden.
    def fail(*args):
        raise AssertionError("group operation called")

    for module in (kvtower.tangential, kvtower.kv):
        for name in ("taut_inverse", "taut_exp", "taut_compose"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fail)
    code, out, err = run(capsys, "gr-test", "--in", str(GOLDEN / "extend_d8.json"),
                         "--degree", "7")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "gr_d7.txt").read_text()


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
    # The path given, not the temporary file beside it, and the system's
    # reason, so the line is the same from run to run.
    assert err == f"error: cannot write {target}: No such file or directory\n"
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
        "from kvtower.cli import run_command\n"
        f"run_command({argv!r})\n"
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


# The program as the console script runs it: ``main()`` reads sys.argv and
# ends the process itself.  A ``-c`` script is ``sys.argv[0]``.  Its stdout
# is buffered, so output that is not flushed before the exit is lost.
PROGRAM = "from kvtower.cli import main; main()"
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _program(*argv, before=""):
    """Run ``argv`` as a process through ``main()``, with stdout and stderr
    read through pipes; ``before`` is Python run first in the process."""
    return subprocess.run(
        [sys.executable, "-c", before + PROGRAM, *argv], capture_output=True, env=BUFFERED
    )


@pytest.mark.parametrize(
    "argv, golden, code",
    [
        (["dims", "--max-degree", "9"], "dims_d9.txt", 0),
        (["bch", "--degree", "10"], "bch_d10.txt", 0),
        (["verify", "--in", str(SOL10), "--degree", "10", "--variant", "KV"],
         "verify_kv_d10.txt", 1),
    ],
    ids=["dims", "bch", "verify-fails"],
)
def test_program_writes_its_whole_output_before_it_exits(argv, golden, code):
    # Buffered output is flushed before the hard exit, none of it lost.
    proc = _program(*argv)
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert proc.stdout == (GOLDEN / golden).read_bytes()


def test_program_exit_2_paths(tmp_path):
    proc = _program("dims")
    assert proc.returncode == 2 and proc.stdout == b""
    assert b"the following arguments are required: --max-degree" in proc.stderr
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    proc = _program("verify", "--in", str(bad), "--degree", "2", "--variant", "SolKV")
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


# A bug in the checker, for the internal-error path.
_INJECTED_FAULT = ("import kvtower.cli\n"
                   "def fail(*args):\n"
                   "    raise KeyError('injected fault')\n"
                   "kvtower.cli._CHECKERS['SolKV'] = fail\n")


def test_program_exit_3_path():
    proc = _program("verify", "--in", str(SOL10), "--degree", "2", "--variant", "SolKV",
                    before=_INJECTED_FAULT)
    assert proc.returncode == 3 and proc.stdout == b""
    assert b"Traceback" in proc.stderr and b"KeyError: 'injected fault'" in proc.stderr


def test_program_final_flush_to_a_closed_stdout_exit_code():
    # --help leaves its text in the buffer for run_command's flush, which fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-c", PROGRAM, "--help"], env=BUFFERED,
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["dims", "--max-degree", "3"], ["seed"]], ids=["dims", "seed"])
def test_program_stdout_on_a_full_device_exit_code(argv):
    # Every write to /dev/full fails with ENOSPC: an I/O error, exit 2.
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", PROGRAM, *argv], env=BUFFERED,
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv, before, stdout_full, code",
    [
        (["verify", "--in", "no-such-file.json", "--degree", "2", "--variant", "SolKV"], "",
         False, 2),
        (["dims", "--max-degree", "3"], "", True, 2),
        (["verify", "--in", str(SOL10), "--degree", "2", "--variant", "SolKV"],
         _INJECTED_FAULT, False, 3),
    ],
    ids=["missing-input", "stdout-full", "internal-error"],
)
def test_program_error_to_a_full_stderr_keeps_its_exit_code(argv, before, stdout_full, code):
    # The error line or traceback cannot be written, and is dropped: the
    # exit code stays the one it explains, never the 1 of a failed check.
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", before + PROGRAM, *argv], env=BUFFERED,
                              stdout=full if stdout_full else subprocess.PIPE, stderr=full)
    assert proc.returncode == code
    assert stdout_full or proc.stdout == b""


@pytest.mark.skipif(not (os.path.isdir("/proc/self/fd") and os.path.exists("/dev/full")),
                    reason="no /proc/self/fd or no /dev/full")
def test_stdout_failure_closes_the_descriptor_it_opens():
    # The first run's write fails, and stdout is pointed at the null device
    # through a descriptor that is closed again; the later runs write there.
    script = ("import os, sys\n"
              "from kvtower.cli import run_command\n"
              "before = len(os.listdir('/proc/self/fd'))\n"
              "codes = [run_command(['dims', '--max-degree', '2']) for _ in range(3)]\n"
              "sys.stderr.write(repr((codes, before, len(os.listdir('/proc/self/fd')))))\n")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", script], env=BUFFERED,
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, before, after = ast.literal_eval(proc.stderr.splitlines()[-1])
    assert codes == [2, 0, 0]
    assert after == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_run_command_flushes_help_text_in_process():
    # Help text stays in the buffer until run_command's own flush, which
    # fails on a full device: exit code 2 in-process, as in the program.
    script = ("import sys\n"
              "from kvtower.cli import run_command\n"
              "sys.stderr.write(repr(run_command(['--help'])))\n")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", script], env=BUFFERED,
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.endswith("\n2")


def test_program_without_stdout_exit_code(tmp_path):
    # With file descriptor 1 closed, sys.stdout is None: output that has to
    # go there is an I/O error, and a run that writes only --out succeeds.
    # With descriptor 2 closed too, the error line is lost, not the code.
    def closed(fds, *argv):
        return subprocess.run([sys.executable, "-c", PROGRAM, *argv], env=BUFFERED,
                              stderr=subprocess.PIPE, text=True,
                              preexec_fn=lambda: [os.close(fd) for fd in fds])

    proc = closed([1], "dims", "--max-degree", "3")
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: [Errno 9] stdout is closed\n"
    assert closed([1, 2], "dims", "--max-degree", "3").returncode == 2
    out = tmp_path / "seed.json"
    assert (closed([1], "seed", "--out", str(out)).returncode, out.exists()) == (0, True)


def test_program_without_stderr_exit_code():
    # With file descriptor 2 closed, sys.stderr is None; the run still
    # ends with its own code.
    proc = subprocess.run([sys.executable, "-c", PROGRAM, "dims", "--max-degree", "2"],
                          env=BUFFERED, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (0, b"n lie krv\n1 2 1\n2 1 0\n")


def test_program_skips_the_interpreter_teardown():
    # atexit handlers run only where run_command is called in-process.
    before = "import atexit; atexit.register(print, 'at exit')\n"
    assert _program("dims", "--max-degree", "2", before=before).stdout == (
        b"n lie krv\n1 2 1\n2 1 0\n")
    in_process = subprocess.run(
        [sys.executable, "-c", before + "from kvtower.cli import run_command\n"
         "print(run_command(['dims', '--max-degree', '2']))"],
        capture_output=True,
    )
    assert in_process.stdout == b"n lie krv\n1 2 1\n2 1 0\n0\nat exit\n"


def test_run_command_returns_its_code(capsys):
    assert run_command(["dims", "--max-degree", "2"]) == 0
    assert run_command(["no-such-command"]) == 2
    assert capsys.readouterr().out == "n lie krv\n1 2 1\n2 1 0\n"


def test_internal_fault_exit_code(tmp_path, capsys, monkeypatch):
    seed = tmp_path / "seed.json"
    run(capsys, "seed", "--out", str(seed))
    # The extension's solves report an inconsistent system.
    inconsistent = LinearSolution(QMatrix.from_rows([[0]]), [1])
    monkeypatch.setattr(kvtower.kv, "solve_linear", lambda M, b: inconsistent)
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
        f1 = LieElt(cap, {"x": 1, "y": 1})
        doc = SolutionDocument(cap, f1, LieElt.zero(cap), DufloSeries(cap), "SolKV")
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
    # The stub passes the entry check and returns a non-solution.
    passed = check_sol_kv(TAutElt.identity(1), 1)
    monkeypatch.setattr(
        "kvtower.cli._extend_from", lambda F, to_degree: (TAutElt.identity(2), passed)
    )
    code, _, err = run(capsys, "extend", "--in", str(seed), "--to-degree", "2",
                       "--out", str(out))
    assert code == 3
    assert "internal inconsistency" in err
    assert not out.exists()


def test_extend_checks_its_input_and_its_output_once(tmp_path, capsys, monkeypatch):
    calls = count_checks(monkeypatch)
    seed = tmp_path / "seed.json"
    out = tmp_path / "sol4.json"
    run(capsys, "seed", "--out", str(seed))
    code, _, _ = run(capsys, "extend", "--in", str(seed), "--to-degree", "4",
                     "--out", str(out))
    assert code == 0
    assert calls == [("SolKV", 1), ("SolKV", 4)]
    # A non-solution is reported once, and nothing is extended.
    calls.clear()
    bad = tmp_path / "bad.json"
    zero = LieElt.zero(2)
    bad.write_text(emit_document(SolutionDocument(2, zero, zero, DufloSeries(2), "SolKV")))
    code, report, _ = run(capsys, "extend", "--in", str(bad), "--to-degree", "4")
    assert code == 1
    assert calls == [("SolKV", 2)]
    assert report == emit_report(check_sol_kv(TAutElt.identity(2), 2))


def test_extend_to_its_own_cap_checks_once(tmp_path, capsys, monkeypatch):
    seed = tmp_path / "seed.json"
    sol4 = tmp_path / "sol4.json"
    out = tmp_path / "again.json"
    run(capsys, "seed", "--out", str(seed))
    run(capsys, "extend", "--in", str(seed), "--to-degree", "4", "--out", str(sol4))
    calls = count_checks(monkeypatch)
    solved = count_logs(monkeypatch)
    code, _, _ = run(capsys, "extend", "--in", str(sol4), "--to-degree", "4",
                     "--out", str(out))
    assert code == 0
    # No step runs, so the entry check is the only check, on the one log.
    assert calls == [("SolKV", 4)]
    assert solved == [4]
    assert out.read_bytes() == sol4.read_bytes()


def test_extend_solves_two_logs_more_than_its_steps(tmp_path, capsys, monkeypatch):
    # One log of the input serves the entry check and the first step; each
    # step solves its corrected element's log once; the output's check
    # solves a log of its own.
    solved = count_logs(monkeypatch)
    out = tmp_path / "sol10.json"
    code, _, _ = run(capsys, "extend", "--in", str(GOLDEN / "extend_d8.json"),
                     "--to-degree", "10", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == SOL10.read_bytes()
    assert solved == [8, 9, 10, 10]
    # A failing input solves one log, and no step runs.
    solved.clear()
    code, _, _ = run(capsys, "extend", "--in", str(_tampered_sol10(tmp_path)),
                     "--to-degree", "11")
    assert code == 1
    assert solved == [10]


def test_extend_reports_a_failed_input_as_verify_does(tmp_path):
    # The entry check of extend is the SolKV check at the document's cap,
    # so it prints the report that verify prints at that degree.
    proc = _program("extend", "--in", str(_tampered_sol10(tmp_path)), "--to-degree", "11")
    assert (proc.returncode, proc.stderr) == (1, b"")
    assert proc.stdout == (GOLDEN / "verify_sol_d10_fail.txt").read_bytes()


def test_out_through_a_symlink_replaces_its_target(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target.name)
    assert run(capsys, "seed", "--out", str(link))[0] == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == run(capsys, "seed")[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_out_to_a_fifo_writes_in_place(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    code = run(capsys, "seed", "--out", str(fifo))[0]
    reader.join(timeout=10)
    assert code == 0 and stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [run(capsys, "seed")[1]]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]


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
