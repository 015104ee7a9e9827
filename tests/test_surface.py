"""The public surface that the library keeps from change to change: the
names the package exports, the names the benchmark's tracer wraps and
the calls it sees, the one set of check variants that the checkers, the
command line and the documents share, and two rules on the library's
source."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kvtower
import kvtower.cli
import kvtower.documents
import kvtower.kv

ROOT = Path(__file__).parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src" / "kvtower"
SOL10 = ROOT / "perfbench" / "data" / "sol10.json"
EXTEND_D8 = ROOT / "tests" / "golden" / "extend_d8.json"

PUBLIC = [
    "AssocElt", "CapMismatch", "CycElt", "DocumentError", "DufloSeries",
    "InconsistentSystem", "KVReport", "LieElt", "NotPrimitive", "PreconditionFailed",
    "QMatrix", "TAutElt", "TDer", "assoc_exp", "assoc_log", "bch", "bch_xy",
    "check_krv", "check_krv_lie", "check_kv", "check_sol_kv", "cyc_taut_act",
    "cyc_tder_act", "divergence", "duflo_pattern", "extend_krv_step", "extend_solkv",
    "extend_solkv_step", "gr_leading_rank", "group_commutator", "is_lyndon", "jacobian",
    "kernel_basis", "krv_dim", "lie_bracket", "lie_from_assoc", "lie_to_assoc",
    "lyndon_words", "min_rotation", "necklaces", "psi_conjugate", "solve_duflo",
    "solve_linear", "taut_apply", "taut_compose", "taut_exp", "taut_inverse", "taut_log",
    "tder_apply", "tder_bracket", "torsor_quotient", "trace", "valuation",
]


def test_exported_names_are_unchanged():
    assert len(PUBLIC) == 53
    assert kvtower.__all__ == PUBLIC
    assert all(hasattr(kvtower, name) for name in PUBLIC)


def test_exported_names_are_their_home_modules_objects():
    # Each name is the object of the module that defines it, not a copy or
    # a wrapper, and dir() lists every one.
    for name in PUBLIC:
        value = getattr(kvtower, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(PUBLIC) <= set(dir(kvtower))


def _traced():
    """The tracer's ``TRACED`` tuple, read from its source, not imported."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED in {TRACER}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for module, path in traced:
        # As the tracer looks it up: the last part in its owner's own namespace.
        owner = importlib.import_module("kvtower." + module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), (module, path)


@pytest.mark.parametrize(
    "argv, names, solves",
    [
        (["dims", "--max-degree", "5"], {"kv.krv_dim", "linalg.kernel_basis"}, None),
        (["verify", "--in", str(SOL10), "--degree", "4", "--variant", "SolKV"],
         {"kv.check_sol_kv"}, None),
        # One step, two graded solves: stage A's system, then stage B's.
        (["extend", "--in", str(EXTEND_D8), "--to-degree", "9"],
         {"linalg.solve_linear"}, [[92, 61], [60, 57]]),
    ],
    ids=["dims", "verify", "extend"],
)
def test_the_tracer_sees_the_commands_calls(argv, names, solves, tmp_path):
    # The tracer wraps the traced functions in the kvtower modules that are
    # loaded when it starts, so a layer that a command loads only later
    # would run unseen.
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    subprocess.run([sys.executable, str(TRACER), str(spans), *argv], env=env,
                   capture_output=True, check=True)
    data = json.loads(spans.read_text())
    seen = [span[0] for span in data["spans"]]
    assert names <= set(seen)
    if solves is not None:
        # The rows and columns of each system, in the order they were solved.
        assert seen.count("linalg.solve_linear") == len(solves)
        assert [shape[:2] for shape in data["systems"]] == solves


def test_one_set_of_check_variants():
    names = set(kvtower.kv._VARIANTS)
    assert set(kvtower.cli._CHECKERS) == names == set(kvtower.documents.VARIANTS)
    # The documents' order is the table's, and it names them in its errors.
    assert kvtower.documents.VARIANTS == ("SolKV", "KV", "KRV")


# A functools.lru_cache or functools.cache is a table that clear_caches()
# cannot reach.
CACHES = {"lru_cache", "cache"}


def _source_problem(node):
    """What the syntax-tree ``node`` breaks of the library's source rules,
    or ``None``."""
    if isinstance(node, ast.Assert):
        return "assert statement; raise an exception instead"
    if (isinstance(node, ast.ImportFrom) and node.module == "functools"
            and any(alias.name in CACHES for alias in node.names)
            or isinstance(node, ast.Attribute) and node.attr in CACHES
            and isinstance(node.value, ast.Name) and node.value.id == "functools"):
        return "functools cache; memoize with words._memo so that clear_caches() empties it"
    return None


def test_no_assert_statements_or_functools_caches_in_the_library():
    # python -O strips asserts, so a check in the library must raise.  A
    # walk of the syntax trees also catches an assert split over several
    # lines.
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if (what := _source_problem(node))
    ]
    assert found == []
