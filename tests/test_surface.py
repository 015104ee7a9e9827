"""The public surface that the library keeps from change to change: the
names the package exports, the names the benchmark's tracer wraps, and
the one set of check variants that the checkers, the command line and the
documents share."""

import ast
import importlib
from pathlib import Path

import kvtower
import kvtower.cli
import kvtower.documents
import kvtower.kv

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"

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


def test_one_set_of_check_variants():
    names = set(kvtower.kv._VARIANTS)
    assert set(kvtower.cli._CHECKERS) == names == set(kvtower.documents.VARIANTS)
    # The documents' order is the table's, and it names them in its errors.
    assert kvtower.documents.VARIANTS == ("SolKV", "KV", "KRV")
