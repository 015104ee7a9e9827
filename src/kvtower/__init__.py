"""Exact computation with the Kashiwara-Vergne equations in degree-capped
free Lie algebras: Lyndon-basis arithmetic, tangential derivations and
automorphisms, divergence and Jacobian cocycles, equation checkers, and
the degree-by-degree extension of solutions."""

from .assoc import AssocElt, assoc_exp, assoc_log
from .cyclic import CycElt, duflo_pattern, trace
from .errors import (
    CapMismatch,
    DocumentError,
    InconsistentSystem,
    NotPrimitive,
    PreconditionFailed,
)
from .kv import (
    DufloSeries,
    KVReport,
    check_krv,
    check_krv_lie,
    check_kv,
    check_sol_kv,
    extend_krv_step,
    extend_solkv,
    extend_solkv_step,
    gr_leading_rank,
    krv_dim,
    psi_conjugate,
    solve_duflo,
    torsor_quotient,
)
from .lie import LieElt, bch, bch_xy, lie_bracket, lie_from_assoc, lie_to_assoc
from .linalg import QMatrix, kernel_basis, solve_linear
from .tangential import (
    TAutElt,
    TDer,
    cyc_taut_act,
    cyc_tder_act,
    divergence,
    group_commutator,
    jacobian,
    taut_apply,
    taut_compose,
    taut_exp,
    taut_inverse,
    taut_log,
    tder_apply,
    tder_bracket,
    valuation,
)
from .words import is_lyndon, lyndon_words, min_rotation, necklaces

__version__ = "0.1.0"

__all__ = [
    "AssocElt",
    "CapMismatch",
    "CycElt",
    "DocumentError",
    "DufloSeries",
    "InconsistentSystem",
    "KVReport",
    "LieElt",
    "NotPrimitive",
    "PreconditionFailed",
    "QMatrix",
    "TAutElt",
    "TDer",
    "assoc_exp",
    "assoc_log",
    "bch",
    "bch_xy",
    "check_krv",
    "check_krv_lie",
    "check_kv",
    "check_sol_kv",
    "cyc_taut_act",
    "cyc_tder_act",
    "divergence",
    "duflo_pattern",
    "extend_krv_step",
    "extend_solkv",
    "extend_solkv_step",
    "gr_leading_rank",
    "group_commutator",
    "is_lyndon",
    "jacobian",
    "kernel_basis",
    "krv_dim",
    "lie_bracket",
    "lie_from_assoc",
    "lie_to_assoc",
    "lyndon_words",
    "min_rotation",
    "necklaces",
    "psi_conjugate",
    "solve_duflo",
    "solve_linear",
    "taut_apply",
    "taut_compose",
    "taut_exp",
    "taut_inverse",
    "taut_log",
    "tder_apply",
    "tder_bracket",
    "torsor_quotient",
    "trace",
    "valuation",
]
