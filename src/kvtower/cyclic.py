"""Cyclic words: the quotient of the associative algebra by commutators.

A cyclic word is stored by its canonical necklace — the lexicographically
least rotation — as a key in the shared sparse form of
:mod:`kvtower.sparse`, so the trace map just rotates every word to
canonical form and accumulates coefficients.  The public constructor
rejects keys that are not canonical.
"""

from fractions import Fraction

from .assoc import AssocElt
from .lie import bch_xy, lie_to_assoc
from .sparse import SparseElt
from .words import min_rotation


class CycElt(SparseElt):
    """Element of the space of cyclic words truncated at ``cap``."""

    __slots__ = ()

    def __init__(self, cap, coeffs=None):
        if coeffs:
            for w in coeffs:
                if len(w) <= cap and w != min_rotation(w):
                    raise ValueError(f"not a canonical necklace: {w!r}")
        super().__init__(cap, coeffs)

    def coeff(self, word):
        return self.coeffs.get(min_rotation(word), Fraction(0))

    @staticmethod
    def _show(w):
        return f"({w})"


def trace(a):
    """Project an associative element onto cyclic words."""
    out = {}
    for w, c in a.coeffs.items():
        k = min_rotation(w)
        out[k] = out.get(k, 0) + c
    return CycElt._collect(a.cap, out)


def duflo_pattern(k, target, cap):
    """Trace of ``w^k - x^k - y^k`` with ``w`` either ``x+y`` or the BCH
    series, truncated at ``cap``.

    These are the right-hand-side building blocks the Duflo coefficient
    ``r_k`` multiplies in the second equation of each system.
    """
    if not 2 <= k <= cap:
        raise ValueError(f"k must satisfy 2 <= k <= cap, got {k}")
    if target == "sum":
        w = AssocElt(cap, {"x": 1, "y": 1})
    elif target == "bch":
        w = lie_to_assoc(bch_xy(cap))
    else:
        raise ValueError(f"unknown target {target!r}")
    wk = w**k
    xk = AssocElt.word("x" * k, cap)
    yk = AssocElt.word("y" * k, cap)
    return trace(wk - xk - yk)
