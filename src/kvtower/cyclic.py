"""Cyclic words: the quotient of the associative algebra by commutators.

A cyclic word is stored by its canonical necklace — the lexicographically
least rotation — as a key in the shared sparse form of
:mod:`kvtower.sparse`, so the trace map just rotates every word to
canonical form and accumulates the element's stored integer numerators
over its denominator.  The public constructor rejects keys that are not
canonical.  The Duflo patterns ``tr(w^k - x^k - y^k)`` of all degrees
come from one running power of ``w``, a side of the KV equations: ``x +
y`` or ``bch(x, y)``, by the one map of side names (:func:`_side`) that
the checkers use too.
"""

from .assoc import AssocElt
from .lie import LieElt, bch_xy, lie_to_assoc
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
        return super().coeff(min_rotation(word))

    @staticmethod
    def _show(w):
        return f"({w})"


def _rotated_sums(sums):
    """Integer sums over words, summed again by canonical necklace; the
    sums that are zero are skipped."""
    out = {}
    for w, n in sums.items():
        if n:
            k = min_rotation(w)
            out[k] = out.get(k, 0) + n
    return out


def trace(a):
    """Project an associative element onto cyclic words."""
    return CycElt._from_ints(a.cap, _rotated_sums(a.nums), a.den)


def _side(kind, cap):
    """``x + y`` (``"sum"``) or ``bch(x, y)`` (``"bch"``) at ``cap``."""
    if kind not in ("sum", "bch"):
        raise ValueError(f"unknown target {kind!r}")
    return bch_xy(cap) if kind == "bch" else LieElt(cap, {"x": 1, "y": 1})


def _duflo_patterns(target, cap, low, high):
    """Yield ``(k, tr(w^k - x^k - y^k))`` for ``low <= k <= high``, taking
    ``w^k`` from one running product, with ``w`` the side ``target``."""
    w = lie_to_assoc(_side(target, cap))
    power = AssocElt.one(cap)
    for k in range(1, high + 1):
        power = power * w
        if k >= low:
            xk = AssocElt.word("x" * k, cap)
            yk = AssocElt.word("y" * k, cap)
            yield k, trace(power - xk - yk)


def duflo_pattern(k, target, cap):
    """Trace of ``w^k - x^k - y^k`` with ``w`` either ``x+y`` or the BCH
    series, truncated at ``cap``.

    These are the right-hand-side building blocks the Duflo coefficient
    ``r_k`` multiplies in the second equation of each system.
    """
    if not 2 <= k <= cap:
        raise ValueError(f"k must satisfy 2 <= k <= cap, got {k}")
    ((_, pattern),) = _duflo_patterns(target, cap, k, k)
    return pattern
