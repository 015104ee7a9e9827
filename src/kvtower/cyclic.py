"""Cyclic words: the quotient of the associative algebra by commutators.

A cyclic word is stored by its canonical necklace — the lexicographically
least rotation — as a key in the shared sparse form of
:mod:`kvtower.sparse`, so the trace map is the necklace sum of
:mod:`kvtower.words` over the element's stored integer numerators, kept
over its denominator.  The public constructor rejects keys that are not
canonical, after the shared check that each key is a word in ``x`` and
``y``.  The Duflo patterns are ``tr(w^k - x^k - y^k)`` for a side
``w`` of the KV equations, by the one map of side names (:func:`_side`)
that the checkers use too.  For ``w = x + y`` each pattern is read off
the necklaces of degree ``k``: ``(x + y)^k`` is the sum of all words of
length ``k``, so a necklace's coefficient is its number of distinct
rotations, its period.  For ``w = bch(x, y)`` the patterns of all degrees
come from one running power of ``w``, which starts at ``w`` itself, and
are cached per cap in this module's own global table, filled through the
memo of :mod:`kvtower.words`.
Either way the degree-``k`` part of ``w^k`` is ``(x + y)^k``, so each
pattern's least word is ``x^(k-1) y``, with coefficient ``k``.
"""

from .assoc import AssocElt
from .lie import LieElt, bch_xy, lie_to_assoc
from .sparse import SparseElt
from .words import _memo, _necklace_sums, min_rotation, necklaces

# The Duflo patterns of bch(x, y), keyed by the cap.
_BCH_PATTERNS = {}


class CycElt(SparseElt):
    """Element of the space of cyclic words truncated at ``cap``."""

    __slots__ = ()

    def __init__(self, cap, coeffs=None):
        SparseElt.__init__(self, cap, coeffs)
        for w in coeffs or ():
            if len(w) <= cap and w != min_rotation(w):
                raise ValueError(f"not a canonical necklace: {w!r}")

    def coeff(self, word):
        return super().coeff(min_rotation(word))

    @staticmethod
    def _show(w):
        return f"({w})"


def trace(a):
    """Project an associative element onto cyclic words."""
    return CycElt._from_ints(a.cap, _necklace_sums(a.nums.items()), a.den)


def _side(kind, cap):
    """``x + y`` (``"sum"``) or ``bch(x, y)`` (``"bch"``) at ``cap``."""
    if kind not in ("sum", "bch"):
        raise ValueError(f"unknown target {kind!r}")
    return bch_xy(cap) if kind == "bch" else LieElt(cap, {"x": 1, "y": 1})


def _sum_pattern(k, cap):
    """``tr((x + y)^k - x^k - y^k)``.  Each necklace of degree ``k``
    counts its distinct rotations: its period, the offset of its second
    occurrence in ``w + w``.  ``x^k`` and ``y^k``, the necklaces of period
    one, are left out."""
    nums = {}
    for w in necklaces(k):
        period = (w + w).find(w, 1)
        if period > 1:
            nums[w] = period
    return CycElt._from_ints(cap, nums, 1)


@_memo(_BCH_PATTERNS)
def _bch_patterns(cap):
    """The pairs ``(k, tr(w^k - x^k - y^k))`` for ``w = bch(x, y)`` and
    ``2 <= k <= cap``, from one running product (cached per cap)."""
    w = power = lie_to_assoc(bch_xy(cap))
    patterns = []
    for k in range(2, cap + 1):
        power = power * w
        patterns.append((k, trace(power - AssocElt(cap, {"x" * k: 1, "y" * k: 1}))))
    return tuple(patterns)


def _duflo_patterns(target, cap):
    """Yield ``(k, tr(w^k - x^k - y^k))`` for ``2 <= k <= cap``, with ``w``
    the side ``target``: closed forms for ``x + y``, and the cached
    patterns of :func:`_bch_patterns` for ``bch(x, y)``."""
    if target == "bch":
        yield from _bch_patterns(cap)
        return
    _side(target, cap)  # rejects an unknown target
    for k in range(2, cap + 1):
        yield k, _sum_pattern(k, cap)


def duflo_pattern(k, target, cap):
    """Trace of ``w^k - x^k - y^k`` with ``w`` either ``x+y`` or the BCH
    series, truncated at ``cap``.

    These are the right-hand-side building blocks the Duflo coefficient
    ``r_k`` multiplies in the second equation of each system.
    """
    if not 2 <= k <= cap:
        raise ValueError(f"k must satisfy 2 <= k <= cap, got {k}")
    return next(pattern for j, pattern in _duflo_patterns(target, cap) if j == k)
