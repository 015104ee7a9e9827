"""Truncated free associative algebra on x and y.

Elements are noncommutative polynomials in the shared sparse form of
:mod:`kvtower.sparse`: words (strings over ``xy``, the empty word being
the scalar slot) mapped to rational coefficients, with every term above
the degree cap dropped, which is exactly the arithmetic of the quotient
algebra at that cap.  This module adds the unit, the concatenation
product and the exponential and logarithm series.
"""

from fractions import Fraction

from .sparse import SparseElt, _exp_series, _products


class AssocElt(SparseElt):
    """Noncommutative polynomial in x, y truncated at degree ``cap``."""

    __slots__ = ()

    # Bound on the class itself so that per-class tracing can wrap them.
    __init__ = SparseElt.__init__
    __add__ = SparseElt.__add__

    @classmethod
    def one(cls, cap):
        return cls(cap, {"": 1})

    @classmethod
    def word(cls, w, cap):
        return cls(cap, {w: 1})

    def constant_term(self):
        return self.coeff("")

    def __mul__(self, other):
        """Concatenation product, truncated at the cap."""
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        out = {}
        for wa, wb, c in _products(self, other):
            w = wa + wb
            out[w] = out.get(w, 0) + c
        return AssocElt._from_ints(self.cap, out, self.den * other.den)

    @staticmethod
    def _show(w):
        return w or "1"


def assoc_exp(a):
    """Exponential series of an element with zero constant term."""
    if a.constant_term() != 0:
        raise ValueError("exp requires zero constant term")
    return _exp_series(AssocElt.one(a.cap), lambda term: term * a)


def assoc_log(a):
    """Logarithm series of an element with constant term 1."""
    if a.constant_term() != 1:
        raise ValueError("log requires constant term 1")
    u = a - AssocElt.one(a.cap)
    out = AssocElt.zero(a.cap)
    power = AssocElt.one(a.cap)
    for k in range(1, a.cap + 1):
        power = power * u
        if power.is_zero():
            break
        out = out + (Fraction((-1) ** (k + 1), k) * power)
    return out
