"""The sparse representation shared by the three word algebras.

An element of the truncated free associative algebra, of the free Lie
algebra in the Lyndon basis, or of the space of cyclic words is a degree
cap plus a sparse map from words (strings over ``xy``) to nonzero rational
coefficients.  Terms above the cap are dropped, which is the arithmetic of
the quotient at that cap.

This module alone keeps the one stored form: integer numerators ``nums``
(word -> nonzero ``int``) over one positive denominator ``den``, reduced,
so that ``gcd(den, *nums) == 1``.  The form is unique, so equality and
hashing compare it directly.  The public constructor checks that every
key is a word in ``x`` and ``y`` and normalises its input: it drops
over-cap words and zeros and writes the rest in the integer form of
:func:`_int_form`, over the lcm of their reduced denominators, which is
already reduced.  :func:`_int_form` is the one conversion of a map of
rationals to integer numerators over one denominator; the document
reader, the graded solves and the eliminator's rows use it too.  Results
computed from valid elements go through the trusted
:meth:`SparseElt._from_ints`, which drops the sums that cancelled and
divides out the common factor.

The sums, the scalar product and the products (brackets, expansions, the
associative product, the derivation engine, the cyclic action and the
trace) all
work on the numerators and multiply the denominators.  The arithmetic is
exact, so :attr:`SparseElt.coeffs` and :meth:`SparseElt.coeff` give the
same reduced ``Fraction``s that coefficient loops would give; documents
and reports read those.  The module also holds :func:`_combine`, the one
linear combination ``sum n * row / den`` of integer rows over the lcm of
their denominators, which the derivation engine, the log matcher's
table, the divergence and ``lie_to_assoc`` share; :func:`_exp_series`,
the one truncated exponential series, which gives an automorphism's
action from its log
and with a shift also sums the Jacobian series ``sum_k w^k(j)/(k+1)!``; and :func:`_products`, the one loop over the
pairs of terms whose product stays under the cap, which the bracket and
the associative product share.  The sum of two elements, the bracket and
the associative product keep their own loops, which are their hot paths.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import CapMismatch


def _require_same_cap(a, b):
    if a.cap != b.cap:
        raise CapMismatch(f"cap mismatch: {a.cap} != {b.cap}")


def _check_cap(cap):
    if cap < 1:
        raise ValueError("cap must be >= 1")


class SparseElt:
    """Sparse map word -> nonzero ``int`` numerator over one reduced
    denominator, truncated at degree ``cap``."""

    __slots__ = ("cap", "den", "nums")

    def __init__(self, cap, coeffs=None):
        _check_cap(cap)
        self.cap = cap
        terms = {}
        if coeffs:
            for w, c in coeffs.items():
                if not isinstance(w, str) or w.strip("xy"):
                    raise ValueError(f"not a word in x, y: {w!r}")
                if len(w) > cap:
                    continue
                c = Fraction(c)
                if c != 0:
                    terms[w] = c
        self.nums, self.den = _int_form(terms)

    @classmethod
    def _from_ints(cls, cap, sums, den):
        """Trusted constructor for integer sums over the positive denominator
        ``den``, on valid words of degree at most ``cap``: the sums that
        cancelled are dropped and the rest are reduced with ``den``."""
        nums = {w: n for w, n in sums.items() if n}
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {w: n // g for w, n in nums.items()}
        elt = object.__new__(cls)
        elt.cap = cap
        elt.den = den
        elt.nums = nums
        return elt

    @property
    def coeffs(self):
        """A new map word -> reduced nonzero ``Fraction``."""
        return {w: Fraction(n, self.den) for w, n in self.nums.items()}

    def coeff(self, word):
        return Fraction(self.nums.get(word, 0), self.den)

    @classmethod
    def zero(cls, cap):
        return cls(cap)

    def is_zero(self):
        return not self.nums

    def min_degree(self):
        """Lowest degree with a nonzero term; None for the zero element."""
        if not self.nums:
            return None
        return min(len(w) for w in self.nums)

    def homogeneous_part(self, d):
        part = {w: n for w, n in self.nums.items() if len(w) == d}
        return self._from_ints(self.cap, part, self.den)

    def truncate(self, n):
        if n > self.cap:
            raise ValueError("cannot extend the cap by truncation")
        _check_cap(n)
        low = {w: k for w, k in self.nums.items() if len(w) <= n}
        return self._from_ints(n, low, self.den)

    def with_cap(self, n):
        """Reinterpret at cap ``n`` >= current cap (zero extension)."""
        if n < self.cap:
            raise ValueError("use truncate to lower the cap")
        return self._from_ints(n, self.nums, self.den)

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.cap == other.cap
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.cap, self.den, tuple(sorted(self.nums.items()))))

    def __add__(self, other):
        _require_same_cap(self, other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        out = {w: n * sa for w, n in self.nums.items()}
        for w, n in other.nums.items():
            out[w] = out.get(w, 0) + n * sb
        return self._from_ints(self.cap, out, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._from_ints(self.cap, {w: -n for w, n in self.nums.items()}, self.den)

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        out = {w: s.numerator * n for w, n in self.nums.items()}
        return self._from_ints(self.cap, out, s.denominator * self.den)

    def sorted_terms(self):
        """Terms ordered by (degree, word) — the canonical order."""
        return sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))

    @staticmethod
    def _show(w):
        return w

    def __repr__(self):
        if not self.nums:
            return "0"
        return " + ".join(f"{c}*{self._show(w)}" for w, c in self.sorted_terms())


def _int_form(coeffs):
    """The integer form of ``coeffs``, a map to rationals (``Fraction`` or
    ``int``): ``(nums, den)``, the same keys with integer numerators over
    ``den``, the lcm of the reduced denominators."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}, den


def _combine(cls, cap, terms):
    """The element ``sum n * row / den`` of ``cls`` at ``cap``, over a list
    of triples ``(n, row, den)`` of an integer, an integer row word -> int
    and a positive denominator: each row is scaled to the lcm of the
    denominators, over which the rows add."""
    common = lcm(*(den for _, _, den in terms))
    out = {}
    for n, row, den in terms:
        n *= common // den
        if not out:
            # Nothing to add to yet: the scaled row is the sum so far.
            out = {w: n * k for w, k in row.items()}
            continue
        for w, k in row.items():
            out[w] = out.get(w, 0) + n * k
    return cls._from_ints(cap, out, common)


def _products(a, b):
    """The products ``(wa, wb, na * nb)`` of a term ``na * wa`` of ``a`` and
    a term ``nb * wb`` of ``b`` whose degrees sum to at most the common cap;
    the numerators' sums are over ``a.den * b.den``."""
    _require_same_cap(a, b)
    # The terms of b that fit beside a term of a, by the room left.
    fits = {}
    for wa, na in a.nums.items():
        room = a.cap - len(wa)
        right = fits.get(room)
        if right is None:
            right = fits[room] = [(wb, nb) for wb, nb in b.nums.items() if len(wb) <= room]
        for wb, nb in right:
            yield wa, wb, na * nb


def _exp_series(v, step, shift=0):
    """``v + step(v) + step(step(v))/2! + ...`` for a linear, degree-raising
    ``step``; the terms vanish after at most ``v.cap`` steps.  With ``shift``
    = s the k-th term is divided by ``(k+s)!/s!`` instead of ``k!``."""
    out = term = v
    for k in range(1, v.cap + 1):
        term = Fraction(1, k + shift) * step(term)
        if term.is_zero():
            break
        out = out + term
    return out
