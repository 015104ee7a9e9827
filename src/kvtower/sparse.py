"""The sparse representation shared by the three word algebras.

An element of the truncated free associative algebra, of the free Lie
algebra in the Lyndon basis, or of the space of cyclic words is a degree
cap plus a sparse map from words (strings over ``xy``) to nonzero
``Fraction`` coefficients.  Terms above the cap are dropped, which is the
arithmetic of the quotient at that cap.

This module alone keeps the rule that every stored coefficient is a
reduced, nonzero ``Fraction``.  The public constructor normalises its
input: it drops over-cap words, converts every coefficient with
``Fraction()`` and removes zeros.  Results computed from valid elements go
through a trusted constructor instead: :meth:`SparseElt._new` adopts a
clean map as it is, and :meth:`SparseElt._from_ints` adopts accumulated
integer sums over one common denominator, after dropping those that
cancelled.

The products (brackets, expansions, the associative product, the engines,
the cyclic action and the trace) do their inner loops on ``int``s:
:func:`_int_form` writes an operand as one common denominator, the lcm of
its denominators, over integer numerators, and the sums go back through
:meth:`SparseElt._from_ints`.  The arithmetic is exact, so the results are
the same ``Fraction``s that coefficient loops would give.  The module also
holds :func:`_exp_series`, the one truncated exponential series; with a
shift it also sums the Jacobian series ``sum_k w^k(j)/(k+1)!``.
"""

from fractions import Fraction
from math import lcm

from .errors import CapMismatch


def _require_same_cap(a, b):
    if a.cap != b.cap:
        raise CapMismatch(f"cap mismatch: {a.cap} != {b.cap}")


def _check_cap(cap):
    if cap < 1:
        raise ValueError("cap must be >= 1")


class SparseElt:
    """Sparse map word -> nonzero ``Fraction``, truncated at degree ``cap``."""

    __slots__ = ("cap", "coeffs")

    def __init__(self, cap, coeffs=None):
        _check_cap(cap)
        self.cap = cap
        store = {}
        if coeffs:
            for w, c in coeffs.items():
                if len(w) > cap:
                    continue
                c = Fraction(c)
                if c != 0:
                    store[w] = c
        self.coeffs = store

    @classmethod
    def _new(cls, cap, coeffs):
        """Trusted constructor: ``coeffs`` must already hold only nonzero
        ``Fraction``s on valid words of degree at most ``cap``.  The map is
        adopted, not copied."""
        elt = object.__new__(cls)
        elt.cap = cap
        elt.coeffs = coeffs
        return elt

    @classmethod
    def _from_ints(cls, cap, sums, den):
        """Trusted constructor for integer sums over the common positive
        denominator ``den``: the entries that cancelled are dropped, and
        each other one is stored as the reduced ``Fraction(n, den)``."""
        return cls._new(cap, {w: Fraction(n, den) for w, n in sums.items() if n})

    @classmethod
    def zero(cls, cap):
        return cls(cap)

    def is_zero(self):
        return not self.coeffs

    def min_degree(self):
        """Lowest degree with a nonzero term; None for the zero element."""
        if not self.coeffs:
            return None
        return min(len(w) for w in self.coeffs)

    def homogeneous_part(self, d):
        return self._new(self.cap, {w: c for w, c in self.coeffs.items() if len(w) == d})

    def truncate(self, n):
        if n > self.cap:
            raise ValueError("cannot extend the cap by truncation")
        _check_cap(n)
        return self._new(n, {w: c for w, c in self.coeffs.items() if len(w) <= n})

    def with_cap(self, n):
        """Reinterpret at cap ``n`` >= current cap (zero extension)."""
        if n < self.cap:
            raise ValueError("use truncate to lower the cap")
        return self._new(n, dict(self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.cap == other.cap
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.cap, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other):
        _require_same_cap(self, other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            s = out.get(w, 0) + c
            if s == 0:
                out.pop(w, None)
            else:
                out[w] = s
        return self._new(self.cap, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new(self.cap, {w: -c for w, c in self.coeffs.items()})

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        if scalar == 0:
            return self.zero(self.cap)
        return self._new(self.cap, {w: scalar * c for w, c in self.coeffs.items()})

    def sorted_terms(self):
        """Terms ordered by (degree, word) — the canonical order."""
        return sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))

    @staticmethod
    def _show(w):
        return w

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{self._show(w)}" for w, c in self.sorted_terms())


def _int_form(coeffs):
    """``(D, {w: n})`` with ``D`` the lcm of the denominators of the
    ``Fraction``s in ``coeffs`` and ``n = c * D``, an ``int``, for each
    ``w: c``."""
    den = lcm(*{c.denominator for c in coeffs.values()})
    if den == 1:
        return 1, {w: c.numerator for w, c in coeffs.items()}
    return den, {w: c.numerator * (den // c.denominator) for w, c in coeffs.items()}


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
