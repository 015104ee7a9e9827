"""Degree-truncated free Lie algebra on x and y in the Lyndon basis.

A basis element is the standard bracketing of a Lyndon word: for a word
``w = uv`` with ``v`` the longest proper Lyndon suffix, ``B(w) = [B(u),
B(v)]``.  The expansion of ``B(w)`` into the associative algebra is
triangular — its lexicographically least word is ``w`` itself, with
coefficient one — which makes conversion from associative elements a
simple elimination.

Elements keep their Lyndon-word coordinates in the shared sparse form of
:mod:`kvtower.sparse`.  The bracket of two basis elements is rewritten in
the Lyndon basis with the Jacobi identity, on integers and without
expanding into words, and cached as structure constants; everything
downstream is sparse linear algebra over those tables, including the
Baker-Campbell-Hausdorff product, which the Varadarajan recursion builds
from brackets alone.  The expansions into words serve only
:func:`lie_to_assoc` and :func:`lie_from_assoc`.

The structure constants and the basis expansions are integers, so
:func:`lie_bracket` and :func:`lie_to_assoc` multiply them with the stored
integer numerators of each operand, and the result's denominator is the
operand's, or ``du * dv`` for a bracket of operands with denominators
``du`` and ``dv``.

The five global tables — basis expansions, structure constants,
divergence rows, the ``bch(x, y)`` series and the Duflo patterns of that
series, which :mod:`kvtower.cyclic` fills — are filled on demand through
one memo, and :func:`clear_caches` empties them together with the three
caches of :mod:`kvtower.words`.
"""

from fractions import Fraction
from functools import wraps
from math import comb, factorial

from .assoc import AssocElt
from .errors import NotPrimitive
from .sparse import SparseElt, _combine, _products, _require_same_cap
from .words import (_duval, _necklace, _necklace_sums, is_lyndon, lyndon_words,
                    standard_factorization)

# The five global tables, keyed by argument tuple: the expansion of each
# Lyndon basis element as an integer word polynomial, the structure
# constants of brackets of basis elements, the divergence rows
# {necklace: int} of basis elements in the x slot (x rows only: above
# degree one the trace of the commutator B(w) is zero, so its y row is the
# negated x row, and a degree-one word has no divergence in the slot that
# reads it), the bch(x, y) series per cap, and the Duflo
# patterns of that series per cap (filled by kvtower.cyclic).  All are
# exact and cap-independent or keyed by the cap, so they are global; only
# _memo fills them and only clear_caches() empties them, so this is the
# one place to count or bound them.  They are unbounded today.
# perfbench/tracer.py reads the sizes of _EXPANSION, _BRACKET and _BCH_XY
# by these names.
_EXPANSION = {}
_BRACKET = {}
_DIVERGENCE = {}
_BCH_XY = {}
_BCH_PATTERNS = {}


def _memo(table):
    """Decorator: store the function's results in ``table``, keyed by the
    tuple of its positional arguments."""
    def decorate(fn):
        @wraps(fn)
        def memoized(*key):
            result = table.get(key)
            if result is None:
                result = table[key] = fn(*key)
            return result
        return memoized
    return decorate


def _commutator(a, b):
    """``ab - ba`` for word polynomials given as maps word -> coefficient."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            out[w] = out.get(w, 0) + ca * cb
            w = wb + wa
            out[w] = out.get(w, 0) - ca * cb
    return {w: c for w, c in out.items() if c}


@_memo(_EXPANSION)
def basis_expansion(word):
    """Associative expansion of the standard bracketing of ``word``,
    as a map word -> integer coefficient."""
    if len(word) == 1:
        return {word: 1}
    u, v = standard_factorization(word)
    return _commutator(basis_expansion(u), basis_expansion(v))


@_memo(_DIVERGENCE)
def _divergence_row(word):
    """Divergence of the basis element ``B(word)`` in the x slot, as a map
    necklace -> nonzero integer: the trace of the words of its expansion
    that end in x.

    Above degree one ``B(word)`` is a commutator, whose trace is zero, and
    it is the sum of its words ending in x and of those ending in y, so its
    y row is the negated x row.  A degree-one word has an empty row in the
    slot that reads it, though the x row of ``"x"`` is ``{x: 1}``."""
    kept = ((w, c) for w, c in basis_expansion(word).items() if w[-1] == "x")
    return _necklace_sums(kept)


def _lyndon_coords(poly):
    """Express a word polynomial without constant term in the Lyndon basis.

    Returns (coords, residual): ``coords`` maps Lyndon words to
    coefficients, ``residual`` is whatever is left outside the span.
    The basis expansions are homogeneous and triangular, so this is one
    sweep in lexicographic order per degree.
    """
    residual = dict(poly)
    coords = {}
    for d in sorted({len(w) for w in poly}):
        for w in lyndon_words(d):
            c = residual.get(w, 0)
            if c == 0:
                continue
            coords[w] = c
            for ww, cc in basis_expansion(w).items():
                residual[ww] = residual.get(ww, 0) - c * cc
    return coords, {w: c for w, c in residual.items() if c}


@_memo(_BRACKET)
def bracket_table(w1, w2):
    """Structure constants of ``[B(w1), B(w2)]`` in the Lyndon basis, as a
    map Lyndon word -> integer, by Lyndon rewriting.

    For Lyndon words ``u < v`` the word ``uv`` is Lyndon, and its standard
    factorization is ``(u, v)`` when ``u`` is a letter or ``u``'s right
    standard factor ``u2`` is not smaller than ``v``; then the bracket is
    ``B(uv)``.  Otherwise ``B(u) = [B(u1), B(u2)]`` and the Jacobi identity
    ``[B(u), B(v)] = [B(u1), [B(u2), B(v)]] - [B(u2), [B(u1), B(v)]]``
    leaves brackets of shorter left factors (Reutenauer, *Free Lie
    Algebras*, 1993, section 5.1).  The words are listed in lexicographic
    order, and results are cached for both orders of the pair as they are
    asked for.
    """
    if w1 == w2:
        return {}
    if w1 > w2:
        return {w: -c for w, c in bracket_table(w2, w1).items()}
    if len(w1) > 1:
        u1, u2 = standard_factorization(w1)
        if u2 < w2:
            out = {}
            for inner, outer, sign in ((u2, u1, 1), (u1, u2, -1)):
                for w, c in bracket_table(inner, w2).items():
                    for ww, cc in bracket_table(outer, w).items():
                        out[ww] = out.get(ww, 0) + sign * c * cc
            return {w: out[w] for w in sorted(out) if out[w]}
    return {w1 + w2: 1}


def clear_caches():
    """Empty all eight caches in place: the basis expansions, structure
    constants, divergence rows, ``bch_xy`` series and their Duflo
    patterns here, and the necklaces, the Duval passes and the standard
    factorizations of :mod:`kvtower.words`; the next use refills them."""
    for table in (_EXPANSION, _BRACKET, _DIVERGENCE, _BCH_XY, _BCH_PATTERNS):
        table.clear()
    for cached in (_necklace, _duval, standard_factorization):
        cached.cache_clear()


class LieElt(SparseElt):
    """Element of the free Lie algebra truncated at degree ``cap``, in the
    shared sparse form keyed by Lyndon words."""

    __slots__ = ()

    def __init__(self, cap, coeffs=None):
        SparseElt.__init__(self, cap, coeffs)
        for w in coeffs or ():
            if not is_lyndon(w):
                raise ValueError(f"not a Lyndon word: {w!r}")

    # Bound on the class itself so that per-class tracing can wrap it.
    __add__ = SparseElt.__add__

    @classmethod
    def basis(cls, word, cap):
        return cls(cap, {word: 1})

    @classmethod
    def gen_x(cls, cap):
        return cls(cap, {"x": 1})

    @classmethod
    def gen_y(cls, cap):
        return cls(cap, {"y": 1})


def lie_bracket(u, v):
    """Lie bracket ``[u, v]`` truncated at the common cap."""
    out = {}
    for w1, w2, c in _products(u, v):
        for w, k in bracket_table(w1, w2).items():
            out[w] = out.get(w, 0) + c * k
    return LieElt._from_ints(u.cap, out, u.den * v.den)


def lie_to_assoc(u):
    """View a Lie element inside the associative algebra by expanding all
    brackets as commutators."""
    terms = [(c, basis_expansion(w), u.den) for w, c in u.nums.items()]
    return _combine(AssocElt, u.cap, terms)


def lie_from_assoc(a):
    """Inverse of :func:`lie_to_assoc` on its image.

    Works degree by degree, eliminating against the leading words of the
    Lyndon basis expansions.  Raises :class:`NotPrimitive` with the
    offending residual when ``a`` is not the expansion of a Lie element.
    """
    if a.constant_term() != 0:
        raise NotPrimitive(
            "nonzero constant term", AssocElt(a.cap, {"": a.constant_term()})
        )
    out, bad = _lyndon_coords(a.nums)
    if bad:
        residual = AssocElt._from_ints(a.cap, bad, a.den)
        raise NotPrimitive(f"not primitive; residual {residual.coeffs}", residual)
    return LieElt._from_ints(a.cap, out, a.den)


def _bernoulli_weights(n):
    """``B_m / m!`` for the even ``m`` with ``2 <= m <= n``, keyed by ``m``;
    ``B_m`` are the Bernoulli numbers, from ``sum_k C(m+1, k) B_k = 0``."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return {m: b[m] / factorial(m) for m in range(2, n + 1, 2)}


def bch(u, v):
    """Baker-Campbell-Hausdorff product ``log(e^u e^v)`` at the cap.

    Computed with brackets alone by the Varadarajan recursion on the part
    ``Z_n`` of formal degree ``n`` in ``u`` and ``v``::

        Z_1 = u + v
        (n+1) Z_{n+1} = 1/2 [u - v, Z_n] + sum_{2 <= 2p <= n} B_2p/(2p)! A_{2p,n}

    where ``A_{m,s}`` sums ``[Z_k1, [Z_k2, ..., [Z_km, u + v]...]]`` over
    the compositions ``k1 + ... + km = s``.  Every term of ``u`` and ``v``
    has degree at least one, so ``Z_n`` starts in degree ``n`` and the
    recursion is exact when it stops at ``n = cap``.
    """
    _require_same_cap(u, v)
    cap = u.cap
    zero = LieElt.zero(cap)
    s = u + v
    half_diff = Fraction(1, 2) * (u - v)
    weights = _bernoulli_weights(cap - 1)
    z = [None, s]
    # nested[t][m] is A_{m,t}; A_{0,0} = u + v and A_{0,t} = 0 for t > 0.
    nested = [[s]]
    out = s
    for n in range(1, cap):
        row = [zero]
        for m in range(1, n + 1):
            acc = zero
            for k in range(1, n - m + 2):
                acc = acc + lie_bracket(z[k], nested[n - k][m - 1])
            row.append(acc)
        nested.append(row)
        acc = lie_bracket(half_diff, z[n])
        for m in range(2, n + 1, 2):
            acc = acc + weights[m] * row[m]
        z.append(Fraction(1, n + 1) * acc)
        out = out + z[n + 1]
    return out


@_memo(_BCH_XY)
def bch_xy(cap):
    """The series ``bch(x, y)`` at the given cap (cached)."""
    return bch(LieElt.gen_x(cap), LieElt.gen_y(cap))
