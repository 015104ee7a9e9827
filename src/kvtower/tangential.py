"""Tangential derivations and tangential automorphisms.

A tangential derivation is a pair ``u = (u1, u2)`` of Lie elements acting
by ``x -> [x, u1]``, ``y -> [y, u2]``; the pair is kept in the canonical
normalized form (no ``x`` term in ``u1``, no ``y`` term in ``u2``), which
fixes the representative modulo the kernel of pairs -> derivations.

A tangential automorphism is stored by its normalized exponent pair
``F = (e^{f1}, e^{f2})``, acting by ``x -> e^{-f1} x e^{f1}`` and
``y -> e^{-f2} y e^{f2}``.  Composition, exponential and logarithm are
computed degree by degree in exact arithmetic, and the inverse is the
exponential of the negated log.  Both pair types take equality, hashing,
truncation and zero extension from one base, ``_Pair``, and keep their
own normalization.

The action of an automorphism on the generators only sees exponent terms
below the cap, so both directions between a derivation and its
exponential match actions on the generators one degree above the cap.
One matcher does both, solving ``[gen, a] = r`` degree by degree with one
triangular sweep over the Lyndon basis: ``taut_exp`` matches conjugation
by the unknown exponents to the derivation's exponential series, and
``taut_log`` matches the exponential series of the unknown derivation to
the automorphism's conjugation action.  Either series is
``sum_m A^m(gen)/m!``; :func:`_series_images` sums it for a whole pair,
for the targets and for an automorphism's engine.  For the unknown pair
``A`` is the sum of one map per degree, so the matcher builds each
degree's map once, when that degree is solved, and keeps the homogeneous
parts of the powers ``A^m(gen)`` in a table that grows by one degree per
step.

A derivation acts on cyclic words letter by letter through its generator
images, expanded into words once and scaled to one shared denominator, so
:func:`jacobian` pays for them once for its whole series.  An automorphism
acts on cyclic words through its log, as the exponential series of that
action, and :func:`jacobian` sums its series ``sum_k w^k(j(w))/(k+1)!``
through the same helper, shifted by one.  The engines and the cyclic
action sum the stored integer numerators of their inputs and images, as
:mod:`kvtower.sparse` describes.
"""

import math
from fractions import Fraction

from .cyclic import CycElt
from .errors import InconsistentSystem
from .lie import LieElt, _divergence_row, bch, bracket_table, lie_bracket, lie_to_assoc
from .sparse import _combine, _exp_series, _require_same_cap
from .words import _necklace_sums, is_lyndon, lyndon_words, standard_factorization


class _Pair:
    """Equality, hashing and cap changes of a pair of Lie elements, read
    through ``_parts()``; a pair with changed parts is rebuilt through the
    subclass constructor, which normalizes it again."""

    __slots__ = ()

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.cap == other.cap
            and self._parts() == other._parts()
        )

    def __hash__(self):
        return hash((self.cap, *self._parts()))

    def truncate(self, n):
        return type(self)(*(p.truncate(n) for p in self._parts()))

    def with_cap(self, n):
        return type(self)(*(p.with_cap(n) for p in self._parts()))


class TDer(_Pair):
    """Tangential derivation, normalized pair of Lie elements."""

    __slots__ = ("cap", "u1", "u2")

    def __init__(self, u1, u2):
        _require_same_cap(u1, u2)
        self.cap = u1.cap
        n1 = {w: n for w, n in u1.nums.items() if w != "x"}
        n2 = {w: n for w, n in u2.nums.items() if w != "y"}
        self.u1 = LieElt._from_ints(self.cap, n1, u1.den)
        self.u2 = LieElt._from_ints(self.cap, n2, u2.den)

    def _parts(self):
        return self.u1, self.u2

    @classmethod
    def zero(cls, cap):
        return cls(LieElt.zero(cap), LieElt.zero(cap))

    def is_zero(self):
        return self.u1.is_zero() and self.u2.is_zero()

    def __add__(self, other):
        return TDer(self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other):
        return TDer(self.u1 - other.u1, self.u2 - other.u2)

    def __neg__(self):
        return TDer(-self.u1, -self.u2)

    def __rmul__(self, scalar):
        return TDer(scalar * self.u1, scalar * self.u2)

    def homogeneous_part(self, d):
        return TDer(self.u1.homogeneous_part(d), self.u2.homogeneous_part(d))

    def __repr__(self):
        return f"TDer({self.u1!r}, {self.u2!r})"


class _Engine:
    """A linear map on Lie elements, given by the generator images in
    ``_images``; the image of a longer Lyndon word is built by
    ``_from_factors`` from those of its standard factors, and memoized."""

    def __init__(self, cap, images):
        self.cap = cap
        self._images = images

    def _image(self, word):
        img = self._images.get(word)
        if img is None:
            img = self._images[word] = self._from_factors(*standard_factorization(word))
        return img

    def apply(self, w):
        """The image of ``w``: the integer rows of its terms' images,
        each over ``w.den`` times the image's denominator, summed by
        :func:`~kvtower.sparse._combine` over the lcm of those."""
        images = [(c, self._image(word)) for word, c in w.nums.items()]
        return _combine(LieElt, self.cap, [(c, img.nums, w.den * img.den) for c, img in images])


class _DerEngine(_Engine):
    """Applies one tangential derivation by the Leibniz rule."""

    def __init__(self, u):
        super().__init__(u.cap, {
            "x": lie_bracket(LieElt.gen_x(u.cap), u.u1),
            "y": lie_bracket(LieElt.gen_y(u.cap), u.u2),
        })

    def _from_factors(self, p, q):
        bp = LieElt.basis(p, self.cap)
        bq = LieElt.basis(q, self.cap)
        return lie_bracket(self._image(p), bq) + lie_bracket(bp, self._image(q))


def tder_apply(u, w):
    """Apply the derivation ``u`` to a Lie element by the Leibniz rule."""
    _require_same_cap(u, w)
    return _DerEngine(u).apply(w)


def tder_bracket(u, v):
    """Derivation commutator; again tangential, as the pair
    ``(u(v1) - v(u1) + [u1,v1], u(v2) - v(u2) + [u2,v2])``."""
    _require_same_cap(u, v)
    ue = _DerEngine(u)
    ve = _DerEngine(v)
    w1 = ue.apply(v.u1) - ve.apply(u.u1) + lie_bracket(u.u1, v.u1)
    w2 = ue.apply(v.u2) - ve.apply(u.u2) + lie_bracket(u.u2, v.u2)
    return TDer(w1, w2)


def divergence(u):
    """The divergence cocycle: ``tr(d_x(u1) x + d_y(u2) y)`` on the
    normalized representative.

    ``d_x(u1) x`` is just the part of ``u1`` whose words end in x, so the
    divergence is linear in the basis elements of each slot, and each
    basis element's trace is a cached row of :mod:`kvtower.lie`.  The rows
    are summed by :func:`~kvtower.sparse._combine`, over the lcm of the
    two slots' denominators.
    """
    terms = [
        (n, _divergence_row(letter, w), part.den)
        for letter, part in (("x", u.u1), ("y", u.u2))
        for w, n in part.nums.items()
    ]
    return _combine(CycElt, u.cap, terms)


def _cyc_action(u):
    """The action of ``u`` on cyclic words, as a function of one
    :class:`CycElt` at ``u``'s cap: act letter by letter on any
    representative, then re-trace.

    The two generator images are expanded into words once, scaled to
    one shared denominator and sorted by length, so each letter stops at
    the first image word that does not fit under the cap.  A trace does
    not change under rotation, so each word is rotated to put the
    acted-on letter first and the image is prepended to the rest.  The
    action sums integer numerators and rotates the sums to necklaces at
    the end, by the necklace sum of :mod:`kvtower.words` that
    :func:`~kvtower.cyclic.trace` also uses.
    """
    cap = u.cap
    expanded = {g: lie_to_assoc(img) for g, img in _DerEngine(u)._images.items()}
    common = math.lcm(*(a.den for a in expanded.values()))
    images = {
        g: sorted(((w, k * (common // a.den)) for w, k in a.nums.items()), key=lambda t: len(t[0]))
        for g, a in expanded.items()
    }

    def act(c):
        out = {}
        for word, coeff in c.nums.items():
            room = cap + 1 - len(word)
            for i, letter in enumerate(word):
                rest = word[i + 1 :] + word[:i]
                for w, k in images[letter]:
                    if len(w) > room:
                        break
                    key = w + rest
                    out[key] = out.get(key, 0) + coeff * k
        return CycElt._from_ints(cap, _necklace_sums(out.items()), c.den * common)

    return act


def cyc_tder_act(u, c):
    """Derivation action on cyclic words."""
    _require_same_cap(u, c)
    return _cyc_action(u)(c)


def cyc_taut_act(F, c):
    """Automorphism action on cyclic words: ``F = exp(w)`` acts as the
    exponential series of the derivation ``w = log F``."""
    _require_same_cap(F, c)
    return _exp_series(c, _cyc_action(taut_log(F)))


class TAutElt(_Pair):
    """Tangential automorphism as a normalized exponent pair.  Truncation
    drops exponent terms above degree ``n``; it is the projection onto the
    degree-``n`` quotient group."""

    __slots__ = ("cap", "f1", "f2")

    def __init__(self, f1, f2):
        _require_same_cap(f1, f2)
        self.cap = f1.cap
        c = f1.coeff("x")
        if c != 0:
            f1 = bch(LieElt(self.cap, {"x": -c}), f1)
        c = f2.coeff("y")
        if c != 0:
            f2 = bch(LieElt(self.cap, {"y": -c}), f2)
        self.f1 = f1
        self.f2 = f2

    def _parts(self):
        return self.f1, self.f2

    @classmethod
    def identity(cls, cap):
        return cls(LieElt.zero(cap), LieElt.zero(cap))

    def is_identity(self):
        return self.f1.is_zero() and self.f2.is_zero()

    def __repr__(self):
        return f"TAutElt(e^({self.f1!r}), e^({self.f2!r}))"


class _AutEngine(_Engine):
    """Applies one tangential automorphism, for :func:`taut_apply` and
    :func:`taut_compose`.

    Images of the generators are the conjugation series
    ``x + [x, f1] + [[x, f1], f1]/2 + ...``; images of longer Lyndon
    words follow from the standard factorization since the map is a Lie
    homomorphism.
    """

    def __init__(self, F):
        super().__init__(F.cap, _series_images(_conj_maps, F.f1, F.f2))

    def _from_factors(self, p, q):
        return lie_bracket(self._image(p), self._image(q))


def taut_apply(F, w):
    """Apply the automorphism to a Lie element."""
    _require_same_cap(F, w)
    return _AutEngine(F).apply(w)


def taut_compose(F, G):
    """Composition ``(F o G)(w) = F(G(w))``; exponents are
    ``bch(f_i, F(g_i))``."""
    _require_same_cap(F, G)
    eng = _AutEngine(F)
    return TAutElt(bch(F.f1, eng.apply(G.f1)), bch(F.f2, eng.apply(G.f2)))


def taut_inverse(F):
    """Group inverse: ``exp(-w)`` inverts ``exp(w)`` in the degree-``cap``
    quotient group, so it is the exponential of the negated log."""
    return taut_exp(-taut_log(F))


def _solve_generator_bracket(letter, k, rhs):
    """Solve ``[gen, a] = rhs`` for normalized homogeneous ``a`` of
    degree ``k``.

    In the Lyndon basis ``[x, B(w)]`` has least word ``xw`` with
    coefficient one and ``[y, B(w)]`` has least word ``wy`` with
    coefficient minus one, so one sweep over the degree-(k+1) Lyndon words
    in lexicographic order solves the triangular system, as in
    :func:`~kvtower.lie._lyndon_coords`.  ``xx`` and ``yy`` are not
    Lyndon, so the generator itself never enters ``a``.
    """
    residual = dict(rhs.nums)
    a = {}
    for z in lyndon_words(k + 1):
        c = residual.get(z, 0)
        if c == 0:
            continue
        w, c = (z[1:], c) if letter == "x" else (z[:-1], -c)
        if not is_lyndon(w):
            raise InconsistentSystem(f"generator-bracket system inconsistent at {z}")
        a[w] = c
        for ww, cc in bracket_table(letter, w).items():
            residual[ww] = residual.get(ww, 0) - c * cc
    if any(residual.values()):
        raise InconsistentSystem("generator-bracket system leaves a residual")
    return LieElt._from_ints(rhs.cap, a, rhs.den)


def _match_generator_actions(targets, cap, maps):
    """The normalized pair ``(p1, p2)`` at ``cap`` whose generator images
    ``A^0(g) + A(g) + A^2(g)/2! + ...`` equal ``targets``, given one degree
    above the cap so that the top degree of the pair is pinned.

    The linear map ``A`` is the sum over ``j`` of the part ``A_j`` built
    from the degree-``j`` pieces ``a1, a2`` of the pair, which raises
    degree by ``j``; ``maps(a1, a2)`` returns it as a dict generator ->
    map, since the map that acts on the images of ``x`` need not be the
    one that acts on those of ``y``.  For each generator ``g`` the table
    ``P[m][d]``, the degree-``d`` part of ``A^m(g)``, is the sum over ``j``
    of ``A_j(P[m - 1][d - j])``; for ``m >= 2`` it needs only pieces below
    degree ``d - 1``.  At degree ``k`` the defect ``target_{k+1} - sum_{m
    >= 2} P[m][k + 1] / m!`` is what ``P[1][k + 1] = [g, p_k]`` must be, so
    one generator-bracket sweep per slot reads ``p_k`` off it, and then
    ``maps`` is called once for degree ``k``.  Every table entry is
    computed once, and no map is built for the top degree, which no entry
    up to ``cap + 1`` needs.
    """
    work = cap + 1
    found = {g: {} for g in targets}
    # powers[g][m] maps a degree d to P[m][d]; zero entries are left out.
    powers = {g: [{1: LieElt.basis(g, work)}] + [{} for _ in range(cap)] for g in targets}
    steps = {}
    for k in range(1, cap + 1):
        d = k + 1
        piece = {}
        for g, target in targets.items():
            table = powers[g]
            defect = target.homogeneous_part(d)
            for m in range(2, d):
                entry = LieElt.zero(work)
                for j, step in steps.items():
                    source = table[m - 1].get(d - j)
                    if source is not None:
                        entry = entry + step[g](source)
                if not entry.is_zero():
                    table[m][d] = entry
                    defect = defect - Fraction(1, math.factorial(m)) * entry
            piece[g] = LieElt.zero(work)
            if not defect.is_zero():
                piece[g] = _solve_generator_bracket(g, k, defect)
                found[g].update(piece[g].coeffs)
                # The sweep leaves no residual, so [g, p_k] is the defect.
                table[1][d] = defect
        # The top degree's maps would only feed entries above the cap + 1.
        if k < cap and not (piece["x"].is_zero() and piece["y"].is_zero()):
            steps[k] = maps(piece["x"], piece["y"])
    return LieElt(cap, found["x"]), LieElt(cap, found["y"])


def _der_maps(a1, a2):
    """The derivation ``(a1, a2)``, one engine for both generators."""
    apply = _DerEngine(TDer(a1, a2)).apply
    return {"x": apply, "y": apply}


def _conj_maps(a1, a2):
    """Conjugation by the exponent pieces: ``t -> [t, a1]`` for ``x`` and
    ``t -> [t, a2]`` for ``y``."""
    return {"x": lambda t: lie_bracket(t, a1), "y": lambda t: lie_bracket(t, a2)}


def _series_images(maps, p1, p2):
    """The generator images ``g + A(g) + A^2(g)/2! + ...`` for the maps
    ``A`` of ``maps(p1, p2)``: :func:`_der_maps` or :func:`_conj_maps`."""
    return {g: _exp_series(LieElt.basis(g, p1.cap), step) for g, step in maps(p1, p2).items()}


def taut_exp(u):
    """Exponential of a tangential derivation, as an automorphism: the
    exponents whose conjugation action on the generators is the
    exponential series of ``u``."""
    work = u.cap + 1
    targets = _series_images(_der_maps, u.u1.with_cap(work), u.u2.with_cap(work))
    return TAutElt(*_match_generator_actions(targets, u.cap, _conj_maps))


def taut_log(F):
    """Inverse of :func:`taut_exp`: the normalized derivation whose
    exponential series acts on the generators as ``F`` does."""
    work = F.cap + 1
    targets = _series_images(_conj_maps, F.f1.with_cap(work), F.f2.with_cap(work))
    return TDer(*_match_generator_actions(targets, F.cap, _der_maps))


def jacobian(F):
    """The group cocycle integrating the divergence:
    ``J(e^w) = sum_k w^k (j(w)) / (k+1)!`` with ``w = log F`` acting on
    cyclic words."""
    w = taut_log(F)
    return _exp_series(divergence(w), _cyc_action(w), shift=1)


def group_commutator(F, G):
    """``F^{-1} o G^{-1} o F o G``."""
    _require_same_cap(F, G)
    Fi = taut_inverse(F)
    Gi = taut_inverse(G)
    return taut_compose(taut_compose(taut_compose(Fi, Gi), F), G)


def valuation(F):
    """Lowest degree with a nonzero exponent term; ``math.inf`` for the
    identity at this cap."""
    degs = [d for d in (F.f1.min_degree(), F.f2.min_degree()) if d]
    return min(degs) if degs else math.inf
