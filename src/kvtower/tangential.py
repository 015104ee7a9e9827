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
below the cap, so ``taut_log`` matches the exponential series
``sum_m A^m(gen)/m!`` of the unknown derivation to the automorphism's
conjugation action on the generators one degree above the cap, read off
the conjugation series (:func:`_conjugation_images`), one bracket per
power.  One matcher does it, solving ``[gen, a] = r`` degree by degree
with one triangular sweep over the Lyndon basis; its one entry takes the
automorphism and builds those targets itself.  ``A`` is the sum of one
derivation per degree, so the matcher builds each degree's map once and
keeps the homogeneous parts of the powers ``A^m(gen)`` in a table that
grows by one degree per step.  Everything it keeps is homogeneous, so it
works at one fixed cap and resumes on its own: the degree-``k`` piece
reads the exponents up to degree ``k`` only, so the matcher keeps the
exponents of its last call and re-solves from the first degree where
they changed.

``taut_exp`` goes through the log too.  Exponent terms of degree ``k``
enter the degree-``k`` part of the log as themselves, so it sets the
exponents one degree at a time, each the derivation's part minus that of
the log of the exponents below it, which one log matcher re-solves from
the degree that the last step set.  ``taut_log`` runs a fresh matcher;
an extension in :mod:`kvtower.kv` carries one log up the tower through
one matcher, which solves it for the input's check and again once per
step, keeping what the step left unchanged.

There is one engine, the derivation's.  It applies a derivation to Lie
elements by the Leibniz rule, whose image of a Lyndon word is summed in
one pass from the structure constants of its factors' images with the
factors; it gives an image as the integer terms of its word images too,
so that the matcher sums each entry of its table once.  A derivation
``u`` reaches cyclic words only through ``d = u1 - u2``: under the trace
it inserts ``d`` at each change from x to y and ``-d`` at each change
from y to x (:func:`_cyc_action`), and its divergence is the sum of the
x rows of ``d``'s basis words (:func:`divergence`).  ``d`` is expanded
into words once, so :func:`jacobian` pays for it once for its whole
series.  An automorphism ``F = exp(w)`` acts through its log, on Lie
elements (:func:`_exp_action`) and on cyclic words alike, as the
exponential series ``sum_m w^m/m!`` of the derivation's action, and
:func:`jacobian` sums its series ``sum_k w^k(j(w))/(k+1)!`` through the
same helper, shifted by one.  The log of a conjugate
``exp(w)^-1 o exp(u) o exp(w)`` is the series ``sum_k ad^k(u)/k!`` with
``ad(v) = [v, w]`` (:func:`_conjugate_log`), so a transport through an
automorphism needs its log only, and :func:`group_commutator` needs the
logs of its two inputs only.  The engine and the cyclic action sum the
stored integer numerators of their inputs and images, as
:mod:`kvtower.sparse` describes.
"""

import math

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


class _DerEngine:
    """Applies one tangential derivation by the Leibniz rule.  The images
    of the generators are ``[x, u1]`` and ``[y, u2]``; the image of a
    longer Lyndon word is built by ``_from_factors`` from those of its
    standard factors, and memoized."""

    def __init__(self, u):
        self.cap = u.cap
        self._images = {
            "x": lie_bracket(LieElt.gen_x(u.cap), u.u1),
            "y": lie_bracket(LieElt.gen_y(u.cap), u.u2),
        }

    def _image(self, word):
        img = self._images.get(word)
        if img is None:
            img = self._images[word] = self._from_factors(*standard_factorization(word))
        return img

    def terms(self, w):
        """The image of ``w`` as :func:`~kvtower.sparse._combine` terms: the
        integer row of each of its terms' images, over ``w.den`` times the
        image's denominator."""
        images = [(c, self._image(word)) for word, c in w.nums.items()]
        return [(c, img.nums, w.den * img.den) for c, img in images]

    def apply(self, w):
        """The image of ``w``: its :meth:`terms` summed over the lcm of
        their denominators."""
        return _combine(LieElt, self.cap, self.terms(w))

    def _from_factors(self, p, q):
        """``[D(p), B(q)] - [D(q), B(p)]`` in one pass: each image term is
        bracketed with the other factor through :func:`bracket_table`,
        over the lcm of the two images' denominators."""
        ip, iq = self._image(p), self._image(q)
        den = math.lcm(ip.den, iq.den)
        out = {}
        for img, other, sign in ((ip, q, 1), (iq, p, -1)):
            scale = sign * (den // img.den)
            room = self.cap - len(other)
            for w, n in img.nums.items():
                if len(w) <= room:
                    n *= scale
                    for ww, c in bracket_table(w, other).items():
                        out[ww] = out.get(ww, 0) + n * c
        return LieElt._from_ints(self.cap, out, den)


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
    basis element's trace is a cached row of :mod:`kvtower.lie`.  Above
    degree one a basis element's y row is its negated x row, and degree-one
    terms have empty rows, so the divergence is the sum of the x rows of
    ``d = u1 - u2`` from degree two, by :func:`~kvtower.sparse._combine`.
    """
    d = u.u1 - u.u2
    terms = [(n, _divergence_row(w), d.den) for w, n in d.nums.items() if len(w) > 1]
    return _combine(CycElt, u.cap, terms)


def _cyc_action(u):
    """The action of ``u`` on cyclic words, as a function of one
    :class:`CycElt` at ``u``'s cap.

    A letter's image ``[x, u1] = x u1 - u1 x`` puts ``u1`` once after the
    letter and once, negated, before it.  Under the trace each gap between
    two cyclically adjacent letters gets the insert after the first letter
    and the negated insert before the second, so a gap between equal
    letters gets nothing, a gap from x to y gets ``d = u1 - u2``, and one
    from y to x gets ``-d``.  ``d`` is expanded into words once, up to
    degree ``cap - 2``, the most that fits beside a word that has a gap
    with a letter change, and sorted by length, so each gap stops at the
    first word that does not fit under the cap.  A trace does not change
    under rotation, so each word is rotated to begin just after its gap
    and the insert is prepended.  The action sums integer numerators and
    rotates the sums to necklaces at the end, by the necklace sum of
    :mod:`kvtower.words` that :func:`~kvtower.cyclic.trace` also uses.
    """
    cap = u.cap
    d = u.u1 - u.u2
    low = {w: n for w, n in d.nums.items() if len(w) <= cap - 2}
    expanded = lie_to_assoc(LieElt._from_ints(cap, low, d.den))
    inserts = sorted(expanded.nums.items(), key=lambda t: len(t[0]))

    def act(c):
        out = {}
        for word, coeff in c.nums.items():
            room = cap - len(word)
            for i, letter in enumerate(word):
                if letter == word[i - 1]:
                    continue
                # The gap before position i, from word[i - 1] to letter.
                n = -coeff if letter == "x" else coeff
                rest = word[i:] + word[:i]
                for w, k in inserts:
                    if len(w) > room:
                        break
                    key = w + rest
                    out[key] = out.get(key, 0) + n * k
        return CycElt._from_ints(cap, _necklace_sums(out.items()), c.den * expanded.den)

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


def _exp_action(w):
    """The action of the automorphism ``exp(w)`` on Lie elements, as a
    function: the exponential series of the derivation ``w``, through one
    engine."""
    apply = _DerEngine(w).apply
    return lambda v: _exp_series(v, apply)


def taut_apply(F, w):
    """Apply the automorphism to a Lie element, through its log."""
    _require_same_cap(F, w)
    return _exp_action(taut_log(F))(w)


def taut_compose(F, G):
    """Composition ``(F o G)(w) = F(G(w))``; exponents are
    ``bch(f_i, F(g_i))``, both images through one log of ``F``."""
    _require_same_cap(F, G)
    return _compose(F, G, taut_log(F))


def _compose(F, G, w):
    """:func:`taut_compose` with ``w = log F`` given."""
    act = _exp_action(w)
    return TAutElt(bch(F.f1, act(G.f1)), bch(F.f2, act(G.f2)))


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


class _GeneratorMatcher:
    """Solves for the normalized derivation ``(p1, p2)`` whose exponential
    series ``g + A(g) + A^2(g)/2! + ...`` on each generator ``g`` equals
    the conjugation series of an automorphism, degree by degree, and keeps
    what it solved, so that a later call re-solves only from the first
    degree whose exponents changed.

    ``A`` is the sum over ``j`` of the derivation ``A_j`` made of the
    degree-``j`` pieces ``(a1, a2)``, which raises degree by ``j``; one
    engine applies it to the images of both generators and returns the
    terms of an image, integer rows for :func:`~kvtower.sparse._combine`,
    not the image itself.  For each generator ``g`` the table
    ``P[m][d]``, the degree-``d`` part of ``A^m(g)``, is the sum over
    ``j`` of ``A_j(P[m - 1][d - j])``; for ``m >= 2`` it needs only pieces
    below degree ``d - 1``, so the engine of ``A_j`` is built when level
    ``j + 2`` first reads it, and only if the piece is not zero.  At
    degree ``k`` the defect ``target_{k+1} - sum_{m >= 2} P[m][k + 1] /
    m!`` is what ``P[1][k + 1] = [g, p_k]`` must be, so one
    generator-bracket sweep per slot reads ``p_k`` off it.  Each table
    entry (the terms of all its maps at once) and each defect is one
    :func:`~kvtower.sparse._combine`.

    Everything kept is homogeneous, so the matcher works at one fixed cap,
    one above the highest it is built for.  A normalized exponent term of
    degree ``e`` first reaches the targets at degree ``e + 1``, as ``[g,
    f_e]``, and ``p_k`` reads them up to degree ``k + 1``.  So the matcher
    keeps the exponents of its last call and re-solves from the first
    degree ``k`` where they differ, or else from the first degree not yet
    solved, keeping the pieces and maps below ``k`` and level ``k + 1``
    but for its defect: its other entries read pieces below ``k`` only.
    """

    def __init__(self, cap):
        self.work = cap + 1
        self.exponents = [LieElt.zero(self.work)] * 2
        # pieces[k - 1] is p_k, by generator; steps[j - 1] is the terms of
        # A_j, or None for a zero piece.
        self.pieces, self.steps = [], []
        # powers[d][g] maps m to P[m][d]; zero entries are left out.
        self.powers = [None, None]

    def solve(self, F):
        """``log F``, for ``F`` at a cap no higher than the matcher's."""
        f = [p.with_cap(self.work) for p in F._parts()]
        changed = valuation(TDer(*(a - b for a, b in zip(f, self.exponents))))
        start = min(changed, len(self.pieces) + 1, F.cap + 1)
        self.exponents = f
        del self.pieces[start - 1 :]
        del self.steps[start - 1 :]
        del self.powers[start + 2 :]
        targets = _conjugation_images(F.f1.with_cap(F.cap + 1), F.f2.with_cap(F.cap + 1))
        for k in range(start, F.cap + 1):
            d = k + 1
            if d == len(self.powers):
                if k > 1:
                    x, y = self.pieces[k - 2]
                    self.steps.append(_DerEngine(TDer(x, y)).terms if x.nums or y.nums else None)
                self.powers.append({g: self._level(g, d) for g in targets})
            piece = []
            for g, target in targets.items():
                entries = self.powers[d][g]
                entries.pop(1, None)
                part = {w: n for w, n in target.nums.items() if len(w) == d}
                terms = [(1, part, target.den)]
                terms += [(-1, e.nums, e.den * math.factorial(m)) for m, e in entries.items()]
                defect = _combine(LieElt, self.work, terms)
                piece.append(_solve_generator_bracket(g, k, defect))
                if defect.nums:
                    # The sweep leaves no residual, so [g, p_k] is the defect.
                    entries[1] = defect
            self.pieces.append(piece)
        return TDer(*(_combine(LieElt, F.cap, [(1, p.nums, p.den) for p in ps])
                      for ps in zip(*self.pieces)))

    def _level(self, g, d):
        """The entries ``P[m][d]`` of ``g`` with ``m >= 2``."""
        entries = {}
        for m in range(2, d):
            rows = [
                row
                for j, step in enumerate(self.steps, 1)
                if step and m - 1 in self.powers[d - j][g]
                for row in step(self.powers[d - j][g][m - 1])
            ]
            if rows:
                entry = _combine(LieElt, self.work, rows)
                if entry.nums:
                    entries[m] = entry
        return entries


def _conjugation_images(f1, f2):
    """The conjugation series ``g + [g, f] + [[g, f], f]/2! + ...`` of each
    generator ``g`` by its exponent ``f``, the targets of
    :func:`taut_log`; each power is one :func:`lie_bracket`."""

    def series(g, f):
        return _exp_series(LieElt.basis(g, f.cap), lambda t: lie_bracket(t, f))

    return {"x": series("x", f1), "y": series("y", f2)}


def taut_exp(u):
    """Exponential of a tangential derivation, as an automorphism, set one
    degree at a time through the log.  The exponents of degree ``k`` enter
    the degree-``k`` part of the log as themselves, so ``f_k = u_k - w_k``,
    where ``w`` is the log of the exponents below degree ``k``.  One log
    matcher solves ``w`` at each degree, re-solving from the degree that
    the last step set."""
    log = _GeneratorMatcher(u.cap)
    f = [p.homogeneous_part(1) for p in u._parts()]  # degree one is u's own
    for k in range(2, u.cap + 1):
        w = log.solve(TAutElt(*(p.truncate(k) for p in f)))
        f = [p + q.homogeneous_part(k) - r.homogeneous_part(k).with_cap(u.cap)
             for p, q, r in zip(f, u._parts(), w._parts())]
    return TAutElt(*f)


def taut_log(F):
    """Inverse of :func:`taut_exp`: the normalized derivation whose
    exponential series acts on the generators as ``F`` does."""
    return _GeneratorMatcher(F.cap).solve(F)


def jacobian(F):
    """The group cocycle integrating the divergence:
    ``J(e^w) = sum_k w^k (j(w)) / (k+1)!`` with ``w = log F`` acting on
    cyclic words."""
    return _log_jacobian(taut_log(F))


def _log_jacobian(w):
    """:func:`jacobian` of ``exp(w)``, from its log ``w``."""
    return _exp_series(divergence(w), _cyc_action(w), shift=1)


def _conjugate_log(u, w):
    """``log(exp(w)^{-1} o exp(u) o exp(w))``, the series ``sum_k
    ad^k(u)/k!`` with ``ad(v) = [v, w]``, for ``u`` and ``w`` at one cap."""
    return _exp_series(u, lambda v: tder_bracket(v, w))


def group_commutator(F, G):
    """``F^{-1} o G^{-1} o F o G``, from the logs ``w`` of ``F`` and ``v``
    of ``G``: ``exp(-w)`` composed with ``G^{-1} o F o G``, the
    exponential of the conjugate of ``w`` by ``v``."""
    _require_same_cap(F, G)
    w, v = taut_log(F), taut_log(G)
    return _compose(taut_exp(-w), taut_exp(_conjugate_log(w, v)), -w)


def valuation(F):
    """Lowest degree with a nonzero term in either part: the exponents of
    an automorphism or the slots of a derivation; ``math.inf`` for the
    identity or zero at this cap."""
    degs = [d for d in (p.min_degree() for p in F._parts()) if d]
    return min(degs) if degs else math.inf
