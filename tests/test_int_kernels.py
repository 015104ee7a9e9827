"""The integer kernels against the ``Fraction`` loops they replaced.

``lie_bracket``, ``lie_to_assoc``, ``AssocElt.__mul__``, ``_DerEngine.apply``,
``_cyc_action`` and ``trace`` sum integer numerators over one common denominator per operand
and divide once at the end.  The ``_reference_*`` functions are the
coefficient loops they replaced, and ``conftest.reference_apply`` is the
engine's.  ``taut_apply``, the derivation series of ``log F``, is checked
against the conjugation-series images of ``conftest.ConjugationReference``.
The inputs mix denominators (one, small ones and primes near 2^20 and
2^31) with negative numerators, carry degree-one cross terms, include
sums built to cancel to zero, and have products that spill over the cap.
"""

import functools
import math
from fractions import Fraction
from itertools import product

from conftest import ConjugationReference, reference_apply, rng_for
from kvtower.assoc import AssocElt
from kvtower.cyclic import CycElt, trace
from kvtower.lie import LieElt, basis_expansion, bracket_table, lie_bracket, lie_to_assoc
from kvtower.tangential import TAutElt, TDer, _cyc_action, _DerEngine, taut_apply
from kvtower.words import lyndon_words, min_rotation, necklaces

CAPS = range(1, 9)
BIG = 2**40
DENOMINATORS = (1, 2, 3, 1_048_573, 2_147_483_647)


def _reference_lie_bracket(u, v):
    cap = u.cap
    out = {}
    for w1, c1 in u.coeffs.items():
        d1 = len(w1)
        for w2, c2 in v.coeffs.items():
            if d1 + len(w2) > cap:
                continue
            c = c1 * c2
            for w, k in bracket_table(w1, w2).items():
                out[w] = out.get(w, 0) + c * k
    return LieElt(cap, out)


def _reference_lie_to_assoc(u):
    out = {}
    for w, c in u.coeffs.items():
        for ww, k in basis_expansion(w).items():
            out[ww] = out.get(ww, 0) + c * k
    return AssocElt(u.cap, out)


def _reference_mul(a, b):
    cap = a.cap
    out = {}
    for wa, ca in a.coeffs.items():
        for wb, cb in b.coeffs.items():
            if len(wa) + len(wb) <= cap:
                out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return AssocElt(cap, out)


def _reference_trace(a):
    out = {}
    for w, c in a.coeffs.items():
        k = min_rotation(w)
        out[k] = out.get(k, 0) + c
    return CycElt(a.cap, out)


def _reference_cyc_action(u):
    cap = u.cap
    gens = {
        "x": _reference_lie_bracket(LieElt.gen_x(cap), u.u1),
        "y": _reference_lie_bracket(LieElt.gen_y(cap), u.u2),
    }
    images = {
        g: sorted(_reference_lie_to_assoc(img).coeffs.items(), key=lambda wk: len(wk[0]))
        for g, img in gens.items()
    }

    def act(c):
        out = {}
        for word, coeff in c.coeffs.items():
            room = cap + 1 - len(word)
            for i, letter in enumerate(word):
                rest = word[i + 1 :] + word[:i]
                for w, k in images[letter]:
                    if len(w) > room:
                        break
                    key = w + rest
                    out[key] = out.get(key, 0) + coeff * k
        return _reference_trace(AssocElt(cap, out))

    return act


def _coeff(rng, integral):
    num = rng.choice([-1, 1]) * rng.randint(1, 10**6)
    return Fraction(num, 1 if integral else rng.choice(DENOMINATORS))


def _mixed(rng, cls, pool, cap, terms, integral):
    chosen = rng.sample(pool, min(terms, len(pool)))
    return cls(cap, {w: _coeff(rng, integral) for w in chosen})


def _lyndon_pool(cap, top=None):
    return [w for d in range(1, (top or cap) + 1) for w in lyndon_words(d)]


def _mixed_tder(rng, cap, integral, crossed, top=None):
    # Terms up to degree ``top`` (the cap by default); crossed pairs get y
    # in the first slot and x in the second.
    pool = _lyndon_pool(cap, top)
    u1 = _mixed(rng, LieElt, pool, cap, 2, integral)
    u2 = _mixed(rng, LieElt, pool, cap, 2, integral)
    if crossed:
        u1 = u1 + LieElt(cap, {"y": _coeff(rng, integral)})
        u2 = u2 + LieElt(cap, {"x": _coeff(rng, integral)})
    return TDer(u1, u2)


def _assert_clean(elt):
    assert elt.den > 0 and math.gcd(elt.den, *elt.nums.values()) == 1, elt
    assert all(type(n) is int and n != 0 for n in elt.nums.values()), elt
    assert all(type(c) is Fraction and c != 0 for c in elt.coeffs.values()), elt


def _den(elt):
    return elt.den


def test_int_form_takes_the_lcm_and_from_ints_reduces_and_drops_zeros():
    elt = LieElt(3, {"x": Fraction(1, 4), "y": Fraction(-5, 6), "xy": Fraction(3)})
    assert (elt.den, elt.nums) == (12, {"x": 3, "y": -10, "xy": 36})
    elt = LieElt(3, {"x": Fraction(-7), "y": Fraction(2)})
    assert (elt.den, elt.nums) == (1, {"x": -7, "y": 2})
    assert (LieElt(3, {}).den, LieElt(3, {}).nums) == (1, {})
    elt = LieElt._from_ints(3, {"x": 6, "y": 0, "xy": -4}, 4)
    assert elt.coeffs == {"x": Fraction(3, 2), "xy": Fraction(-1)}
    _assert_clean(elt)
    assert LieElt._from_ints(3, {"x": 0}, 7).is_zero()


def test_lie_bracket_and_lie_to_assoc_match_reference():
    rng = rng_for("int-kernels-bracket")
    ones = bigs = spilled = 0
    for cap in CAPS:
        pool = _lyndon_pool(cap)
        for i in range(8):
            integral = i % 4 == 0
            u = _mixed(rng, LieElt, pool, cap, 4, integral)
            v = _mixed(rng, LieElt, pool, cap, 4, integral)
            if i % 3 == 1:
                # The [u, u] part of [u, s*u + v] cancels inside the sums.
                v = _coeff(rng, integral) * u + v
            got = lie_bracket(u, v)
            assert got == _reference_lie_bracket(u, v)
            _assert_clean(got)
            den = _den(u) * _den(v)
            ones += den == 1
            bigs += den > BIG
            spilled += any(len(a) + len(b) > cap for a in u.coeffs for b in v.coeffs)
            for w in (u, v, got):
                assoc = lie_to_assoc(w)
                assert assoc == _reference_lie_to_assoc(w)
                _assert_clean(assoc)
        # Brackets of an element with itself cancel completely.
        u = _mixed(rng, LieElt, pool, cap, 4, False)
        assert lie_bracket(u, u).is_zero()
    assert ones >= 8 and bigs >= 20 and spilled >= 30


def test_lie_to_assoc_cancellation_matches_reference():
    # Two basis elements weighted so that a shared word cancels.
    p, q = "xxxyy", "xxyxy"
    shared = next(w for w in basis_expansion(p) if w in basis_expansion(q))
    s = Fraction(3, 2_147_483_647)
    for cap in (5, 8):
        mix = LieElt(cap, {p: s * basis_expansion(q)[shared], q: -s * basis_expansion(p)[shared]})
        got = lie_to_assoc(mix)
        assert shared not in got.coeffs
        assert got == _reference_lie_to_assoc(mix)
        _assert_clean(got)


def test_assoc_product_matches_reference():
    rng = rng_for("int-kernels-product")
    ones = bigs = spilled = 0
    for cap in CAPS:
        pool = ["".join(p) for d in range(cap + 1) for p in product("xy", repeat=d)]
        for i in range(6):
            integral = i % 3 == 0
            a = _mixed(rng, AssocElt, pool, cap, 5, integral)
            b = _mixed(rng, AssocElt, pool, cap, 5, integral)
            for left, right in ((a, b), (a, a - b), (a + b, a - b)):
                got = left * right
                assert got == _reference_mul(left, right)
                _assert_clean(got)
            den = _den(a) * _den(b)
            ones += den == 1
            bigs += den > BIG
            spilled += any(len(u) + len(v) > cap for u in a.coeffs for v in b.coeffs)
        # (1 + x)(y - xy) = y - xxy: the two xy terms cancel.
        s = Fraction(5, 1_048_573)
        one_x = AssocElt(cap, {"": 1, "x": 1})
        got = one_x * AssocElt(cap, {"y": s, "xy": -s})
        assert got == _reference_mul(one_x, AssocElt(cap, {"y": s, "xy": -s}))
        assert "xy" not in got.coeffs
    assert ones >= 8 and bigs >= 8 and spilled >= 30


def test_trace_matches_reference():
    rng = rng_for("int-kernels-trace")
    ones = bigs = cancelled = 0
    for cap in CAPS:
        pool = ["".join(p) for d in range(cap + 1) for p in product("xy", repeat=d)]
        for i in range(6):
            integral = i % 3 == 0
            a = _mixed(rng, AssocElt, pool, cap, 6, integral)
            # Rotations of one word with opposite coefficients cancel.
            w = rng.choice([w for w in pool if len(w) >= 2] or ["x"])
            c = _coeff(rng, integral)
            a = a + AssocElt(cap, {w: c}) - AssocElt(cap, {w[1:] + w[0]: c})
            got = trace(a)
            assert got == _reference_trace(a)
            _assert_clean(got)
            ones += _den(a) == 1
            bigs += _den(a) > BIG
            cancelled += len(w) >= 2 and min_rotation(w) not in got.coeffs
    assert ones >= 8 and bigs >= 8 and cancelled >= 10


def _engines(rng, cap, i):
    # Each action with the images its reference sums: a derivation's engine
    # holds its own, and an automorphism's are the conjugation-series rule.
    u = _mixed_tder(rng, cap, integral=i % 4 == 0, crossed=i % 2 == 1)
    F = TAutElt(*(_mixed(rng, LieElt, _lyndon_pool(cap, max(1, cap - 1)), cap, 2, i % 4 == 0)
                  for _ in range(2)))
    der = _DerEngine(u)
    return (der.apply, der), (functools.partial(taut_apply, F), ConjugationReference(F))


def test_engine_apply_matches_reference():
    rng = rng_for("int-kernels-engine")
    ones = bigs = mixed = 0
    for cap in CAPS:
        pool = _lyndon_pool(cap)
        for i in range(6):
            for apply, images in _engines(rng, cap, i):
                w = _mixed(rng, LieElt, pool, cap, 5, i % 4 == 0)
                got = apply(w)
                assert got == reference_apply(images, w)
                _assert_clean(got)
                dens = {_den(images._image(word)) for word in w.coeffs}
                ones += dens == {1} and _den(w) == 1
                bigs += max(dens) * _den(w) > BIG
                mixed += len(dens) > 1
    assert ones >= 10 and bigs >= 20 and mixed >= 20


def test_engine_apply_cancellation():
    # u = (s*y, s*x) sends x + y to s([x, y] + [y, x]) = 0.
    for cap in (2, 5, 8):
        s = Fraction(-5, 1_048_573)
        u = TDer(LieElt(cap, {"y": s}), LieElt(cap, {"x": s}))
        eng = _DerEngine(u)
        w = LieElt(cap, {"x": Fraction(1, 3), "y": Fraction(1, 3), "xy": Fraction(7, 2)})
        got = eng.apply(w)
        assert got == reference_apply(eng, w)
        assert set(got.coeffs) <= {"xxy", "xyy"}
        _assert_clean(got)


def test_cyc_action_matches_reference():
    # As in the derivation-action tests: ``u`` up to degree k and ``c`` in
    # degrees 2 to cap + 1 - k, so that results reach the cap and some
    # terms fall one degree above it.
    rng = rng_for("int-kernels-cyc")
    ones = bigs = shared = 0
    for cap in CAPS:
        for i in range(8):
            integral = i % 4 == 0
            k = rng.randint(1, max(1, cap - 1))
            u = _mixed_tder(rng, cap, integral, crossed=i % 2 == 1, top=k)
            pool = [w for d in range(min(2, cap), cap + 2 - k) for w in necklaces(d)]
            c = _mixed(rng, CycElt, pool, cap, 4, integral)
            got = _cyc_action(u)(c)
            assert got == _reference_cyc_action(u)(c)
            _assert_clean(got)
            # The action inserts u1 - u2, which brings the two slots'
            # denominators to one.
            slot_dens = [_den(u.u1), _den(u.u2)]
            ones += slot_dens == [1, 1] and _den(c) == 1 and not got.is_zero()
            bigs += max(slot_dens) * _den(c) > BIG and not got.is_zero()
            shared += slot_dens[0] != slot_dens[1] and not got.is_zero()
    assert ones >= 5 and bigs >= 8 and shared >= 10


def test_cyc_action_cancellation():
    # u = (s*y, s*x) sends xy to s(xyy - yxy + xyx - xxy), which traces to 0.
    for cap in (2, 4, 8):
        s = Fraction(11, 2_147_483_647)
        u = TDer(LieElt(cap, {"y": s}), LieElt(cap, {"x": s}))
        c = CycElt(cap, {"xy": Fraction(-3, 1_048_573)})
        got = _cyc_action(u)(c)
        assert got.is_zero() and _reference_cyc_action(u)(c).is_zero()
