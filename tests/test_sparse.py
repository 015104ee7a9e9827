"""The sparse element base shared by AssocElt, LieElt and CycElt."""

import math
from fractions import Fraction
from itertools import product

from conftest import random_fraction, random_lie, random_taut, random_tder, rng_for
from kvtower.assoc import AssocElt
from kvtower.cyclic import CycElt, trace
from kvtower.errors import CapMismatch
from kvtower.lie import LieElt, basis_expansion, lie_bracket, lie_to_assoc
from kvtower.sparse import _exp_series
from kvtower.tangential import TDer, cyc_tder_act, divergence, jacobian, taut_apply, tder_apply
from kvtower.words import lyndon_words, necklaces

import pytest


def all_words(n):
    """All words of length ``n`` in lexicographic order."""
    return ["".join(letters) for letters in product("xy", repeat=n)]


# Element type, its valid words of one degree, a fixed sample and its repr.
CASES = [
    (
        AssocElt,
        all_words,
        {"": 1, "xy": Fraction(-1, 2), "x": 2},
        "1*1 + 2*x + -1/2*xy",
    ),
    (LieElt, lyndon_words, {"xy": Fraction(1, 2), "x": 1}, "1*x + 1/2*xy"),
    (CycElt, necklaces, {"xxy": 3, "y": Fraction(-2, 3)}, "-2/3*(y) + 3*(xxy)"),
]


def _random_elt(rng, cls, words_of, cap, terms=4):
    pool = [w for d in range(1, cap + 1) for w in words_of(d)]
    chosen = rng.sample(pool, min(terms, len(pool)))
    return cls(cap, {w: random_fraction(rng) for w in chosen})


@pytest.mark.parametrize(
    "cls, words_of, sample, expected_repr", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_shared_sparse_base(cls, words_of, sample, expected_repr):
    rng = rng_for(f"sparse-base-{cls.__name__}")
    cap = 5
    for _ in range(10):
        a, b, c = (_random_elt(rng, cls, words_of, cap) for _ in range(3))
        s, t = random_fraction(rng), random_fraction(rng)
        zero = cls.zero(cap)

        # Additive inverse, associativity, scalar distributivity.
        assert a + (-a) == zero
        assert (a - b) + b == a
        assert (a + b) + c == a + (b + c)
        assert s * (a + b) == s * a + s * b
        assert (s + t) * a == s * a + t * a
        assert 0 * a == zero
        assert hash(a + b) == hash(b + a)

        # Cap round trips; the homogeneous parts add back up.
        assert a.with_cap(cap + 2).truncate(cap) == a
        for k in range(1, cap + 1):
            low = zero
            for d in range(k + 1):
                low = low + a.homogeneous_part(d)
            assert a.truncate(k).with_cap(cap) == low
        assert low == a

        # with_cap hands out its own dict.
        wide = a.with_cap(cap + 1)
        assert wide.nums is not a.nums
        before = dict(a.nums)
        wide.nums.clear()
        assert a.nums == before

    # Mixed caps are rejected.
    with pytest.raises(CapMismatch):
        cls.zero(2) + cls.zero(3)
    with pytest.raises(CapMismatch):
        cls.zero(2) - cls.zero(3)

    # Caps below one are rejected, also by truncation.
    with pytest.raises(ValueError):
        cls.zero(0)
    with pytest.raises(ValueError):
        cls(3, sample).truncate(0)
    # Truncation never raises the cap, and with_cap never lowers it.
    with pytest.raises(ValueError, match="^cannot extend the cap by truncation$"):
        cls(3, sample).truncate(4)
    with pytest.raises(ValueError, match="^use truncate to lower the cap$"):
        cls(3, sample).with_cap(2)

    # Terms above the cap are dropped; coefficients become Fractions.
    elt = cls(2, sample)
    assert all(len(w) <= 2 for w in elt.coeffs)
    assert all(type(v) is Fraction for v in elt.coeffs.values())

    assert repr(cls(3, sample)) == expected_repr
    assert repr(cls.zero(3)) == "0"



def _assert_clean(elt):
    # One stored form: nonzero int numerators over one positive, reduced
    # denominator.  Documents and reports print coefficients with
    # str(Fraction), so coeffs must read them back as reduced, nonzero
    # Fractions.
    assert elt.den > 0 and math.gcd(elt.den, *elt.nums.values()) == 1, elt
    assert all(type(n) is int and n != 0 for n in elt.nums.values()), elt
    assert all(type(c) is Fraction and c != 0 for c in elt.coeffs.values()), elt


def test_the_stored_form_is_unique():
    # The same numerators over different denominators differ.
    assert LieElt(3, {"x": 1}) != LieElt(3, {"x": Fraction(1, 2)})
    # Equal values reached by different routes store the same form.
    scaled = Fraction(1, 2) * LieElt(3, {"x": 2, "xy": 4})
    direct = LieElt(3, {"x": 1, "xy": 2})
    assert scaled == direct and hash(scaled) == hash(direct)
    assert (scaled.den, scaled.nums) == (1, {"x": 1, "xy": 2})
    # Truncation drops the 1/3 term, so the denominator shrinks to 2.
    low = LieElt(3, {"x": Fraction(1, 2), "xy": Fraction(1, 3)}).truncate(1)
    assert low.den == 2 and low == LieElt(1, {"x": Fraction(1, 2)})
    assert hash(low) == hash(LieElt(1, {"x": Fraction(1, 2)}))
    for elt in (scaled, low, LieElt(3, {"x": Fraction(3, 4), "y": Fraction(-5, 6)})):
        _assert_clean(elt)


@pytest.mark.parametrize(
    "make, error",
    [
        # A key is a word in x and y, above the cap too; a Lie key is a
        # Lyndon word.
        (lambda: LieElt(4, {"yx": 1}), "not a Lyndon word: 'yx'"),
        (lambda: LieElt(4, {"": 2}), "not a Lyndon word: ''"),
        (lambda: LieElt(2, {"yxx": 1}), "not a Lyndon word: 'yxx'"),
        (lambda: LieElt(4, {"qx": 1}), "not a word in x, y: 'qx'"),
        (lambda: AssocElt(3, {"xq": 1}), "not a word in x, y: 'xq'"),
        (lambda: AssocElt(1, {"xyz": 1}), "not a word in x, y: 'xyz'"),
        (lambda: AssocElt(3, {1: 1}), "not a word in x, y: 1"),
        (lambda: CycElt(3, {"q": 1}), "not a word in x, y: 'q'"),
        (lambda: AssocElt.one(3), None),
        (lambda: CycElt(3, {"": 1}), None),
        (lambda: LieElt.gen_x(3), None),
        (lambda: LieElt(2, {"xxy": 1, "xy": 0}), None),
    ],
)
def test_the_public_constructors_take_valid_words_only(make, error):
    if error is None:
        _assert_clean(make())
    else:
        with pytest.raises(ValueError, match=f"^{error}$"):
            make()


def test_coeffs_reads_a_new_map():
    # Over a denominator of one and of two.
    for terms, den, nums in (
        ({"x": 2, "xy": -3}, 1, {"x": 2, "xy": -3}),
        ({"x": Fraction(1, 2), "xy": 3}, 2, {"x": 1, "xy": 6}),
    ):
        elt = LieElt(3, terms)
        first = elt.coeffs
        assert first == terms and elt.coeffs is not first
        assert all(type(c) is Fraction for c in first.values())
        first["x"] = Fraction(5)
        first.clear()
        assert elt.coeffs == terms
        assert (elt.den, elt.nums) == (den, nums)


def test_accumulated_results_hold_no_zero_coefficient():
    cap = 6
    x, y = LieElt.gen_x(cap), LieElt.gen_y(cap)

    # Inputs built so that some sums cancel to exactly zero.
    a = AssocElt(cap, {"": 1, "x": 1})
    b = AssocElt(cap, {"y": 1, "xy": -1})
    assert (a * b).coeffs == {"y": 1, "xxy": -1}  # the two xy terms cancel
    p, q = "xxxyy", "xxyxy"
    shared = next(w for w in basis_expansion(p) if w in basis_expansion(q))
    mix = LieElt(cap, {p: basis_expansion(q)[shared], q: -basis_expansion(p)[shared]})
    assert shared not in lie_to_assoc(mix).coeffs
    xy = LieElt(cap, {"xy": 1})
    # The same cancellations over large denominators, through the
    # integer kernels: (s*y, s*x) kills x + y and the trace of xy.
    s = Fraction(-7, 2_147_483_647)
    swap = TDer(s * y, s * x)
    cases = [
        a * b,
        lie_to_assoc(mix),
        lie_to_assoc(s * mix),
        divergence(TDer(xy, xy)),  # tr(xy) - tr(yx)
        cyc_tder_act(TDer(y, x), trace(AssocElt(cap, {"x": 1, "y": 1}))),
        tder_apply(swap, Fraction(1, 3) * (x + y) + xy),
        cyc_tder_act(swap, CycElt(cap, {"xy": Fraction(5, 1_048_573)})),
    ]
    rng = rng_for("sparse-no-zero")
    for _ in range(10):
        u = random_lie(rng, cap, terms=4)
        v = random_lie(rng, cap, terms=4)
        ua, va = lie_to_assoc(u), lie_to_assoc(v)
        assert lie_bracket(u, u).is_zero()
        assert trace(ua * va - va * ua).is_zero()
        d = random_tder(rng, cap, terms=3)
        cases += [ua * va, lie_bracket(u, v) + lie_bracket(v, u), lie_bracket(u, v)]
        cases += [trace(ua * va), divergence(d), cyc_tder_act(d, trace(ua * va))]
        F = random_taut(rng, cap, terms=3)
        cases += [tder_apply(d, u), taut_apply(F, v), jacobian(F)]
    assert cases[5] == tder_apply(swap, xy)
    assert cases[6].is_zero()
    for elt in cases:
        _assert_clean(elt)


def test_exp_series_divides_each_term_by_its_shifted_factorial():
    # With shift s the k-th term is divided by (k+s)!/s!: shift 0 is the
    # exponential series, shift 1 the Jacobian series' 1/(k+1)!.
    cap = 6
    x = AssocElt.word("x", cap)
    for shift in (0, 1):
        series = _exp_series(AssocElt.one(cap), lambda t: t * x, shift=shift)
        assert series.coeffs == {
            "x" * k: Fraction(1, math.factorial(k + shift)) for k in range(cap + 1)
        }
