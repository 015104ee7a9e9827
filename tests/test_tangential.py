import functools
import math
from fractions import Fraction
from pathlib import Path

from conftest import (
    ConjugationReference,
    count_logs,
    kept_pieces,
    random_fraction,
    random_lie,
    random_taut,
    random_tder,
    reference_apply,
    rng_for,
)
from kvtower.cyclic import CycElt, trace
from kvtower.errors import CapMismatch, InconsistentSystem
from kvtower.lie import LieElt, bch, bracket_table, lie_bracket, lie_to_assoc
from kvtower.assoc import AssocElt, assoc_exp
from kvtower.documents import parse_document
from kvtower.kv import _slot_columns
from kvtower.linalg import QMatrix, solve_linear
from kvtower.sparse import _exp_series
from kvtower.tangential import (
    TAutElt,
    TDer,
    _DerEngine,
    _GeneratorMatcher,
    _conjugation_images,
    _exp_action,
    _solve_generator_bracket,
    cyc_taut_act,
    cyc_tder_act,
    divergence,
    group_commutator,
    jacobian,
    taut_apply,
    taut_compose,
    taut_exp,
    taut_inverse,
    taut_log,
    tder_apply,
    tder_bracket,
    valuation,
)
from kvtower.words import lyndon_words, necklaces, standard_factorization

import pytest


SOL10 = Path(__file__).parent.parent / "perfbench" / "data" / "sol10.json"


def xy_pair(cap):
    return LieElt.gen_x(cap), LieElt.gen_y(cap)


# -- derivations ------------------------------------------------------------


def test_tder_normalization():
    cap = 3
    u = TDer(LieElt(cap, {"x": 5, "y": 1}), LieElt(cap, {"y": -2, "x": 1}))
    assert u.u1.coeffs == {"y": 1}
    assert u.u2.coeffs == {"x": 1}


def test_tder_apply_generator():
    x, y = xy_pair(3)
    u = TDer(y, x)
    assert tder_apply(u, x).coeffs == {"xy": 1}


def test_tder_apply_kills_sum():
    x, y = xy_pair(3)
    u = TDer(y, x)
    assert tder_apply(u, x + y).is_zero()


def test_tder_apply_zero():
    u = random_tder(rng_for("tder-zero"), 4)
    assert tder_apply(u, LieElt.zero(4)).is_zero()


def test_tder_apply_leibniz():
    # Derivation property on brackets, checked on random elements.
    rng = rng_for("tder-leibniz")
    for _ in range(8):
        cap = rng.randint(2, 7)
        u = random_tder(rng, cap)
        a = random_lie(rng, cap, terms=2)
        b = random_lie(rng, cap, terms=2)
        lhs = tder_apply(u, lie_bracket(a, b))
        rhs = lie_bracket(tder_apply(u, a), b) + lie_bracket(a, tder_apply(u, b))
        assert lhs == rhs


def _two_bracket_image(engine, word):
    # The Leibniz rule before the one-pass kernel: two brackets with basis
    # elements and a sum, on the engine's images of the standard factors.
    p, q = standard_factorization(word)
    bp, bq = LieElt.basis(p, engine.cap), LieElt.basis(q, engine.cap)
    return lie_bracket(engine._image(p), bq) + lie_bracket(bp, engine._image(q))


def test_one_pass_leibniz_image_matches_the_two_bracket_rule():
    rng = rng_for("one-pass-leibniz")
    checked = 0
    for cap in range(2, 9):
        for degree in range(1, cap):
            # Homogeneous derivations, as the log matcher builds, and a
            # mixed one, whose images the cap truncates.
            for u in (random_tder(rng, degree, terms=3, min_degree=degree).with_cap(cap),
                      random_tder(rng, cap, terms=3)):
                engine = _DerEngine(u)
                for word in (w for d in range(2, cap + 1) for w in lyndon_words(d)):
                    assert engine._image(word) == _two_bracket_image(engine, word)
                    checked += not engine._image(word).is_zero()
    assert checked > 300


def test_tder_bracket_example():
    cap = 3
    x, y = xy_pair(cap)
    u = TDer(y, LieElt.zero(cap))
    v = TDer(LieElt.zero(cap), x)
    w = tder_bracket(u, v)
    assert w.u1.coeffs == {"xy": 1}
    assert w.u2.coeffs == {"xy": 1}


def test_tder_bracket_self_vanishes():
    rng = rng_for("tder-self")
    u = random_tder(rng, 5)
    assert tder_bracket(u, u).is_zero()
    t = TDer(LieElt.gen_y(4), LieElt.gen_x(4))
    assert tder_bracket(t, t).is_zero()


def test_tder_bracket_is_commutator_of_actions():
    rng = rng_for("tder-comm")
    for _ in range(6):
        cap = rng.randint(2, 6)
        u = random_tder(rng, cap)
        v = random_tder(rng, cap)
        w = random_lie(rng, cap, terms=3)
        lhs = tder_apply(tder_bracket(u, v), w)
        rhs = tder_apply(u, tder_apply(v, w)) - tder_apply(v, tder_apply(u, w))
        assert lhs == rhs


# -- divergence -------------------------------------------------------------


def test_divergence_of_swap_pair():
    cap = 4
    x, y = xy_pair(cap)
    assert divergence(TDer(y, x)).is_zero()


def test_divergence_of_bracket_pair():
    cap = 4
    x, y = xy_pair(cap)
    u = TDer(lie_bracket(x, y), LieElt.zero(cap))
    assert divergence(u).coeffs == {"xy": -1}


def test_divergence_of_zero():
    assert divergence(TDer.zero(4)).is_zero()


def test_divergence_homogeneous():
    rng = rng_for("div-homog")
    for _ in range(5):
        cap = rng.randint(3, 7)
        d = rng.randint(2, cap)
        from kvtower.words import lyndon_words

        w = rng.choice(lyndon_words(d))
        u = TDer(LieElt(cap, {w: 1}), LieElt.zero(cap))
        j = divergence(u)
        assert j.is_zero() or all(len(k) == d for k in j.coeffs)


def test_divergence_cocycle():
    rng = rng_for("div-cocycle")
    for _ in range(15):
        cap = rng.randint(2, 6)
        u = random_tder(rng, cap)
        v = random_tder(rng, cap)
        lhs = divergence(tder_bracket(u, v))
        rhs = cyc_tder_act(u, divergence(v)) - cyc_tder_act(v, divergence(u))
        assert lhs == rhs


def _reference_divergence(u):
    # Both slots expanded into words, the words that end in the slot's
    # letter kept, then traced.
    kept = {}
    for letter, part in (("x", u.u1), ("y", u.u2)):
        for w, c in lie_to_assoc(part).coeffs.items():
            if w.endswith(letter):
                kept[w] = c
    return trace(AssocElt(u.cap, kept))


def test_divergence_matches_reference():
    rng = rng_for("div-reference")
    crossed = fractional = 0
    for cap in range(2, 10):
        for i in range(4):
            u = random_tder(rng, cap, terms=4)
            if i % 2:
                c1, c2 = _cross_terms(rng, cap)
                u = TDer(u.u1 + c1, u.u2 + c2)
            crossed += u.u1.coeff("y") != 0 and u.u2.coeff("x") != 0
            got = divergence(u)
            assert got == _reference_divergence(u)
            fractional += got.den > 1
    assert crossed >= 12 and fractional >= 8


def test_integer_combinations_are_linear():
    # divergence, the derivation engine and lie_to_assoc each sum rows over
    # the lcm of their denominators; coefficients over 1, 3 and the prime
    # 2^31 - 1 make those lcms differ from term to term.
    rng = rng_for("combine-linearity")
    dens = (1, 3, 2**31 - 1)

    def lie(cap):
        pool = [w for d in range(1, cap + 1) for w in lyndon_words(d)]
        words = rng.sample(pool, min(4, len(pool)))
        return LieElt(cap, {w: Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice(dens))
                            for w in words})

    for cap in range(2, 8):
        u, v, w = (TDer(lie(cap), lie(cap)) for _ in range(3))
        p, q, r = lie(cap), lie(cap), lie(cap)
        a = Fraction(rng.choice((-2, 3, 7)), rng.choice(dens[1:]))
        combo = a * u + v - w
        assert divergence(combo) == a * divergence(u) + divergence(v) - divergence(w)
        assert tder_apply(combo, p) == a * tder_apply(u, p) + tder_apply(v, p) - tder_apply(w, p)
        assert tder_apply(u, a * p + q - r) == (
            a * tder_apply(u, p) + tder_apply(u, q) - tder_apply(u, r)
        )
        assert lie_to_assoc(a * p + q - r) == (
            a * lie_to_assoc(p) + lie_to_assoc(q) - lie_to_assoc(r)
        )


# -- actions on cyclic words --------------------------------------------------


def test_cyc_tder_act_single_letter():
    cap = 3
    x, y = xy_pair(cap)
    u = TDer(y, x)
    c = trace(AssocElt.word("x", cap))
    assert cyc_tder_act(u, c).is_zero()  # tr([x,y]) = 0


def test_cyc_tder_act_kills_scalars():
    u = random_tder(rng_for("cyc-scalar"), 3)
    c = trace(AssocElt.one(3))
    assert cyc_tder_act(u, c).is_zero()


def test_cyc_tder_act_two_letter_word():
    cap = 4
    u = TDer(LieElt.gen_y(cap), LieElt.zero(cap))
    c = trace(AssocElt.word("xy", cap))
    assert cyc_tder_act(u, c).is_zero()  # tr(xyy) - tr(xyy)


def test_cyc_tder_act_is_lie_action():
    rng = rng_for("cyc-lie-action")
    for _ in range(8):
        cap = rng.randint(2, 6)
        u = random_tder(rng, cap)
        v = random_tder(rng, cap)
        c = trace(lie_to_assoc(random_lie(rng, cap, terms=3)))
        lhs = cyc_tder_act(tder_bracket(u, v), c)
        rhs = cyc_tder_act(u, cyc_tder_act(v, c)) - cyc_tder_act(
            v, cyc_tder_act(u, c)
        )
        assert lhs == rhs


def test_cyc_taut_act_identity():
    rng = rng_for("cyc-taut-id")
    cap = 5
    c = trace(lie_to_assoc(random_lie(rng, cap, terms=4)))
    assert cyc_taut_act(TAutElt.identity(cap), c) == c


def test_cyc_taut_act_inner_conjugation_is_trivial():
    # Same exponent on both slots: conjugation cancels under the trace.
    rng = rng_for("cyc-taut-inner")
    for _ in range(5):
        cap = rng.randint(2, 5)
        w = random_lie(rng, cap, terms=2)
        F = TAutElt(w, w)
        c = trace(AssocElt.word("x" * (cap - 1) + "y", cap))
        assert cyc_taut_act(F, c) == c


def test_cyc_taut_act_example():
    cap = 2
    F = TAutElt(LieElt.gen_y(cap), LieElt.zero(cap))
    c = trace(AssocElt.word("x", cap))
    assert cyc_taut_act(F, c) == c


def test_cyc_taut_act_is_group_action():
    rng = rng_for("cyc-taut-group")
    for _ in range(5):
        cap = rng.randint(2, 5)
        F = random_taut(rng, cap)
        G = random_taut(rng, cap)
        c = trace(lie_to_assoc(random_lie(rng, cap, terms=3)))
        assert cyc_taut_act(taut_compose(F, G), c) == cyc_taut_act(
            F, cyc_taut_act(G, c)
        )


def _reference_cyc_tder_act(u, c):
    # Letter by letter on the representative itself, without rotating:
    # prefix + image of the letter + suffix, summed and then traced.
    cap = u.cap
    images = {
        "x": lie_to_assoc(lie_bracket(LieElt.gen_x(cap), u.u1)),
        "y": lie_to_assoc(lie_bracket(LieElt.gen_y(cap), u.u2)),
    }
    acc = AssocElt.zero(cap)
    for word, coeff in c.coeffs.items():
        for i, letter in enumerate(word):
            sandwich = {}
            for w, k in images[letter].coeffs.items():
                key = word[:i] + w + word[i + 1 :]
                if len(key) <= cap:
                    sandwich[key] = k
            acc = acc + coeff * AssocElt(cap, sandwich)
    return trace(acc)


def _reference_cyc_taut_act(F, c):
    # Generator images as e^{-f} g e^{f}, multiplied out in the associative
    # algebra, instead of the engine's conjugation series.
    cap = F.cap
    images = {}
    for letter, f in (("x", F.f1), ("y", F.f2)):
        ef = assoc_exp(lie_to_assoc(f))
        emf = assoc_exp(lie_to_assoc(-f))
        images[letter] = emf * AssocElt.word(letter, cap) * ef
    acc = AssocElt.zero(cap)
    for word, coeff in c.coeffs.items():
        prod = AssocElt.one(cap)
        for letter in word:
            prod = prod * images[letter]
        acc = acc + coeff * prod
    return trace(acc)


def _random_cyc(rng, cap, degrees, terms=4):
    pool = [w for d in degrees for w in necklaces(d)]
    chosen = rng.sample(pool, min(terms, len(pool)))
    return CycElt(cap, {w: random_fraction(rng) for w in chosen})


def test_cyc_tder_act_matches_reference():
    # Degrees are drawn so that results reach the cap and some terms fall
    # one degree above it.  Single letters are left out of ``c``: their
    # images are commutators, which trace to zero.
    # Every other derivation carries both degree-one cross terms.
    rng = rng_for("cyc-tder-reference")
    nonzero = crossed = 0
    for cap in range(2, 8):
        for i in range(6):
            k = rng.randint(1, cap - 1)
            u = random_tder(rng, k, terms=3).with_cap(cap)
            if i % 2:
                c1, c2 = _cross_terms(rng, cap)
                u = TDer(u.u1 + c1, u.u2 + c2)
            c = _random_cyc(rng, cap, range(2, cap + 2 - k))
            got = cyc_tder_act(u, c)
            assert got == _reference_cyc_tder_act(u, c)
            nonzero += not got.is_zero()
            crossed += u.u1.coeff("y") != 0 and u.u2.coeff("x") != 0 and not got.is_zero()
    assert nonzero >= 12 and crossed >= 6


def test_inner_derivations_act_trivially_on_cyclic_words():
    # (c, c) acts as x -> [x, c], y -> [y, c], the inner derivation ad(-c),
    # which fixes every trace: the cyclic action and the divergence see
    # only u1 - u2.
    # Degrees are drawn as for the reference test, so that the actions
    # reach the cap; ``cancelled`` counts the cases where c alone, in one
    # slot, acts on z.
    rng = rng_for("inner-derivations")
    acted = cancelled = 0
    for cap in range(2, 10):
        for _ in range(4):
            k = rng.randint(1, cap - 1)
            a, b = (random_lie(rng, k, terms=3).with_cap(cap) for _ in range(2))
            c = random_lie(rng, max(2, k), terms=3, min_degree=2).with_cap(cap)
            u, shifted, inner = TDer(a, b), TDer(a + c, b + c), TDer(c, c)
            z = _random_cyc(rng, cap, range(2, cap + 2 - k))
            got = cyc_tder_act(u, z)
            assert cyc_tder_act(shifted, z) == got
            assert cyc_tder_act(inner, z).is_zero()
            assert divergence(shifted) == divergence(u)
            assert divergence(inner).is_zero()
            acted += not got.is_zero()
            cancelled += not cyc_tder_act(TDer(c, LieElt.zero(cap)), z).is_zero()
    assert acted >= 12 and cancelled >= 8


def _cross_terms(rng, cap):
    # Degree-one cross terms: y for the first slot, x for the second.
    return (
        LieElt(cap, {"y": random_fraction(rng)}),
        LieElt(cap, {"x": random_fraction(rng)}),
    )


def test_cyc_taut_act_matches_reference():
    # Drawn as for the derivation action, so that results reach the cap.
    rng = rng_for("cyc-taut-reference")
    crossed = nonzero = 0
    for cap in range(2, 8):
        for i in range(4):
            k = rng.randint(1, cap - 1)
            F = random_taut(rng, k, terms=3).with_cap(cap)
            if i % 2:
                c1, c2 = _cross_terms(rng, cap)
                F = TAutElt(F.f1 + c1, F.f2 + c2)
            crossed += F.f1.coeff("y") != 0 and F.f2.coeff("x") != 0
            c = _random_cyc(rng, cap, range(2, cap + 2 - k), terms=3)
            got = cyc_taut_act(F, c)
            assert got == _reference_cyc_taut_act(F, c)
            nonzero += got != c
    assert crossed >= 12 and nonzero >= 10


# -- automorphisms ------------------------------------------------------------


def test_taut_identity_action():
    rng = rng_for("taut-id")
    w = random_lie(rng, 5, terms=4)
    assert taut_apply(TAutElt.identity(5), w) == w


def test_taut_apply_conjugation_series():
    cap = 3
    F = TAutElt(LieElt.gen_y(cap), LieElt.zero(cap))
    img = taut_apply(F, LieElt.gen_x(cap))
    assert img.coeffs == {"x": 1, "xy": 1, "xyy": Fraction(1, 2)}
    assert taut_apply(F, LieElt.gen_y(cap)) == LieElt.gen_y(cap)


def test_taut_apply_is_lie_homomorphism():
    rng = rng_for("taut-hom")
    for _ in range(6):
        cap = rng.randint(2, 6)
        F = random_taut(rng, cap)
        a = random_lie(rng, cap, terms=2)
        b = random_lie(rng, cap, terms=2)
        assert taut_apply(F, lie_bracket(a, b)) == lie_bracket(
            taut_apply(F, a), taut_apply(F, b)
        )


def test_compose_with_identity():
    rng = rng_for("taut-compose-id")
    F = random_taut(rng, 4)
    eye = TAutElt.identity(4)
    assert taut_compose(F, eye) == F
    assert taut_compose(eye, F) == F


def test_compose_same_exponent():
    cap = 4
    F = TAutElt(LieElt.gen_y(cap), LieElt.zero(cap))
    FF = taut_compose(F, F)
    assert FF.f1.coeffs == {"y": 2}
    assert FF.f2.is_zero()


def test_compose_matches_action():
    rng = rng_for("taut-compose-act")
    for _ in range(6):
        cap = rng.randint(2, 6)
        F = random_taut(rng, cap)
        G = random_taut(rng, cap)
        w = random_lie(rng, cap, terms=3)
        assert taut_apply(taut_compose(F, G), w) == taut_apply(F, taut_apply(G, w))


def test_compose_associative():
    rng = rng_for("taut-compose-assoc")
    for _ in range(4):
        cap = rng.randint(2, 5)
        F = random_taut(rng, cap)
        G = random_taut(rng, cap)
        H = random_taut(rng, cap)
        assert taut_compose(F, taut_compose(G, H)) == taut_compose(
            taut_compose(F, G), H
        )


def test_apply_and_compose_match_the_conjugation_series():
    # taut_apply and taut_compose act through the derivation series of
    # log F; the reference brackets F's conjugation images up each word's
    # standard factorization.
    rng = rng_for("taut-conjugation-reference")
    crossed = 0
    for cap in range(1, 9):
        for i in range(4):
            F, G = random_taut(rng, cap, terms=3), random_taut(rng, cap, terms=3)
            if i % 2:
                c1, c2 = _cross_terms(rng, cap)
                F = TAutElt(F.f1 + c1, F.f2 + c2)
            crossed += F.f1.coeff("y") != 0 and F.f2.coeff("x") != 0
            images = ConjugationReference(F)
            w = random_lie(rng, cap, terms=4)
            assert taut_apply(F, w) == reference_apply(images, w)
            g1, g2 = (reference_apply(images, g) for g in (G.f1, G.f2))
            assert taut_compose(F, G) == TAutElt(bch(F.f1, g1), bch(F.f2, g2))
    assert crossed >= 16


def test_inverse_examples():
    cap = 4
    eye = TAutElt.identity(cap)
    assert taut_inverse(eye) == eye
    F = TAutElt(LieElt.gen_y(cap), LieElt.zero(cap))
    Fi = taut_inverse(F)
    assert Fi.f1.coeffs == {"y": -1}
    assert Fi.f2.is_zero()


def test_inverse_roundtrip():
    rng = rng_for("taut-inv")
    for _ in range(6):
        cap = rng.randint(2, 6)
        F = random_taut(rng, cap)
        Fi = taut_inverse(F)
        eye = TAutElt.identity(cap)
        assert taut_compose(F, Fi) == eye
        assert taut_compose(Fi, F) == eye
        assert taut_inverse(Fi) == F


def _reference_inverse(F):
    # The fixed-point solve the group inverse used before it became
    # exp(-log F): the exponents of F^{-1} are -F^{-1}(f_i), and F^{-1}(w)
    # is the fixed point of v -> v + (w - F(v)).  F minus the identity
    # raises degree, so the iteration settles within cap rounds.  F acts by
    # the conjugation-series rule.
    apply = functools.partial(reference_apply, ConjugationReference(F))

    def inverse_apply(w):
        v = w
        for _ in range(F.cap + 2):
            defect = w - apply(v)
            if defect.is_zero():
                return v
            v = v + defect
        raise AssertionError("the fixed-point iteration did not settle")

    return TAutElt(-inverse_apply(F.f1), -inverse_apply(F.f2))


def test_inverse_matches_reference():
    rng = rng_for("taut-inverse-reference")
    crossed = 0
    for cap in range(1, 9):
        for i in range(4):
            F = random_taut(rng, cap, terms=3)
            if i % 2:
                c1, c2 = _cross_terms(rng, cap)
                F = TAutElt(F.f1 + c1, F.f2 + c2)
            crossed += F.f1.coeff("y") != 0 and F.f2.coeff("x") != 0
            assert taut_inverse(F) == _reference_inverse(F)
    assert crossed >= 16


def test_inverse_matches_reference_on_the_degree_10_solution():
    F = parse_document(SOL10.read_text()).to_taut()
    for n in range(2, 11):
        Fn = F.truncate(n)
        assert taut_inverse(Fn) == _reference_inverse(Fn)


def test_exp_of_single_slot():
    cap = 4
    u = TDer(LieElt.gen_y(cap), LieElt.zero(cap))
    E = taut_exp(u)
    assert E.f1.coeffs == {"y": 1}
    assert E.f2.is_zero()


def test_exp_of_zero():
    assert taut_exp(TDer.zero(3)) == TAutElt.identity(3)


def test_exp_exponents_differ_from_the_pair():
    # The exponent pair of exp((y, x)) picks up a degree-2 correction.
    u = TDer(LieElt.gen_y(2), LieElt.gen_x(2))
    E = taut_exp(u)
    assert E.f1.coeffs == {"y": 1, "xy": Fraction(-1, 2)}
    assert E.f2.coeffs == {"x": 1, "xy": Fraction(1, 2)}


def test_exp_matches_derivation_series():
    rng = rng_for("taut-exp-series")
    for _ in range(5):
        cap = rng.randint(2, 6)
        u = random_tder(rng, cap)
        E = taut_exp(u)
        for gen in (LieElt.gen_x(cap), LieElt.gen_y(cap)):
            series = gen
            term = gen
            for j in range(1, cap + 1):
                term = Fraction(1, j) * tder_apply(u, term)
                series = series + term
            assert taut_apply(E, gen) == series


def test_log_examples():
    assert taut_log(TAutElt.identity(3)).is_zero()
    F = TAutElt(LieElt.gen_y(3), LieElt.zero(3))
    w = taut_log(F)
    assert w.u1.coeffs == {"y": 1}
    assert w.u2.is_zero()


def test_exp_log_roundtrips():
    rng = rng_for("taut-explog")
    for _ in range(6):
        cap = rng.randint(2, 6)
        u = random_tder(rng, cap)
        assert taut_log(taut_exp(u)) == u
        F = random_taut(rng, cap)
        assert taut_exp(taut_log(F)) == F


def _reference_exp(u):
    # Each exponent on its own, matched degree by degree against the
    # derivation's exponential series, before one matcher served both slots
    # and the log.
    cap = u.cap
    work = cap + 1
    w = u.with_cap(work)

    def exponent(letter):
        gen = LieElt.basis(letter, work)
        image = _exp_series(gen, lambda term: tder_apply(w, term))
        f = LieElt.zero(work)
        for k in range(1, cap + 1):
            f_k = f.truncate(k + 1)
            cur = _exp_series(gen.truncate(k + 1), lambda t: lie_bracket(t, f_k))
            defect = (image.truncate(k + 1) - cur).homogeneous_part(k + 1)
            if not defect.is_zero():
                f = f + _solve_generator_bracket(letter, k, defect).with_cap(work)
        return f.truncate(cap)

    return TAutElt(exponent("x"), exponent("y"))


def test_exp_matches_reference():
    rng = rng_for("taut-exp-reference")
    crossed = 0
    for cap in range(1, 8):
        for i in range(4):
            u = random_tder(rng, cap, terms=3)
            if i % 2:
                c1, c2 = _cross_terms(rng, cap)
                u = TDer(u.u1 + c1, u.u2 + c2)
            crossed += u.u1.coeff("y") != 0 and u.u2.coeff("x") != 0
            assert taut_exp(u) == _reference_exp(u)
    assert crossed >= 14


def _reference_log(F):
    # The defect correction the action-matching log replaced: the degree-k
    # part is F's degree-k exponent minus that of the exponential of the
    # lower-degree parts, with one full exponential per degree.
    cap = F.cap
    u1 = LieElt.zero(cap)
    u2 = LieElt.zero(cap)
    for k in range(1, cap + 1):
        E = _reference_exp(TDer(u1.truncate(k), u2.truncate(k)))
        u1 = u1 + F.f1.homogeneous_part(k) - E.f1.homogeneous_part(k).with_cap(cap)
        u2 = u2 + F.f2.homogeneous_part(k) - E.f2.homogeneous_part(k).with_cap(cap)
    return TDer(u1, u2)


def test_log_matches_reference():
    rng = rng_for("taut-log-reference")
    crossed = 0
    for cap in range(1, 8):
        for i in range(4):
            F = random_taut(rng, cap, terms=3)
            if i % 2:
                c1, c2 = _cross_terms(rng, cap)
                F = TAutElt(F.f1 + c1, F.f2 + c2)
            crossed += F.f1.coeff("y") != 0 and F.f2.coeff("x") != 0
            assert taut_log(F) == _reference_log(F)
    assert crossed >= 14


def test_log_matches_reference_on_the_degree_8_solution():
    golden = Path(__file__).parent / "golden" / "extend_d8.json"
    F = parse_document(golden.read_text()).to_taut()
    for n in range(1, 9):
        Fn = F.truncate(n)
        assert taut_log(Fn) == _reference_log(Fn)


def _reference_match(targets, cap, images):
    # The matcher before its table of powers: the images of the whole pair
    # so far are rebuilt at every degree.
    work = cap + 1
    pair = {"x": LieElt.zero(work), "y": LieElt.zero(work)}
    for k in range(1, cap + 1):
        cur = images(pair["x"].truncate(k + 1), pair["y"].truncate(k + 1))
        for g, target in targets.items():
            defect = (target.truncate(k + 1) - cur[g]).homogeneous_part(k + 1)
            if not defect.is_zero():
                step = _solve_generator_bracket(g, k, defect)
                pair[g] = pair[g] + step.with_cap(work)
    return pair["x"].truncate(cap), pair["y"].truncate(cap)


# The generator images of a derivation's exponential; those of the other
# direction are the conjugation series, _conjugation_images.
def _exp_images(p1, p2):
    act = _exp_action(TDer(p1, p2))
    return {g: act(LieElt.basis(g, p1.cap)) for g in ("x", "y")}


def _rebuilding_exp(u):
    work = u.cap + 1
    targets = _exp_images(u.u1.with_cap(work), u.u2.with_cap(work))
    return TAutElt(*_reference_match(targets, u.cap, _conjugation_images))


def _rebuilding_log(F):
    work = F.cap + 1
    targets = _conjugation_images(F.f1.with_cap(work), F.f2.with_cap(work))
    return TDer(*_reference_match(targets, F.cap, _exp_images))


def _graded_pair(rng, cap, crossed):
    # One random basis term in every degree of each slot, so that the
    # table of powers has entries for every m and degree; crossed pairs
    # also carry the degree-1 cross terms.
    def graded():
        return sum(
            (random_lie(rng, d, terms=1, min_degree=d).with_cap(cap) for d in range(2, cap + 1)),
            LieElt.zero(cap),
        )

    p1, p2 = graded(), graded()
    if crossed:
        c1, c2 = _cross_terms(rng, cap)
        p1, p2 = p1 + c1, p2 + c2
    return p1, p2


def test_exp_matches_the_rebuilding_matcher():
    rng = rng_for("taut-exp-rebuilding")
    crossed = 0
    for cap in range(1, 9):
        for i in range(3):
            u = TDer(*_graded_pair(rng, cap, crossed=i != 1))
            crossed += u.u1.coeff("y") != 0 and u.u2.coeff("x") != 0
            assert taut_exp(u) == _rebuilding_exp(u)
    assert crossed >= 14


def test_log_matches_the_rebuilding_matcher():
    rng = rng_for("taut-log-rebuilding")
    crossed = 0
    for cap in range(1, 9):
        for i in range(3):
            F = TAutElt(*_graded_pair(rng, cap, crossed=i != 1))
            crossed += F.f1.coeff("y") != 0 and F.f2.coeff("x") != 0
            assert taut_log(F) == _rebuilding_log(F)
    assert crossed >= 14


def _sol10():
    path = Path(__file__).parent.parent / "perfbench" / "data" / "sol10.json"
    return parse_document(path.read_text()).to_taut()


def test_log_matches_the_rebuilding_matcher_on_the_degree_10_solution():
    F = _sol10()
    assert F.cap == 10
    for n in (9, 10):
        assert taut_log(F.truncate(n)) == _rebuilding_log(F.truncate(n))


def _first_change(F, G):
    """The lowest degree where the exponents of ``F`` and ``G`` differ, at
    the larger of their caps; ``math.inf`` if they agree."""
    top = max(F.cap, G.cap)
    return valuation(TDer(*(g.with_cap(top) - f.with_cap(top)
                            for f, g in zip(F._parts(), G._parts()))))


def test_resumed_log_matches_a_fresh_log():
    # One matcher, at a work cap above every automorphism, solves in turn
    # log F; log G, which agrees with F below degree s and may have a
    # larger cap; log H, which differs from G at degree 2; G one cap up;
    # and an unrelated K.  Each log equals a fresh one, and the matcher
    # keeps, as the very same objects, exactly the pieces below the first
    # degree whose exponents changed, and none it has not solved.
    rng = rng_for("resumed-log")
    for cap in range(2, 9):
        for s in range(1, cap + 1):
            F = random_taut(rng, cap, terms=4)
            top = rng.choice((cap, cap + 1))
            G = TAutElt(*(f.with_cap(top) + random_lie(rng, top, 2, min_degree=s)
                          for f in (F.f1, F.f2)))
            H = TAutElt(G.f1 + LieElt(top, {"xy": 1}), G.f2)
            K = random_taut(rng, cap, terms=4)
            matcher = _GeneratorMatcher(cap + 2)
            last = F
            for A in (F, G, H, G.with_cap(top + 1), K):
                before = list(matcher.pieces)
                assert matcher.solve(A) == taut_log(A)
                assert len(matcher.pieces) == A.cap
                kept = kept_pieces(before, matcher)
                assert kept == min(_first_change(last, A) - 1, len(before), A.cap)
                if A is H:
                    assert kept == 1
                last = A


def test_resumed_log_sees_a_change_below_the_last_degree():
    # The matcher has solved the degree-10 solution cut to 8.  One more
    # term at degree e = 2..7, in either slot, changes the exponents from
    # degree e and the targets from degree e + 1, so the matcher re-solves
    # from e, the first changed exponent degree, and keeps e - 1 pieces.
    F = _sol10().truncate(8)
    for e in range(2, 8):
        for slot in (0, 1):
            term = LieElt(8, {lyndon_words(e)[-1]: Fraction(1, e)})
            parts = [F.f1, F.f2]
            parts[slot] = parts[slot] + term
            G = TAutElt(*parts)
            matcher = _GeneratorMatcher(8)
            matcher.solve(F)
            before = list(matcher.pieces)
            assert matcher.solve(G) == taut_log(G)
            assert kept_pieces(before, matcher) + 1 == _first_change(F, G) == e


def test_a_resume_keeps_the_table_entries_it_leaves_valid():
    # A stage-B-style resume: the matcher has solved the degree-10
    # solution cut to 8, and then that element one cap up with a
    # degree-8 correction, which resumes from degree 8.  Level 9's entries
    # P[m][9] with m >= 2 read only pieces below degree 8, so they are
    # kept as the very same objects, and only its defect is solved again.
    # Level d first reads the map of piece d - 2, so no map is built for
    # the top piece.
    F = _sol10().truncate(8)
    matcher = _GeneratorMatcher(9)
    matcher.solve(F)
    assert len(matcher.steps) == len(matcher.pieces) - 1 == 7
    level = {g: dict(entries) for g, entries in matcher.powers[9].items()}
    term = LieElt(9, {lyndon_words(8)[-1]: 1})
    F1 = TAutElt(F.f1.with_cap(9) + term, F.f2.with_cap(9))
    assert matcher.solve(F1) == taut_log(F1)
    assert len(matcher.steps) == len(matcher.pieces) - 1 == 8
    for g, entries in level.items():
        assert {2, 3} <= entries.keys()
        for m, entry in entries.items():
            assert (matcher.powers[9][g][m] is entry) == (m >= 2)


def test_exp_inverts_log_on_the_degree_10_solution():
    F = _sol10()
    assert taut_exp(taut_log(F)) == F


# -- jacobian -----------------------------------------------------------------


def _reference_jacobian(F):
    # The series with one public cyc_tder_act call per term, each of which
    # expands the generator images of the log into words again.
    w = taut_log(F)
    out = CycElt.zero(F.cap)
    term = divergence(w)
    k = 0
    while not term.is_zero():
        out = out + Fraction(1, math.factorial(k + 1)) * term
        term = cyc_tder_act(w, term)
        k += 1
        if k > F.cap:
            break
    return out


def test_jacobian_matches_reference():
    rng = rng_for("jacobian-reference")
    acted = 0
    for cap in range(3, 8):
        for _ in range(4):
            F = random_taut(rng, cap, terms=4)
            assert jacobian(F) == _reference_jacobian(F)
            w = taut_log(F)
            acted += not cyc_tder_act(w, divergence(w)).is_zero()
    # The series reaches the cyclic action in half of the cases.
    assert acted >= 10


def test_jacobian_of_identity():
    assert jacobian(TAutElt.identity(4)).is_zero()


def test_jacobian_divergence_free_exponent():
    F = TAutElt(LieElt.gen_y(4), LieElt.zero(4))
    assert jacobian(F).is_zero()


def test_jacobian_leading_term():
    cap = 4
    x, y = xy_pair(cap)
    u = TDer(lie_bracket(x, y), LieElt.zero(cap))
    J = jacobian(taut_exp(u))
    assert J.homogeneous_part(2).coeffs == {"xy": -1}


def test_jacobian_cocycle():
    rng = rng_for("jac-cocycle")
    for _ in range(8):
        cap = rng.randint(2, 5)
        F = random_taut(rng, cap)
        G = random_taut(rng, cap)
        lhs = jacobian(taut_compose(F, G))
        rhs = jacobian(F) + cyc_taut_act(F, jacobian(G))
        assert lhs == rhs


def test_jacobian_linearization():
    # For homogeneous u the lowest-degree part of J(exp u) is j(u).
    rng = rng_for("jac-linear")
    from kvtower.words import lyndon_words

    for d in (2, 3, 4):
        cap = d + 2
        words = lyndon_words(d)
        u = TDer(
            LieElt(cap, {rng.choice(words): Fraction(rng.randint(1, 3))}),
            LieElt(cap, {rng.choice(words): Fraction(rng.randint(-3, -1))}),
        )
        J = jacobian(taut_exp(u))
        assert J.homogeneous_part(d) == divergence(u)


# -- group commutator and filtration ------------------------------------------


def test_group_commutator_with_identity():
    rng = rng_for("gc-id")
    F = random_taut(rng, 4)
    eye = TAutElt.identity(4)
    assert group_commutator(F, eye) == eye
    assert group_commutator(F, F) == eye


def test_group_commutator_leading_term_example():
    cap = 4
    F = TAutElt(LieElt.gen_y(cap), LieElt.zero(cap))
    G = TAutElt(LieElt.zero(cap), LieElt.gen_x(cap))
    C = group_commutator(F, G)
    lead = taut_log(C).homogeneous_part(2)
    expect = tder_bracket(
        TDer(LieElt.gen_y(cap), LieElt.zero(cap)),
        TDer(LieElt.zero(cap), LieElt.gen_x(cap)),
    )
    assert lead == expect


def test_group_commutator_solves_one_log_per_input(monkeypatch):
    # F^-1 o G^-1 o F o G is exp(-log F) composed with the exponential of
    # the conjugate of log F by log G, so log F and log G are the only logs
    # solved; the product of inverses and compositions solved five.
    rng = rng_for("gc-logs")
    for _ in range(3):
        F = random_taut(rng, 8, terms=4)
        G = random_taut(rng, 8, terms=4)
        expected = taut_compose(taut_compose(taut_compose(taut_inverse(F), taut_inverse(G)), F), G)
        solved = count_logs(monkeypatch)
        assert group_commutator(F, G) == expected
        assert solved == [8, 8]
        monkeypatch.undo()


def test_filtration_commutator_bound():
    rng = rng_for("gc-filtration")
    for _ in range(8):
        cap = rng.randint(3, 6)
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        F = random_taut(rng, cap, min_degree=m)
        G = random_taut(rng, cap, min_degree=n)
        val = valuation(group_commutator(F, G))
        assert val >= valuation(F) + valuation(G)


def test_graded_commutator_bracket():
    # Homogeneous exponents: the leading term of the group commutator is
    # the derivation bracket.
    rng = rng_for("gc-graded")
    from kvtower.words import lyndon_words

    for m, n in ((1, 1), (1, 2), (2, 2), (2, 3)):
        cap = m + n + 1
        u = TDer(
            LieElt(cap, {rng.choice(lyndon_words(m)): 1}),
            LieElt(cap, {rng.choice(lyndon_words(m)): 2}),
        )
        v = TDer(
            LieElt(cap, {rng.choice(lyndon_words(n)): 1}),
            LieElt(cap, {rng.choice(lyndon_words(n)): -1}),
        )
        if u.is_zero() or v.is_zero():
            continue
        C = group_commutator(taut_exp(u), taut_exp(v))
        lead = taut_log(C).homogeneous_part(m + n)
        assert lead == tder_bracket(u, v).homogeneous_part(m + n)


# -- valuation and truncation ---------------------------------------------------


def test_valuation_examples():
    assert valuation(TAutElt.identity(4)) == math.inf
    assert valuation(TAutElt(LieElt.gen_y(4), LieElt.zero(4))) == 1
    assert valuation(TAutElt(LieElt(4, {"xy": 1}), LieElt.zero(4))) == 2


def test_truncate_examples():
    F = TAutElt(LieElt(3, {"y": 1, "xy": 1}), LieElt.zero(3))
    assert F.truncate(3) == F
    T = F.truncate(1)
    assert T.cap == 1 and T.f1.coeffs == {"y": 1}


def test_truncate_is_group_homomorphism():
    rng = rng_for("taut-trunc-hom")
    for _ in range(5):
        cap = rng.randint(3, 6)
        n = rng.randint(1, cap - 1)
        F = random_taut(rng, cap)
        G = random_taut(rng, cap)
        assert taut_compose(F, G).truncate(n) == taut_compose(
            F.truncate(n), G.truncate(n)
        )


def test_normalization_of_kernel_exponents():
    # A pure-generator exponent conjugates its own generator trivially.
    F = TAutElt(LieElt.gen_x(3), LieElt.zero(3))
    assert F == TAutElt.identity(3)


def test_cap_mismatch_raises():
    with pytest.raises(CapMismatch):
        taut_compose(TAutElt.identity(2), TAutElt.identity(3))
    with pytest.raises(CapMismatch):
        tder_bracket(TDer.zero(2), TDer.zero(3))


def test_taut_exp_reports_unsolvable_generator_bracket():
    # xyy = x·yy, and yy is not Lyndon: no [x, B(w)] leads with it.
    with pytest.raises(InconsistentSystem, match="inconsistent at xyy"):
        _solve_generator_bracket("x", 2, LieElt(3, {"xyy": 1}))
    # A degree-3 word cannot be [y, a] for a of degree 1; it is left over
    # after the sweep over the degree-2 words.
    with pytest.raises(InconsistentSystem, match="residual"):
        _solve_generator_bracket("y", 1, LieElt(3, {"xyy": 1}))


# -- generator-bracket sweep ---------------------------------------------------


def _reference_solve_generator_bracket(letter, k, rhs):
    # The linear system the sweep replaced: the normalized slot columns
    # against the degree-(k+1) Lyndon rows, solved by Gauss-Jordan.
    columns = _slot_columns(letter, k)
    row_index = {w: i for i, w in enumerate(lyndon_words(k + 1))}
    M = QMatrix(len(row_index), len(columns))
    for j, w in enumerate(columns):
        for ww, c in bracket_table(letter, w).items():
            M[row_index[ww], j] = c
    vec = [Fraction(0)] * len(row_index)
    for w, c in rhs.coeffs.items():
        vec[row_index[w]] = c
    sol = solve_linear(M, vec).particular
    return None if sol is None else LieElt(rhs.cap, dict(zip(columns, sol)))


def test_generator_bracket_sweep_matches_linear_solve():
    rng = rng_for("generator-bracket-sweep")
    outcomes = set()
    for letter in "xy":
        for k in range(1, 8):
            cap = k + 1
            gen = LieElt.basis(letter, cap)
            for _ in range(4):
                a = random_lie(rng, k, terms=3, min_degree=k).with_cap(cap)
                other = random_lie(rng, cap, terms=3, min_degree=cap)
                for rhs in (lie_bracket(gen, a), other):
                    expected = _reference_solve_generator_bracket(letter, k, rhs)
                    outcomes.add(expected is None)
                    if expected is None:
                        with pytest.raises(InconsistentSystem):
                            _solve_generator_bracket(letter, k, rhs)
                    else:
                        assert _solve_generator_bracket(letter, k, rhs) == expected
    # Both consistent and inconsistent right-hand sides were met.
    assert outcomes == {False, True}


def test_generator_brackets_are_triangular_in_the_lyndon_basis():
    # The premise of the sweep: [x, B(w)] has least word xw with
    # coefficient 1, and [y, B(w)] has least word wy with coefficient -1.
    checked = 0
    for d in range(1, 9):
        for w in lyndon_words(d):
            for letter, lead, value in (("x", "x" + w, 1), ("y", w + "y", -1)):
                if w == letter:
                    continue
                table = bracket_table(letter, w)
                assert min(table) == lead
                assert table[lead] == value
                checked += 1
    assert checked == 140
