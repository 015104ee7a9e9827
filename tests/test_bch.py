"""BCH product: worked low degrees, the associative construction as a
reference, independent Dynkin-series and Bernoulli oracles, and the
group-law identities."""

import math
from fractions import Fraction

from conftest import random_fraction, random_lie, rng_for
from kvtower.assoc import assoc_exp, assoc_log
from kvtower.errors import NotPrimitive
from kvtower.lie import LieElt, bch, bch_xy, lie_from_assoc, lie_to_assoc

# ---------------------------------------------------------------------------
# The oracle below is deliberately self-contained: its own word arithmetic,
# no imports from the package's algebra modules.


def _oracle_mul(a, b, cap):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) > cap:
                continue
            w = wa + wb
            out[w] = out.get(w, Fraction(0)) + ca * cb
    return {w: c for w, c in out.items() if c != 0}


def _oracle_comm(a, b, cap):
    ab = _oracle_mul(a, b, cap)
    ba = _oracle_mul(b, a, cap)
    for w, c in ba.items():
        ab[w] = ab.get(w, Fraction(0)) - c
    return {w: c for w, c in ab.items() if c != 0}


def _nested_bracket(letters, cap):
    """Right-nested commutator [l1,[l2,[...,[l_{m-1}, l_m]...]]]."""
    out = {letters[-1]: Fraction(1)}
    for letter in reversed(letters[:-1]):
        out = _oracle_comm({letter: Fraction(1)}, out, cap)
    return out


def _block_sequences(total):
    """All tuples of (p, q) blocks with p + q >= 1 summing to ``total``."""
    if total == 0:
        yield ()
        return
    for p in range(total + 1):
        for q in range(total - p + 1):
            if p + q == 0:
                continue
            for rest in _block_sequences(total - p - q):
                yield ((p, q),) + rest


def dynkin_bch(cap):
    """Dynkin's explicit series for log(e^x e^y), expanded into words."""
    out = {}
    for m in range(1, cap + 1):
        for blocks in _block_sequences(m):
            k = len(blocks)
            letters = "".join("x" * p + "y" * q for p, q in blocks)
            denom = m
            for p, q in blocks:
                denom *= math.factorial(p) * math.factorial(q)
            coeff = Fraction((-1) ** (k - 1), k * denom)
            for w, c in _nested_bracket(letters, cap).items():
                s = out.get(w, Fraction(0)) + coeff * c
                if s == 0:
                    out.pop(w, None)
                else:
                    out[w] = s
    return out


# ---------------------------------------------------------------------------


def test_bch_degree_two():
    series = bch_xy(2)
    assert series.coeffs == {"x": 1, "y": 1, "xy": Fraction(1, 2)}


def test_bch_with_zero():
    x = LieElt.gen_x(4)
    assert bch(x, LieElt.zero(4)) == x
    assert bch(LieElt.zero(4), x) == x


def test_bch_degree_three():
    series = bch_xy(3)
    # (1/12)[x,[x,y]] + (1/12)[y,[y,x]] in the Lyndon basis.
    assert series.coeff("xxy") == Fraction(1, 12)
    assert series.coeff("xyy") == Fraction(1, 12)


def test_bch_matches_dynkin_oracle_through_degree_six():
    ours = lie_to_assoc(bch_xy(6)).coeffs
    oracle = dynkin_bch(6)
    assert ours == oracle


def test_bch_inverse():
    rng = rng_for("bch-inverse")
    for _ in range(6):
        cap = rng.randint(2, 6)
        u = random_lie(rng, cap, terms=3)
        assert bch(u, -u).is_zero()
        assert bch(-u, u).is_zero()


def test_bch_associativity():
    rng = rng_for("bch-assoc")
    for _ in range(6):
        cap = rng.randint(2, 6)
        u = random_lie(rng, cap, terms=2)
        v = random_lie(rng, cap, terms=2)
        w = random_lie(rng, cap, terms=2)
        assert bch(u, bch(v, w)) == bch(bch(u, v), w)


def test_bch_output_is_primitive():
    # The conversion back to the Lie side never reports a residual.
    rng = rng_for("bch-primitive")
    for _ in range(10):
        cap = rng.randint(2, 7)
        u = random_lie(rng, cap, terms=3)
        v = random_lie(rng, cap, terms=3)
        try:
            bch(u, v)
        except NotPrimitive as exc:  # pragma: no cover
            raise AssertionError(f"unexpected residual: {exc.residual}") from exc


def test_from_assoc_of_exponential_product():
    x = LieElt.gen_x(5)
    y = LieElt.gen_y(5)
    b = bch(x, y)
    assert lie_from_assoc(lie_to_assoc(b)) == b


# ---------------------------------------------------------------------------
# The associative construction that ``bch`` replaced: exponentiate both
# sides as word series, multiply, take the logarithm and read the result
# back in the Lyndon basis.


def _reference_bch(u, v):
    product = assoc_exp(lie_to_assoc(u)) * assoc_exp(lie_to_assoc(v))
    return lie_from_assoc(assoc_log(product))


def test_bch_xy_matches_the_associative_reference():
    for cap in range(1, 11):
        x = LieElt.gen_x(cap)
        y = LieElt.gen_y(cap)
        assert bch_xy(cap) == _reference_bch(x, y), cap


def _random_pair(rng, cap, kind):
    if kind == "linear":
        # Degree-1 terms in both arguments, plus higher terms.
        u = random_lie(rng, cap, terms=2) + LieElt(cap, {
            "x": random_fraction(rng), "y": random_fraction(rng)})
        v = random_lie(rng, cap, terms=2) + LieElt(cap, {
            "x": random_fraction(rng), "y": random_fraction(rng)})
    elif kind == "valuation-2":
        u = random_lie(rng, cap, terms=3, min_degree=2)
        v = random_lie(rng, cap, terms=3, min_degree=2)
    else:
        u = random_lie(rng, cap, terms=3)
        v = random_lie(rng, cap, terms=3, min_degree=2)
    return u, v


def test_bch_matches_the_associative_reference_on_random_pairs():
    rng = rng_for("bch-reference")
    kinds = ["linear", "valuation-2", "mixed"]
    seen = set()
    for i in range(60):
        cap = 1 + i % 7
        kind = kinds[i % 3] if cap >= 2 else "linear"
        u, v = _random_pair(rng, cap, kind)
        assert bch(u, v) == _reference_bch(u, v), (cap, kind, u, v)
        assert bch(v, u) == _reference_bch(v, u), (cap, kind, u, v)
        seen.add(kind)
    assert seen == set(kinds)


def test_bch_matches_the_associative_reference_on_edge_cases():
    rng = rng_for("bch-edges")
    for cap in range(1, 8):
        zero = LieElt.zero(cap)
        u = random_lie(rng, cap, terms=3) + LieElt.gen_x(cap)
        for a, b in [(zero, zero), (u, zero), (zero, u), (u, u), (u, -u), (-u, u)]:
            assert bch(a, b) == _reference_bch(a, b), (cap, a, b)


# ---------------------------------------------------------------------------
# The part of log(e^x e^y) linear in y is ad_x / (1 - e^{-ad_x}) (y), and
# the part linear in x is ad_y / (e^{ad_y} - 1) (x).  In the Lyndon basis
# B(x^n y) = ad_x^n (y) and B(x y^n) = (-1)^n ad_y^n (x), so with the
# Bernoulli numbers B_n (B_1 = -1/2) the coefficients are read off.


def _bernoulli_over_factorial(n):
    """``B_k / k!`` for k = 0..n, as the coefficients of ``t / (e^t - 1)``,
    found by inverting the series ``(e^t - 1) / t = sum t^k / (k+1)!``."""
    a = [Fraction(1, math.factorial(k + 1)) for k in range(n + 1)]
    b = [Fraction(1)]
    for k in range(1, n + 1):
        b.append(-sum(a[j] * b[k - j] for j in range(1, k + 1)))
    return b


def test_bch_linear_parts_match_bernoulli_numbers_through_degree_twelve():
    b = _bernoulli_over_factorial(11)
    assert b[1] == Fraction(-1, 2) and b[2] == Fraction(1, 12)
    # B_11 = 0, so cap 11 is checked too: its top degree is B_10 / 10!.
    for cap in (11, 12):
        series = bch_xy(cap)
        for n in range(1, cap):
            expected_x = Fraction(1, 2) if n == 1 else b[n]
            assert series.coeff("x" * n + "y") == expected_x, (cap, n)
            assert series.coeff("x" + "y" * n) == (-1) ** n * b[n], (cap, n)
