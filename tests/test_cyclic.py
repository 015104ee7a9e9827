from fractions import Fraction

from conftest import random_lie, rng_for
from kvtower.assoc import AssocElt
from kvtower.cyclic import CycElt, _duflo_patterns, duflo_pattern, trace
from kvtower.lie import bch_xy, lie_to_assoc

import pytest


def test_trace_kills_commutator():
    a = AssocElt(2, {"xy": 1, "yx": -1})
    assert trace(a).is_zero()


def test_trace_rotates_to_canonical():
    assert trace(AssocElt.word("yx", 2)).coeffs == {"xy": 1}


def test_trace_of_power_word():
    # Rotations of xyxy are {xyxy, yxyx}; the canonical one is xyxy itself.
    assert trace(AssocElt.word("xyxy", 4)).coeffs == {"xyxy": 1}
    assert trace(AssocElt.word("yxyx", 4)).coeffs == {"xyxy": 1}


def test_trace_is_cyclic_on_products():
    rng = rng_for("cyc-trace")
    for _ in range(10):
        cap = rng.randint(2, 7)
        a = lie_to_assoc(random_lie(rng, cap, terms=3)) + AssocElt(cap, {"": 1})
        b = lie_to_assoc(random_lie(rng, cap, terms=3))
        assert trace(a * b - b * a).is_zero()


def test_non_canonical_key_rejected():
    with pytest.raises(ValueError):
        CycElt(2, {"yx": 1})
    with pytest.raises(ValueError, match="canonical necklace"):
        CycElt(3, {"yx": 0})
    # Over-cap words are dropped before the check.
    assert CycElt(1, {"yx": 1}).is_zero()
    # A key that is not a word fails the shared word check first, as in LieElt.
    with pytest.raises(ValueError, match="not a word in x, y"):
        CycElt(3, {5: 1})
    with pytest.raises(ValueError, match="not a word in x, y"):
        CycElt(3, {"ba": 1})


def test_pattern_degree_two_sum():
    assert duflo_pattern(2, "sum", 4).coeffs == {"xy": 2}


def test_pattern_degree_two_bch():
    assert duflo_pattern(2, "bch", 2).coeffs == {"xy": 2}


def test_pattern_degree_three_sum():
    assert duflo_pattern(3, "sum", 5).coeffs == {"xxy": 3, "xyy": 3}


def test_pattern_out_of_range():
    with pytest.raises(ValueError):
        duflo_pattern(1, "sum", 4)
    with pytest.raises(ValueError):
        duflo_pattern(5, "sum", 4)


def test_sum_patterns_homogeneous():
    for cap in (4, 6):
        for k in range(2, cap + 1):
            pat = duflo_pattern(k, "sum", cap)
            assert all(len(w) == k for w in pat.coeffs)
            # Leading coefficient on the single-y necklace is k.
            assert pat.coeff("x" * (k - 1) + "y") == k


def test_bch_pattern_leading_part_matches_sum():
    cap = 6
    for k in range(2, cap + 1):
        bch_pat = duflo_pattern(k, "bch", cap)
        sum_pat = duflo_pattern(k, "sum", cap)
        assert bch_pat.homogeneous_part(k) == sum_pat.homogeneous_part(k)


def _reference_duflo_pattern(k, target, cap):
    # w^k from scratch, as k products starting from the unit.
    w = lie_to_assoc(bch_xy(cap)) if target == "bch" else AssocElt(cap, {"x": 1, "y": 1})
    power = AssocElt.one(cap)
    for _ in range(k):
        power = power * w
    return trace(power - AssocElt.word("x" * k, cap) - AssocElt.word("y" * k, cap))


@pytest.mark.parametrize("target", ["sum", "bch"])
def test_running_power_patterns_match_reference(target):
    for cap in range(2, 8):
        patterns = list(_duflo_patterns(target, cap))
        assert [k for k, _ in patterns] == list(range(2, cap + 1))
        for k, pattern in patterns:
            expected = _reference_duflo_pattern(k, target, cap)
            assert pattern == expected
            assert duflo_pattern(k, target, cap) == expected


def test_sum_patterns_match_reference_at_higher_caps():
    for cap in range(8, 13):
        for k, pattern in _duflo_patterns("sum", cap):
            assert pattern == _reference_duflo_pattern(k, "sum", cap)
    # A necklace's coefficient is its number of distinct rotations.
    assert duflo_pattern(4, "sum", 8).coeff("xyxy") == 2
    assert duflo_pattern(6, "sum", 8).coeff("xxyxxy") == 3
    assert duflo_pattern(6, "sum", 8).coeff("xyxyxy") == 2


def test_unknown_pattern_target_rejected():
    with pytest.raises(ValueError):
        duflo_pattern(2, "product", 4)


def test_arithmetic_and_truncate():
    c = CycElt(4, {"xy": Fraction(1, 2), "xxyy": 3})
    d = c - c
    assert d.is_zero()
    assert c.truncate(2).coeffs == {"xy": Fraction(1, 2)}
    assert (2 * c).coeff("yx") == 1  # looked up via canonical rotation
