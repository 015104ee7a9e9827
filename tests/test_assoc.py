from fractions import Fraction

from conftest import random_lie, rng_for
from kvtower.assoc import AssocElt, assoc_exp, assoc_log
from kvtower.errors import CapMismatch
from kvtower.lie import lie_to_assoc

import pytest


def test_word_product():
    x = AssocElt.word("x", 3)
    y = AssocElt.word("y", 3)
    assert (x * y).coeffs == {"xy": 1}


def test_unit_product():
    a = AssocElt(2, {"": 1, "x": 1})
    b = AssocElt(2, {"": 1, "y": 1})
    assert (a * b).coeffs == {"": 1, "x": 1, "y": 1, "xy": 1}


def test_truncation_kills_overflow():
    x = AssocElt.word("x", 1)
    assert (x * x).is_zero()


def test_assoc_mul_function():
    a = AssocElt.word("x", 2)
    assert (a * a).coeffs == {"xx": 1}


def test_cap_mismatch():
    with pytest.raises(CapMismatch):
        AssocElt.word("x", 2) * AssocElt.word("x", 3)


def test_exp_of_zero():
    assert assoc_exp(AssocElt.zero(3)) == AssocElt.one(3)


def test_exp_of_generator():
    e = assoc_exp(AssocElt.word("x", 2))
    assert e.coeffs == {"": 1, "x": 1, "xx": Fraction(1, 2)}


def test_exp_of_sum():
    e = assoc_exp(AssocElt(2, {"x": 1, "y": 1}))
    half = Fraction(1, 2)
    assert e.coeffs == {
        "": 1,
        "x": 1,
        "y": 1,
        "xx": half,
        "xy": half,
        "yx": half,
        "yy": half,
    }


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        assoc_exp(AssocElt.one(2))


def test_log_of_one():
    assert assoc_log(AssocElt.one(3)).is_zero()


def test_log_exp_roundtrip_generator():
    x = AssocElt.word("x", 4)
    assert assoc_log(assoc_exp(x)) == x


def test_log_of_one_plus_word():
    a = AssocElt.one(4) + AssocElt.word("xy", 4)
    out = assoc_log(a)
    assert out.coeffs == {"xy": 1, "xyxy": Fraction(-1, 2)}


def test_log_rejects_wrong_constant():
    with pytest.raises(ValueError):
        assoc_log(AssocElt.zero(2))


def test_exp_log_mutually_inverse_random():
    rng = rng_for("assoc-explog")
    for _ in range(12):
        cap = rng.randint(2, 8)
        u = lie_to_assoc(random_lie(rng, cap, terms=4))
        assert assoc_log(assoc_exp(u)) == u
        g = AssocElt.one(cap) + u
        assert assoc_exp(assoc_log(g)) == g
