import sys
from fractions import Fraction
from pathlib import Path

from conftest import random_lie, reference_divergence_row, rng_for
from kvtower import lie, words
from kvtower.assoc import AssocElt
from kvtower.cyclic import _bch_patterns
from kvtower.errors import CapMismatch, NotPrimitive
from kvtower.lie import (
    LieElt,
    _commutator,
    _divergence_row,
    _lyndon_coords,
    basis_expansion,
    bch_xy,
    bracket_table,
    clear_caches,
    lie_bracket,
    lie_from_assoc,
    lie_to_assoc,
)
from kvtower.words import lyndon_words, standard_factorization

import pytest


def test_bracket_of_generators():
    x = LieElt.gen_x(3)
    y = LieElt.gen_y(3)
    assert lie_bracket(x, y).coeffs == {"xy": 1}
    assert lie_bracket(y, x).coeffs == {"xy": -1}


def test_bracket_with_basis_word():
    x = LieElt.gen_x(3)
    xy = LieElt.basis("xy", 3)
    assert lie_bracket(x, xy).coeffs == {"xxy": 1}


def test_bracket_cap_mismatch():
    with pytest.raises(CapMismatch):
        lie_bracket(LieElt.gen_x(2), LieElt.gen_y(3))


def test_basis_expansion_nested():
    # [x,[x,y]] -> xxy - 2xyx + yxx
    assert basis_expansion("xxy") == {"xxy": 1, "xyx": -2, "yxx": 1}


def test_to_assoc_commutator():
    u = LieElt.basis("xy", 2)
    assert lie_to_assoc(u).coeffs == {"xy": 1, "yx": -1}


def test_to_assoc_generator():
    assert lie_to_assoc(LieElt.gen_x(2)).coeffs == {"x": 1}


def test_from_assoc_commutator():
    a = AssocElt(2, {"xy": 1, "yx": -1})
    assert lie_from_assoc(a).coeffs == {"xy": 1}


def test_from_assoc_generator():
    assert lie_from_assoc(AssocElt.word("x", 2)).coeffs == {"x": 1}


def test_from_assoc_rejects_symmetric_part():
    with pytest.raises(NotPrimitive) as info:
        lie_from_assoc(AssocElt(2, {"xy": 1, "yx": 1}))
    assert info.value.residual.coeffs == {"yx": 2}
    assert str(info.value) == "not primitive; residual {'yx': Fraction(2, 1)}"


def test_roundtrip_random():
    rng = rng_for("lie-roundtrip")
    for _ in range(15):
        cap = rng.randint(2, 8)
        u = random_lie(rng, cap, terms=5)
        assert lie_from_assoc(lie_to_assoc(u)) == u


def test_jacobi_identity():
    rng = rng_for("lie-jacobi")
    for _ in range(10):
        cap = rng.randint(3, 8)
        u = random_lie(rng, cap, terms=3)
        v = random_lie(rng, cap, terms=3)
        w = random_lie(rng, cap, terms=3)
        total = (
            lie_bracket(u, lie_bracket(v, w))
            + lie_bracket(v, lie_bracket(w, u))
            + lie_bracket(w, lie_bracket(u, v))
        )
        assert total.is_zero()


def test_antisymmetry_and_bilinearity():
    rng = rng_for("lie-antisym")
    for _ in range(10):
        cap = rng.randint(2, 8)
        u = random_lie(rng, cap, terms=4)
        v = random_lie(rng, cap, terms=4)
        w = random_lie(rng, cap, terms=4)
        assert (lie_bracket(u, v) + lie_bracket(v, u)).is_zero()
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        left = lie_bracket(u + c * v, w)
        right = lie_bracket(u, w) + c * lie_bracket(v, w)
        assert left == right


def test_expansion_leading_term_is_the_word():
    # Triangularity: the least word of B(w) is w itself with coefficient 1.
    from kvtower.words import lyndon_words

    for n in range(1, 9):
        for w in lyndon_words(n):
            exp = basis_expansion(w)
            assert exp[w] == 1
            assert min(exp) == w


def test_divergence_rows_match_the_trace_of_the_expansion():
    # From empty caches, every Lyndon word up to degree 12.  Only x rows
    # are stored: above degree one the y row is the negated x row, and at
    # degree one the rows that a slot reads (x of y, y of x) are empty.
    clear_caches()
    for d in range(1, 13):
        for w in lyndon_words(d):
            row = _divergence_row(w)
            assert row == reference_divergence_row("x", w)
            if d >= 2:
                assert {k: -c for k, c in row.items()} == reference_divergence_row("y", w)
    assert _divergence_row("y") == reference_divergence_row("y", "x") == {}


def test_divergence_rows_store_no_expansion_of_their_own_word():
    # A row reads the expansions of its word's standard factors only, so
    # the rows up to degree 9 store no expansion of degree 9, and fewer
    # expansions than there are rows.
    clear_caches()
    for d in range(1, 10):
        for w in lyndon_words(d):
            _divergence_row(w)
    assert max(len(w) for (w,) in lie._EXPANSION) == 8
    assert len(lie._EXPANSION) < len(lie._DIVERGENCE)


# -- structure constants -------------------------------------------------------


def _reference_bracket_table(w1, w2):
    # The construction that Lyndon rewriting replaced: the commutator of
    # the two associative expansions, eliminated back to the Lyndon basis.
    coords, residual = _lyndon_coords(_commutator(basis_expansion(w1), basis_expansion(w2)))
    assert residual == {}
    return coords


def test_bracket_table_matches_the_associative_construction():
    # From empty caches, so no entry left by another test stands in for a
    # rewritten one.  Both the values and the lexicographic order of the
    # words must agree.
    clear_caches()
    words = [w for d in range(1, 12) for w in lyndon_words(d)]
    pairs = [(u, v) for u in words for v in words if len(u) + len(v) <= 12]
    tables = {pair: bracket_table(*pair) for pair in pairs}
    jacobi = 0
    for (u, v), table in tables.items():
        if u == v:
            assert table == {}
            continue
        assert list(table.items()) == list(_reference_bracket_table(u, v).items())
        if u < v and len(u) > 1 and standard_factorization(u)[1] < v:
            jacobi += 1
    assert len(pairs) == 3411
    assert sum(u == v for u, v in pairs) == 23
    # Pairs u < v that take the Jacobi branch; every other one is B(uv).
    assert jacobi == 949


def _tables():
    return (lie._EXPANSION, lie._BRACKET, lie._DIVERGENCE, lie._BCH_XY, lie._BCH_PATTERNS)


# Each memoized function with one argument tuple, and its table of lie.
MEMOIZED = [
    (basis_expansion, ("xxy",), lie._EXPANSION),
    (bracket_table, ("xy", "x"), lie._BRACKET),
    (_divergence_row, ("xxy",), lie._DIVERGENCE),
    (bch_xy, (4,), lie._BCH_XY),
    (_bch_patterns, (4,), lie._BCH_PATTERNS),
]


def test_clear_caches_empties_the_caches_in_place():
    cached = _tables()
    word_caches = (words._necklace, words._duval, words.standard_factorization)
    for fn, args, _ in MEMOIZED:
        fn(*args)
    lyndon_words(4)
    assert all(cached)
    assert all(c.cache_info().currsize for c in word_caches)
    clear_caches()
    assert _tables() == ({}, {}, {}, {}, {})
    assert all(a is b for a, b in zip(cached, _tables()))
    assert word_caches == (words._necklace, words._duval, words.standard_factorization)
    assert [c.cache_info().currsize for c in word_caches] == [0, 0, 0]


@pytest.mark.parametrize("fn, args, table", MEMOIZED, ids=[m[0].__name__ for m in MEMOIZED])
def test_memoized_functions_return_the_stored_object(fn, args, table):
    # The memo keeps each function's name, module and docstring.
    assert vars(sys.modules[fn.__module__])[fn.__name__] is fn and fn.__doc__
    clear_caches()
    first = fn(*args)
    assert table[args] is first
    assert fn(*args) is first
    # After clear_caches() the table refills on demand with an equal value.
    clear_caches()
    assert args not in table
    again = fn(*args)
    assert table[args] is again and again == first


def test_cold_bch_xy_matches_the_golden_series():
    clear_caches()
    series = bch_xy(10)
    golden = Path(__file__).parent / "golden" / "bch_d10.txt"
    lines = [f"{w} {c}" for w, c in series.sorted_terms()]
    assert lines == golden.read_text().splitlines()
