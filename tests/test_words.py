"""The word layer against the reference implementations it replaced.

``_reference_*`` are the earlier rotation- and suffix-list forms of each
function, kept here as oracles: they are quadratic or exponential, which
is why :mod:`kvtower.words` no longer uses them.
"""

from itertools import product

from kvtower.words import (
    is_lyndon,
    lyndon_words,
    min_rotation,
    necklaces,
    standard_factorization,
)

import pytest


def _words(n):
    """All words of length ``n`` in lexicographic order."""
    return ["".join(letters) for letters in product("xy", repeat=n)]


def _rotations(word):
    return [word[i:] + word[:i] for i in range(len(word))]


def _reference_is_lyndon(word):
    """Strictly smaller than every proper rotation."""
    return bool(word) and all(word < r for r in _rotations(word)[1:])


def _reference_min_rotation(word):
    return min(_rotations(word)) if len(word) >= 2 else word


def _reference_factorization(word):
    """Split before the longest proper Lyndon suffix."""
    for i in range(1, len(word)):
        if _reference_is_lyndon(word[i:]):
            return word[:i], word[i:]


def _reference_necklaces(n):
    """The rotation-minimal words among all 2^n words."""
    return tuple(w for w in _words(n) if w == _reference_min_rotation(w))


def brute_force_lyndon(n):
    """Independent oracle: minimal-rotation aperiodic words by exhaustion."""
    return [w for w in _words(n) if _reference_is_lyndon(w)]


def mobius(n):
    result = 1
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def witt_count(n):
    total = sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def euler_phi(n):
    count = 0
    for k in range(1, n + 1):
        a, b = k, n
        while b:
            a, b = b, a % b
        if a == 1:
            count += 1
    return count


def necklace_count(n):
    total = sum(
        euler_phi(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0
    )
    return total // n


def test_degree_one():
    assert list(lyndon_words(1)) == ["x", "y"]


def test_degree_two():
    assert list(lyndon_words(2)) == ["xy"]
    assert brute_force_lyndon(2) == ["xy"]


def test_degree_four():
    assert list(lyndon_words(4)) == ["xxxy", "xxyy", "xyyy"]
    assert witt_count(4) == 3


def test_zero_degree_rejected():
    with pytest.raises(ValueError):
        lyndon_words(0)


def test_against_brute_force_and_witt():
    for n in range(1, 15):
        words = list(lyndon_words(n))
        assert words == brute_force_lyndon(n)
        assert len(words) == witt_count(n)
        assert words == sorted(words)
        assert all(is_lyndon(w) for w in words)


def test_min_rotation():
    assert min_rotation("yx") == "xy"
    assert min_rotation("yxyx") == "xyxy"
    assert min_rotation("x") == "x"
    assert min_rotation("") == ""


def test_necklace_enumeration():
    assert necklaces(0) == ("",)
    for n in range(1, 15):
        neck = necklaces(n)
        assert neck == _reference_necklaces(n)
        assert len(neck) == necklace_count(n)
        assert all(w == min_rotation(w) for w in neck)
        assert list(neck) == sorted(neck)


@pytest.mark.parametrize("n", [-1, -3])
def test_necklaces_reject_a_negative_degree(n):
    # Like lyndon_words below degree 1: an error, not a cached ("",).
    with pytest.raises(ValueError, match="degree must be >= 0"):
        necklaces(n)


def test_standard_factorization():
    assert standard_factorization("xy") == ("x", "y")
    assert standard_factorization("xxy") == ("x", "xy")
    assert standard_factorization("xyy") == ("xy", "y")
    assert standard_factorization("xxyxy") == ("xxy", "xy")
    for w in ("", "x", "y"):
        with pytest.raises(ValueError):
            standard_factorization(w)
    for n in range(2, 9):
        for w in lyndon_words(n):
            u, v = standard_factorization(w)
            assert u + v == w
            assert is_lyndon(u) and is_lyndon(v)
            assert u < v


def test_word_functions_match_references_on_every_short_word():
    for n in range(13):
        for w in _words(n):
            assert is_lyndon(w) == _reference_is_lyndon(w), w
            assert min_rotation(w) == _reference_min_rotation(w), w
            if n >= 2:
                assert standard_factorization(w) == _reference_factorization(w), w

