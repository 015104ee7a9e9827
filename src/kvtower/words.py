"""Combinatorics of words over the two-letter alphabet {x, y}.

Words are plain Python strings with ``x < y`` in the lexicographic order,
so built-in string comparison is the right order everywhere.  Lyndon words
index the basis of the graded free Lie algebra; rotation-minimal words
(necklaces) index cyclic words.  Both lists come from one cached pass of
Duval's algorithm, and the Lyndon test is Duval's one-pass scan, linear in
the length of the word.  Integer coefficients of words are summed by
necklace in one place, :func:`_necklace_sums`, for the trace, the cyclic
action of a derivation and the divergence rows.
"""

from functools import lru_cache


def min_rotation(word):
    """Lexicographically least rotation; the canonical necklace form."""
    n = len(word)
    if n < 2:
        return word
    ww = word + word
    return min(ww[i:i + n] for i in range(n))


# The same map, cached, for the necklace sums of the trace, the cyclic
# action and the divergence rows, which rotate the same short words over
# and over.  Words that come from outside, such as a document's, go
# through the uncached min_rotation.
_necklace = lru_cache(maxsize=None)(min_rotation)


def _necklace_sums(terms):
    """Integer coefficients ``(word, n)`` summed by necklace, as a map
    necklace -> nonzero int; the sums that cancel are dropped here."""
    out = {}
    for w, n in terms:
        k = _necklace(w)
        out[k] = out.get(k, 0) + n
    return {k: n for k, n in out.items() if n}


def is_lyndon(word):
    """True iff ``word`` is strictly smaller than all its proper rotations.

    Duval's scan: ``word[:j]`` is a prefix of a power of a Lyndon word of
    length ``j - k``, and the whole word is Lyndon when that power is the
    word itself."""
    k, j = 0, 1
    while j < len(word) and word[k] <= word[j]:
        k = k + 1 if word[k] == word[j] else 0
        j += 1
    return j == len(word) and k == 0


@lru_cache(maxsize=None)
def _duval(n):
    """The Lyndon words of length ``n`` and the necklaces of length ``n``,
    both in lexicographic order, from one pass of Duval's algorithm.

    The pass visits every Lyndon word of length at most ``n`` in
    lexicographic order; the periodic extensions to length ``n`` of those
    whose length divides ``n`` are the necklaces, in order
    (Fredricksen–Kessler–Maiorana)."""
    lyndon, necks = [], []
    w = "x"
    while w:
        m = len(w)
        w = (w * (n // m + 1))[:n]
        if n % m == 0:
            necks.append(w)
            if m == n:
                lyndon.append(w)
        # The next Lyndon word: drop the trailing y's, then the last x
        # becomes y.
        w = w.rstrip("y")
        w = w and w[:-1] + "y"
    return tuple(lyndon), tuple(necks)


def lyndon_words(n):
    """All Lyndon words of degree ``n`` in lexicographic order.

    The list length equals the dimension of the degree-``n`` part of the
    free Lie algebra on two generators.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    return _duval(n)[0]


def necklaces(n):
    """All rotation-minimal words of degree ``n``, lexicographically;
    degree 0 has the one empty necklace."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return _duval(n)[1]


@lru_cache(maxsize=None)
def standard_factorization(word):
    """Split a Lyndon word as ``(u, v)`` with ``v`` the longest proper
    Lyndon suffix; the bracketing ``[B(u), B(v)]`` is the basis element.

    That suffix is the least proper suffix, which also holds for a word
    that is not Lyndon."""
    if len(word) < 2:
        raise ValueError("degree-1 words do not factor")
    v = min(word[i:] for i in range(1, len(word)))
    return word[:-len(v)], v
