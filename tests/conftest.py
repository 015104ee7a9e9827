"""Shared helpers: seeded random element generators, the
conjugation-series action of an automorphism that its log-series action
is tested against, the group-path transport that gr-test's log series is
tested against, and spies that count the logs solved and the checks run.

Sparse random inputs keep the exact-arithmetic property tests fast while
still exercising generic coefficients.
"""

import random
from fractions import Fraction

import kvtower.kv
import kvtower.tangential
from kvtower import LieElt, TAutElt, TDer, lie_bracket, lyndon_words
from kvtower.tangential import _conjugation_images, taut_compose, taut_exp, taut_inverse
from kvtower.words import standard_factorization


def rng_for(name):
    return random.Random(f"kvtower:{name}")


def random_fraction(rng):
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def random_lie(rng, cap, terms=3, min_degree=1):
    pool = [w for d in range(min_degree, cap + 1) for w in lyndon_words(d)]
    coeffs = {}
    for w in rng.sample(pool, min(terms, len(pool))):
        coeffs[w] = random_fraction(rng)
    return LieElt(cap, coeffs)


def random_tder(rng, cap, terms=2, min_degree=1):
    return TDer(
        random_lie(rng, cap, terms, min_degree),
        random_lie(rng, cap, terms, min_degree),
    )


def random_taut(rng, cap, terms=2, min_degree=1):
    return TAutElt(
        random_lie(rng, cap, terms, min_degree),
        random_lie(rng, cap, terms, min_degree),
    )


class ConjugationReference:
    """The action of an automorphism ``F`` on Lie elements by the rule that
    ``taut_apply`` used before it acted through ``log F``.  The generator
    images are the conjugation series ``x + [x, f1] + [[x, f1], f1]/2 +
    ...``; ``F`` is a Lie homomorphism, so the image of a longer Lyndon
    word is the bracket of its standard factors' images, memoized; apply
    it with :func:`reference_apply`."""

    def __init__(self, F):
        self.cap = F.cap
        self._images = _conjugation_images(F.f1, F.f2)

    def _image(self, word):
        img = self._images.get(word)
        if img is None:
            img = self._images[word] = lie_bracket(*map(self._image, standard_factorization(word)))
        return img


def reference_apply(images, w):
    """The linear map with the Lyndon-word images ``images._image`` at
    ``images.cap`` applied to ``w``, summed in ``Fraction`` coefficients."""
    out = {}
    for word, c in w.coeffs.items():
        for ww, k in images._image(word).coeffs.items():
            out[ww] = out.get(ww, 0) + c * k
    return LieElt(images.cap, out)


def group_transport(F, u):
    """``F^{-1} o exp(u) o F`` at ``F``'s cap, through the group operations:
    the transport of a graded basis vector ``u`` by the rule that gr-test
    used before it worked through ``log F``."""
    U = taut_exp(u.with_cap(F.cap))
    return taut_compose(taut_compose(taut_inverse(F), U), F)


def kept_pieces(before, matcher):
    """How many of the log matcher's pieces ``before`` a call it still
    holds, the very same objects, from degree one on."""
    pairs = zip(before, matcher.pieces)
    return next((k for k, (a, b) in enumerate(pairs) if a is not b),
                min(len(before), len(matcher.pieces)))


def count_logs(monkeypatch):
    """Record the cap of every log solved from now on where a log enters:
    ``taut_log`` as bound in ``tangential`` and in ``kv``, and the log
    matcher that ``kv``'s extension carries up.  ``taut_exp`` builds its
    matcher from ``tangential`` itself, so its per-degree solves are not
    counted.  Returns the list it appends to."""
    solved = []
    real = kvtower.tangential.taut_log

    def spy(F):
        solved.append(F.cap)
        return real(F)

    class Counted(kvtower.tangential._GeneratorMatcher):
        def solve(self, F):
            solved.append(F.cap)
            return super().solve(F)

    monkeypatch.setattr(kvtower.tangential, "taut_log", spy)
    monkeypatch.setattr(kvtower.kv, "taut_log", spy)
    monkeypatch.setattr(kvtower.kv, "_GeneratorMatcher", Counted)
    return solved


def count_checks(monkeypatch):
    """Record the variant and degree of every check that ``kv`` runs from
    now on, through ``check_sol_kv`` or on a log that it holds."""
    real = kvtower.kv._check
    calls = []

    def spy(variant, w):
        calls.append((variant, w.cap))
        return real(variant, w)

    monkeypatch.setattr(kvtower.kv, "_check", spy)
    return calls
