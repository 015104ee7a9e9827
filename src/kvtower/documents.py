"""Solution documents: the on-disk JSON format for automorphism data.

Integers are carried as strings so arbitrary precision survives any
JSON implementation.  Serialization is canonical — entries ordered by
degree then word, two-space indentation, trailing newline — so parsing
a canonical document and re-emitting it is byte-identical.

Parsing checks every field.  The entry lists ``f1``, ``f2`` (``{word,
num, den}``) and ``duflo`` (``{k, num, den}``) go through one reader.
Every fault raises :class:`DocumentError` naming the field; a rejected
integer string or word, and a duplicate ``duflo`` index over 40 digits,
is shown by its first 40 characters and its length.

A parsed document holds the exponents as Lie elements and the Duflo
series as a :class:`~kvtower.kv.DufloSeries`, all at the document's cap,
so ``Fraction``s appear only where a file is read or written: the
entries are read as ``Fraction``s, turned into the exponents' integer
form by :mod:`kvtower.sparse`, and written from the elements'
``sorted_terms()``, which are in the canonical order.  The variant names
are the keys of the checkers' table in :mod:`kvtower.kv`.
"""

import json
import re
from fractions import Fraction

from .errors import DocumentError
from .kv import _VARIANTS, DufloSeries
from .lie import LieElt
from .sparse import _int_form
from .tangential import TAutElt
from .words import is_lyndon

FORMAT_VERSION = "1"
VARIANTS = tuple(_VARIANTS)
_INTEGER = re.compile(r"-?[0-9]+")


class SolutionDocument:
    """Validated in-memory form of a solution file."""

    __slots__ = ("cap", "f1", "f2", "duflo", "variant")

    def __init__(self, cap, f1, f2, duflo, variant):
        self.cap = cap
        self.f1 = f1  # LieElt at cap, as written; to_taut normalises it
        self.f2 = f2  # LieElt at cap, likewise
        self.duflo = duflo  # DufloSeries at cap
        self.variant = variant

    @classmethod
    def from_taut(cls, F, variant, duflo):
        return cls(F.cap, F.f1, F.f2, duflo, variant)

    def to_taut(self, n=None):
        """The automorphism at cap ``n``, by default the document's own.
        The exponents are normalised at ``min(n, cap)``, so a low-degree
        reading of a high-cap document stays cheap, and zero-extended when
        ``n`` is above the cap: they define an automorphism at any cap."""
        n = self.cap if n is None else n
        low = min(n, self.cap)
        return TAutElt(self.f1.truncate(low), self.f2.truncate(low)).with_cap(n)


def _parse_int(value, field):
    """An integer written ``-?[0-9]+`` in ASCII.  ``int`` alone would also
    take ``1_000``, surrounding spaces, ``+3`` and non-ASCII digits."""
    if not isinstance(value, str):
        raise DocumentError(f"{field}: integer must be a string", field)
    try:
        if _INTEGER.fullmatch(value):
            return int(value)
    except ValueError:  # more digits than ``int`` converts
        pass
    raise DocumentError(f"{field}: not an integer: {_shown(value)}", field)


def _shown(text):
    """A rejected string as its first 40 characters and its length."""
    return f"{text[:40]!r} ({len(text)} characters)"


def _parse_fraction(item, where):
    """The ``num``/``den`` pair of one entry as a ``Fraction``."""
    num = _parse_int(item["num"], where + ".num")
    den = _parse_int(item["den"], where + ".den")
    if den == 0:
        raise DocumentError(f"{where}: zero denominator", where)
    return Fraction(num, den)


def _parse_entries(items, field, key, index):
    """The list ``items`` of ``{key, num, den}`` entries as a map from each
    entry's ``key`` value to its ``Fraction``; ``index(value, where)``
    raises :class:`DocumentError` when the value is not a valid index."""
    if not isinstance(items, list):
        raise DocumentError(f"{field}: expected a list", field)
    out = {}
    for i, item in enumerate(items):
        where = f"{field}[{i}]"
        if not isinstance(item, dict) or set(item) != {key, "num", "den"}:
            raise DocumentError(f"{where}: expected {key}/num/den keys", where)
        value = item[key]
        index(value, where)
        if value in out:
            text = str(value)  # a ``k`` may have as many digits as ``cap``
            shown = f"index {text}" if key == "k" and len(text) <= 40 else f"{key} {_shown(text)}"
            raise DocumentError(f"{where}: duplicate {shown}", where)
        out[value] = _parse_fraction(item, where)
    return out


def parse_document(text):
    """Parse and validate a UTF-8 JSON solution document."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int literal over the digit limit
        raise DocumentError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("malformed JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise DocumentError("top level must be an object")
    for key in ("format_version", "cap", "f1", "f2", "duflo", "variant"):
        if key not in data:
            raise DocumentError(f"missing field {key!r}", key)
    if data["format_version"] != FORMAT_VERSION:
        raise DocumentError(
            f"unsupported format_version {data['format_version']!r}", "format_version"
        )
    cap = data["cap"]
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise DocumentError("cap must be a positive integer", "cap")
    variant = data["variant"]
    if variant not in VARIANTS:
        raise DocumentError(f"variant must be one of {VARIANTS}", "variant")

    def check_word(w, where):
        if not isinstance(w, str):
            raise DocumentError(f"{where}: word must be a string", where)
        if not w or any(c not in "xy" for c in w):
            raise DocumentError(f"{where}: invalid word {_shown(w)}", where)
        if not is_lyndon(w):
            raise DocumentError(f"{where}: not a Lyndon word: {_shown(w)}", where)
        if len(w) > cap:
            raise DocumentError(f"{where}: word degree exceeds cap", where)

    def check_k(k, where):
        if not isinstance(k, int) or isinstance(k, bool) or not 2 <= k <= cap:
            raise DocumentError(f"{where}: k must be an integer in 2..cap", where)

    # The reader has checked the words, so the exponents are built in the
    # integer form directly, without the public constructor's second check.
    f1, f2 = (LieElt._from_ints(cap, *_int_form(_parse_entries(data[k], k, "word", check_word)))
              for k in ("f1", "f2"))
    duflo = DufloSeries(cap, _parse_entries(data["duflo"], "duflo", "k", check_k))
    return SolutionDocument(cap, f1, f2, duflo, variant)


def _entries(key, terms):
    """``{key, num, den}`` entries for the ``(index, coefficient)`` pairs
    ``terms``, in the given order."""
    return [{key: index, "num": str(c.numerator), "den": str(c.denominator)}
            for index, c in terms]


def emit_document(doc):
    """Canonical serialization; inverse of :func:`parse_document`."""
    payload = {
        "format_version": FORMAT_VERSION,
        "cap": doc.cap,
        "f1": _entries("word", doc.f1.sorted_terms()),
        "f2": _entries("word", doc.f2.sorted_terms()),
        "duflo": _entries("k", doc.duflo.sorted_terms()),
        "variant": doc.variant,
    }
    return json.dumps(payload, indent=2) + "\n"


def identity_document():
    """The identity seed: the degree-1 solution every extension starts from."""
    return SolutionDocument.from_taut(TAutElt.identity(1), "SolKV", DufloSeries(1))
