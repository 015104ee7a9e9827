"""Solution documents: the on-disk JSON format for automorphism data.

Integers are carried as strings so arbitrary precision survives any
JSON implementation.  Serialization is canonical — entries ordered by
degree then word, two-space indentation, trailing newline — so parsing
a canonical document and re-emitting it is byte-identical.
"""

import json
import re
from fractions import Fraction

from .errors import DocumentError
from .lie import LieElt
from .tangential import TAutElt
from .words import is_lyndon

FORMAT_VERSION = "1"
VARIANTS = ("SolKV", "KV", "KRV")
_INTEGER = re.compile(r"-?[0-9]+")


class SolutionDocument:
    """Validated in-memory form of a solution file."""

    __slots__ = ("cap", "f1", "f2", "duflo", "variant")

    def __init__(self, cap, f1, f2, duflo, variant):
        self.cap = cap
        self.f1 = f1  # dict word -> Fraction
        self.f2 = f2
        self.duflo = duflo  # dict k -> Fraction
        self.variant = variant

    @classmethod
    def from_taut(cls, F, variant, duflo):
        return cls(F.cap, F.f1.coeffs, F.f2.coeffs, dict(duflo.coeffs), variant)

    def to_taut(self):
        return TAutElt(LieElt(self.cap, self.f1), LieElt(self.cap, self.f2))


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
    raise DocumentError(f"{field}: not an integer: {value!r}", field)


def _parse_fraction(item, where):
    """The ``num``/``den`` pair of one entry as a ``Fraction``."""
    num = _parse_int(item["num"], where + ".num")
    den = _parse_int(item["den"], where + ".den")
    if den == 0:
        raise DocumentError(f"{where}: zero denominator", where)
    return Fraction(num, den)


def _parse_coeff_list(items, cap, field):
    if not isinstance(items, list):
        raise DocumentError(f"{field}: expected a list", field)
    out = {}
    for i, item in enumerate(items):
        where = f"{field}[{i}]"
        if not isinstance(item, dict) or set(item) != {"word", "num", "den"}:
            raise DocumentError(f"{where}: expected word/num/den keys", where)
        word = item["word"]
        if not isinstance(word, str) or not word or any(c not in "xy" for c in word):
            raise DocumentError(f"{where}: invalid word {word!r}", where)
        if not is_lyndon(word):
            raise DocumentError(f"{where}: not a Lyndon word: {word!r}", where)
        if len(word) > cap:
            raise DocumentError(f"{where}: word degree exceeds cap", where)
        if word in out:
            raise DocumentError(f"{where}: duplicate word {word!r}", where)
        out[word] = _parse_fraction(item, where)
    return out


def parse_document(text):
    """Parse and validate a UTF-8 JSON solution document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
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
    f1 = _parse_coeff_list(data["f1"], cap, "f1")
    f2 = _parse_coeff_list(data["f2"], cap, "f2")
    duflo = {}
    if not isinstance(data["duflo"], list):
        raise DocumentError("duflo: expected a list", "duflo")
    for i, item in enumerate(data["duflo"]):
        where = f"duflo[{i}]"
        if not isinstance(item, dict) or set(item) != {"k", "num", "den"}:
            raise DocumentError(f"{where}: expected k/num/den keys", where)
        k = item["k"]
        if not isinstance(k, int) or isinstance(k, bool) or not 2 <= k <= cap:
            raise DocumentError(f"{where}: k must be an integer in 2..cap", where)
        if k in duflo:
            raise DocumentError(f"{where}: duplicate index {k}", where)
        duflo[k] = _parse_fraction(item, where)
    return SolutionDocument(cap, f1, f2, duflo, variant)


def _entries(key, items):
    """``{key, num, den}`` entries for the nonzero ``(index, coefficient)``
    pairs of ``items``, in the given order."""
    out = []
    for index, c in items:
        c = Fraction(c)
        if c != 0:
            out.append({key: index, "num": str(c.numerator), "den": str(c.denominator)})
    return out


def _by_degree(coeffs):
    return sorted(coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))


def emit_document(doc):
    """Canonical serialization; inverse of :func:`parse_document`."""
    payload = {
        "format_version": FORMAT_VERSION,
        "cap": doc.cap,
        "f1": _entries("word", _by_degree(doc.f1)),
        "f2": _entries("word", _by_degree(doc.f2)),
        "duflo": _entries("k", sorted(doc.duflo.items())),
        "variant": doc.variant,
    }
    return json.dumps(payload, indent=2) + "\n"


def identity_document():
    """The identity seed: the degree-1 solution every extension starts from."""
    return SolutionDocument(1, {}, {}, {}, "SolKV")
