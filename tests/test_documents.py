import json
import time
from fractions import Fraction
from pathlib import Path

from conftest import random_lie, rng_for
from kvtower.cli import _load
from kvtower.documents import (
    SolutionDocument,
    emit_document,
    identity_document,
    parse_document,
)
from kvtower.errors import DocumentError
from kvtower.kv import DufloSeries, check_sol_kv, extend_solkv
from kvtower.lie import LieElt
from kvtower.tangential import TAutElt

import pytest


IDENTITY_TEXT = (
    '{"format_version":"1","cap":1,"f1":[],"f2":[],"duflo":[],"variant":"SolKV"}'
)


def test_parse_identity():
    doc = parse_document(IDENTITY_TEXT)
    assert doc.cap == 1
    assert doc.f1.coeffs == {} and doc.f2.coeffs == {}
    assert doc.variant == "SolKV"
    assert doc.to_taut() == TAutElt.identity(1)


def test_parse_rejects_non_lyndon_word():
    text = json.dumps(
        {
            "format_version": "1",
            "cap": 2,
            "f1": [{"word": "yx", "num": "1", "den": "1"}],
            "f2": [],
            "duflo": [],
            "variant": "SolKV",
        }
    )
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    assert "Lyndon" in str(info.value)
    assert info.value.field == "f1[0]"


def test_parse_checks_a_long_word_in_linear_time():
    # x^199999 y is Lyndon.  A Lyndon test that compares the word with
    # each of its rotations takes quadratic time, over 10 s on this word;
    # Duval's scan reads it once.
    word = "x" * 199999 + "y"
    text = json.dumps(
        {
            "format_version": "1",
            "cap": 200001,
            "f1": [{"word": word, "num": "1", "den": "1"}],
            "f2": [],
            "duflo": [],
            "variant": "SolKV",
        }
    )
    start = time.process_time()
    doc = parse_document(text)
    assert time.process_time() - start < 2
    assert doc.f1.coeffs == {word: 1}


def test_parse_rejects_zero_denominator():
    text = json.dumps(
        {
            "format_version": "1",
            "cap": 1,
            "f1": [{"word": "y", "num": "1", "den": "0"}],
            "f2": [],
            "duflo": [],
            "variant": "SolKV",
        }
    )
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    assert "denominator" in str(info.value)


def test_parse_rejects_duplicates():
    text = json.dumps(
        {
            "format_version": "1",
            "cap": 2,
            "f1": [
                {"word": "y", "num": "1", "den": "2"},
                {"word": "y", "num": "1", "den": "3"},
            ],
            "f2": [],
            "duflo": [],
            "variant": "SolKV",
        }
    )
    with pytest.raises(DocumentError):
        parse_document(text)


def test_parse_rejects_malformed_json():
    with pytest.raises(DocumentError):
        parse_document("{not json")


def test_parse_rejects_bad_variant():
    text = IDENTITY_TEXT.replace("SolKV", "Elsewhere")
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    assert info.value.field == "variant"


def test_parse_rejects_missing_field():
    data = json.loads(IDENTITY_TEXT)
    del data["duflo"]
    with pytest.raises(DocumentError) as info:
        parse_document(json.dumps(data))
    assert info.value.field == "duflo"


def test_parse_rejects_integer_numbers():
    # Arbitrary precision requires integers as strings.
    text = json.dumps(
        {
            "format_version": "1",
            "cap": 1,
            "f1": [{"word": "y", "num": 1, "den": "1"}],
            "f2": [],
            "duflo": [],
            "variant": "SolKV",
        }
    )
    with pytest.raises(DocumentError):
        parse_document(text)


NOT_ASCII_DECIMAL = ["1_000", " 7 ", "7\n", "+3", "\u0663", "", "-", "--1", "1.0", "0x1"]


@pytest.mark.parametrize("text", NOT_ASCII_DECIMAL)
@pytest.mark.parametrize("field", ["num", "den"])
def test_parse_rejects_integers_outside_ascii_decimal(field, text):
    entry = {"word": "y", "num": "1", "den": "1", field: text}
    data = dict(json.loads(IDENTITY_TEXT), f1=[entry])
    with pytest.raises(DocumentError) as info:
        parse_document(json.dumps(data))
    assert info.value.field == f"f1[0].{field}"


def test_parse_accepts_ascii_decimal_integers():
    entry = {"word": "y", "num": "-0012", "den": "30"}
    data = dict(json.loads(IDENTITY_TEXT), f1=[entry])
    assert parse_document(json.dumps(data)).f1.coeffs == {"y": Fraction(-2, 5)}


def test_to_taut_at_a_cap_below_at_and_above_the_document_cap():
    # Exponents with generator terms, so that the normalization acts: at
    # min(n, cap), and then the exponents are zero-extended.
    rng = rng_for("to-taut-caps")
    f1 = dict(random_lie(rng, 6, terms=5).coeffs, x=Fraction(2, 3))
    f2 = dict(random_lie(rng, 6, terms=5).coeffs, y=Fraction(-1, 2))
    doc = SolutionDocument(6, LieElt(6, f1), LieElt(6, f2), DufloSeries(6), "SolKV")
    F = doc.to_taut()
    assert F.cap == 6 and F.f1.coeff("x") == 0 and not F.f1.is_zero()
    for n in range(1, 6):
        assert doc.to_taut(n) == F.truncate(n)
    assert doc.to_taut(6) == F
    for n in (7, 10):
        assert doc.to_taut(n) == F.with_cap(n)


def test_roundtrip_byte_identity():
    F = extend_solkv(TAutElt.identity(1), 4)
    report = check_sol_kv(F, 4)
    doc = SolutionDocument.from_taut(F, "SolKV", report.duflo)
    text = emit_document(doc)
    again = emit_document(parse_document(text))
    assert text == again
    # Stored solutions go through their automorphism and back unchanged.
    root = Path(__file__).parent
    for path in (root / "golden" / "extend_d8.json", root / "golden" / "extend_d12.json",
                 root.parent / "perfbench" / "data" / "sol10.json"):
        text = path.read_text()
        doc = parse_document(text)
        again = SolutionDocument.from_taut(doc.to_taut(), doc.variant, doc.duflo)
        assert emit_document(again) == text


def test_identity_document_roundtrip():
    text = emit_document(identity_document())
    doc = parse_document(text)
    assert emit_document(doc) == text


def test_emitted_words_are_canonically_ordered():
    F = extend_solkv(TAutElt.identity(1), 5)
    doc = SolutionDocument.from_taut(F, "SolKV", check_sol_kv(F, 5).duflo)
    payload = json.loads(emit_document(doc))
    words = [entry["word"] for entry in payload["f1"]]
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_duflo_series_preserved():
    doc = parse_document(
        json.dumps(
            {
                "format_version": "1",
                "cap": 4,
                "f1": [],
                "f2": [],
                "duflo": [{"k": 2, "num": "1", "den": "48"}],
                "variant": "SolKV",
            }
        )
    )
    assert doc.duflo.coeff(2) == Fraction(1, 48)


def _duflo_entry(k):
    return {"k": k, "num": "1", "den": "48"}


@pytest.mark.parametrize(
    "duflo, message, field",
    [
        ({"k": 2}, "duflo: expected a list", "duflo"),
        ([{"k": 2, "num": "1"}], "duflo[0]: expected k/num/den keys", "duflo[0]"),
        ([{"word": "x", "num": "1", "den": "1"}], "duflo[0]: expected k/num/den keys", "duflo[0]"),
        ([_duflo_entry(True)], "duflo[0]: k must be an integer in 2..cap", "duflo[0]"),
        ([_duflo_entry("2")], "duflo[0]: k must be an integer in 2..cap", "duflo[0]"),
        ([_duflo_entry(1)], "duflo[0]: k must be an integer in 2..cap", "duflo[0]"),
        ([_duflo_entry(5)], "duflo[0]: k must be an integer in 2..cap", "duflo[0]"),
        ([_duflo_entry(2), _duflo_entry(2)], "duflo[1]: duplicate index 2", "duflo[1]"),
    ],
    ids=["not-a-list", "missing-key", "wrong-keys", "k-bool", "k-string", "k-one",
         "k-above-cap", "duplicate-k"],
)
def test_parse_rejects_bad_duflo_entries(duflo, message, field):
    data = dict(json.loads(IDENTITY_TEXT), cap=4, duflo=duflo)
    with pytest.raises(DocumentError) as info:
        parse_document(json.dumps(data))
    assert str(info.value) == message
    assert info.value.field == field


def _mutants(data, rng, count):
    """Seeded byte flips, deletions and truncations of ``data``."""
    for i in range(count):
        pos = rng.randrange(len(data))
        kind = i % 3
        if kind == 0:
            yield data[:pos] + bytes([data[pos] ^ (1 << rng.randrange(8))]) + data[pos + 1 :]
        elif kind == 1:
            yield data[:pos] + data[pos + rng.randint(1, 8) :]
        else:
            yield data[:pos]


def test_parser_fuzz_mutated_canonical_document(tmp_path):
    # Every mutant is either rejected as a document error or parses to a
    # document whose canonical form re-emits byte for byte.
    golden = (Path(__file__).parent / "golden" / "extend_d8.json").read_bytes()
    path = tmp_path / "mutant.json"
    outcomes = {"rejected": 0, "parsed": 0}
    for mutant in _mutants(golden, rng_for("documents-fuzz"), 300):
        path.write_bytes(mutant)
        try:
            doc = _load(str(path))
        except DocumentError:
            outcomes["rejected"] += 1
            continue
        text = emit_document(doc)
        assert emit_document(parse_document(text)) == text
        outcomes["parsed"] += 1
    assert outcomes["rejected"] > 0 and outcomes["parsed"] > 0
