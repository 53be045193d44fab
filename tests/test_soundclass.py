"""Tokenization and consonant-class encoding."""

import io

import pytest
from hypothesis import given, strategies as st

from relate.errors import SchemaError, UnknownSegmentError
from relate.soundclass import (
    DOLGO_CLASSES,
    VOWEL,
    default_alphabet,
    encode_form,
    encode_segments,
    load_alphabet,
    tokenize_form,
)

ALPHABET = default_alphabet()


class TestTokenize:
    def test_single_character_segments(self):
        assert tokenize_form("keras", ALPHABET) == ["k", "e", "r", "a", "s"]

    def test_longest_match_wins_for_digraphs(self):
        assert tokenize_form("bhadra", ALPHABET) == ["bh", "a", "d", "r", "a"]

    def test_empty_form_rejected(self):
        with pytest.raises(ValueError):
            tokenize_form("", ALPHABET)

    def test_unknown_characters_pass_through_as_singletons(self):
        # Unknown segments only become errors at encoding time.
        assert tokenize_form("k#s", ALPHABET) == ["k", "#", "s"]

    def test_case_folded_before_matching(self):
        assert tokenize_form("KeRas", ALPHABET) == ["k", "e", "r", "a", "s"]


class TestEncode:
    def test_keras(self):
        assert encode_form("keras", ALPHABET) == ("K", "R", "S")

    def test_horn(self):
        assert encode_form("horn", ALPHABET) == ("H", "R", "N")

    def test_all_vowels_encode_to_empty(self):
        assert encode_form("aeiou", ALPHABET) == ()

    def test_cornu(self):
        assert encode_form("cornu", ALPHABET) == ("K", "R", "N")

    def test_sanskrit_sibilant_word(self):
        assert encode_form("śṛṅga", ALPHABET) == ("S", "R", "N", "K")

    def test_unknown_segment_error_names_segment_and_form(self):
        with pytest.raises(UnknownSegmentError) as err:
            encode_form("ka#ta", ALPHABET)
        assert "#" in str(err.value)
        assert "ka#ta" in str(err.value)

    def test_encode_segments_accepts_pretokenized_input(self):
        assert encode_segments(["bh", "a", "d"], ALPHABET) == ("P", "T")


class TestDefaultAlphabet:
    def test_exactly_the_ten_classes(self):
        assert ALPHABET.classes == DOLGO_CLASSES == ("P", "T", "S", "K", "M",
                                                     "N", "R", "W", "J", "H")

    def test_every_class_reachable(self):
        reachable = set(ALPHABET.segment_map.values()) - {VOWEL}
        assert reachable == set(DOLGO_CLASSES)

    def test_gap_symbol_not_a_class(self):
        assert ALPHABET.gap_symbol == "-"
        assert "-" not in ALPHABET.classes


class TestLoadAlphabet:
    def test_roundtrip_from_tsv(self):
        text = "SEGMENT\tCLASS\nk\tK\ng\tK\na\tV\nr\tR\n"
        alphabet = load_alphabet(io.StringIO(text))
        assert encode_form("gara", alphabet) == ("K", "R")

    def test_conflicting_rows_rejected(self):
        text = "SEGMENT\tCLASS\nk\tK\nk\tR\n"
        with pytest.raises(SchemaError):
            load_alphabet(io.StringIO(text))

    def test_unknown_class_symbol_rejected(self):
        text = "SEGMENT\tCLASS\nk\tQ\n"
        with pytest.raises(SchemaError):
            load_alphabet(io.StringIO(text))

    def test_missing_column_rejected(self):
        with pytest.raises(SchemaError):
            load_alphabet(io.StringIO("SEGMENT\nk\n"))


# Encoding never emits vowels or gaps, and never exceeds the token count.
@given(st.text(alphabet="ptksmnrwjhaeiou", min_size=1, max_size=12))
def test_encode_form_properties(form):
    tokens = tokenize_form(form, ALPHABET)
    encoded = encode_form(form, ALPHABET)
    assert len(encoded) <= len(tokens)
    assert all(symbol in ALPHABET.classes for symbol in encoded)
    assert VOWEL not in encoded
    assert ALPHABET.gap_symbol not in encoded

