"""Tokenization and consonant-class encoding."""

import io
import unicodedata

import pytest
from hypothesis import given, strategies as st

from relate.errors import ParseError, SchemaError, UnknownSegmentError
from relate.soundclass import (
    DOLGO_CLASSES,
    GAP,
    VOWEL,
    ClassAlphabet,
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


#: Shared prefixes, a regex metacharacter, a segment with inner whitespace
#: and one that no token can match, as it starts with whitespace.
HAND_TABLE = ClassAlphabet(classes=("T", "S", "K"), segment_map={
    "t": "T", "ts": "S", "tsh": "S", "k": "K", "k+": "K", "k s": "K", " s": "S", "s": "S",
    "a": VOWEL})

TABLES = pytest.mark.parametrize("alphabet", [ALPHABET, HAND_TABLE], ids=["packaged", "hand-built"])


def assert_greedy_longest_match(form, alphabet):
    """Walk the normalized form: each token starts at a non-space character
    and is the longest table segment that starts there, or that character
    when none does; only whitespace lies between and after the tokens."""
    text = unicodedata.normalize("NFC", form).lower()
    i = 0
    for token in tokenize_form(form, alphabet):
        while i < len(text) and text[i].isspace():
            i += 1
        assert text.startswith(token, i)
        starting = [s for s in alphabet.segment_map if text.startswith(s, i)]
        assert token == max(starting, key=len, default=text[i])
        i += len(token)
    assert not text[i:].strip()


def forms(alphabet):
    """Joined table segments, whitespace and characters outside the table,
    or any text at all."""
    pieces = sorted(alphabet.segment_map) + [" ", "  ", "\t", "\u00a0", "+", "#", "S", "ǆ", "ĉ"]
    return st.one_of(st.lists(st.sampled_from(pieces), min_size=1).map("".join),
                     st.text(min_size=1))


@TABLES
@given(data=st.data())
def test_tokens_are_greedy_longest_matches(alphabet, data):
    assert_greedy_longest_match(data.draw(forms(alphabet)), alphabet)


@TABLES
@pytest.mark.parametrize("form", ["k s", " ka", "ka  ta ", "ǆa", "ŝ ĉ", "tshtsk+k s", "kk+"])
def test_edge_forms_are_greedy_longest_matches(alphabet, form):
    assert_greedy_longest_match(form, alphabet)


def test_segments_are_matched_literally_and_across_inner_whitespace():
    assert tokenize_form("kk+ k s tsht s", HAND_TABLE) == ["k", "k+", "k s", "tsh", "t", "s"]


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
        assert GAP == "-"
        assert GAP not in ALPHABET.classes
        with pytest.raises(SchemaError):
            ClassAlphabet(classes=("-", "K"), segment_map={"k": "K"})


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

    def test_invalid_utf8_is_a_parse_error(self):
        with pytest.raises(ParseError, match="segment table is not valid UTF-8"):
            load_alphabet(b"SEGMENT\tCLASS\n\xff\tK\n")


# Encoding never emits vowels or gaps, and never exceeds the token count.
@given(st.text(alphabet="ptksmnrwjhaeiou", min_size=1, max_size=12))
def test_encode_form_properties(form):
    tokens = tokenize_form(form, ALPHABET)
    encoded = encode_form(form, ALPHABET)
    assert len(encoded) <= len(tokens)
    assert all(symbol in ALPHABET.classes for symbol in encoded)
    assert VOWEL not in encoded
    assert GAP not in encoded

