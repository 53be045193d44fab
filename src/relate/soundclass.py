"""Sound-class encoding of word forms.

Words are segmented by greedy longest match against a segment table and each
segment is mapped to a coarse consonant class. Vowels carry almost no signal
for deep comparison, so they are tagged with a separate marker and dropped
from the encoded sequence; what remains is the consonant-class skeleton that
the alignment and distance code consumes.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass
from importlib import resources
from typing import IO, Iterable

from .errors import SchemaError, UnknownSegmentError, read_tsv

#: Marker for vowel segments; never appears in an encoded sequence.
VOWEL = "V"

#: Gap symbol used by alignments and character matrices.
GAP = "-"

#: The ten consonant classes of the default table, in canonical order.
DOLGO_CLASSES = ("P", "T", "S", "K", "M", "N", "R", "W", "J", "H")

#: An encoded word: a tuple of class symbols, possibly empty.
ClassSequence = tuple[str, ...]


@dataclass(frozen=True)
class ClassAlphabet:
    """A consonant-class alphabet together with its segment table.

    ``classes`` lists the distinct class symbols; ``segment_map`` sends each
    known segment to a class symbol or to :data:`VOWEL`. The gap symbol
    :data:`GAP` is reserved and may not be a class.
    """

    classes: tuple[str, ...]
    segment_map: dict[str, str]

    def __post_init__(self):
        if len(set(self.classes)) != len(self.classes):
            raise SchemaError("class symbols must be distinct")
        if GAP in self.classes or VOWEL in self.classes:
            raise SchemaError("gap and vowel markers may not be class symbols")
        allowed = set(self.classes) | {VOWEL}
        for segment, symbol in self.segment_map.items():
            if not segment:
                raise SchemaError("empty segment in table")
            if symbol not in allowed:
                raise SchemaError(
                    f"segment {segment!r} maps to {symbol!r}, "
                    f"which is not a class or the vowel marker"
                )

    @functools.cached_property
    def _tokens(self) -> re.Pattern:
        """A token: the longest table segment that starts at a non-space
        character, or that character alone when none does."""
        segments = sorted(self.segment_map, key=len, reverse=True)
        return re.compile(r"(?=\S)(?:" + "".join(re.escape(s) + "|" for s in segments) + r"\S)")


def tokenize_form(form: str, alphabet: ClassAlphabet) -> list[str]:
    """Split ``form`` into segments by greedy longest match.

    The form is NFC-normalized and lowercased first. Substrings not in the
    segment table come through as single-character segments; whitespace is
    skipped. Raises ``ValueError`` on an empty form.
    """
    if not form:
        raise ValueError("cannot tokenize an empty form")
    return alphabet._tokens.findall(unicodedata.normalize("NFC", form).lower())


def encode_segments(
    segments: Iterable[str], alphabet: ClassAlphabet, form: str = "?"
) -> ClassSequence:
    """Map pre-segmented input to its consonant-class sequence.

    Vowel segments are dropped. A segment missing from the table raises
    :class:`UnknownSegmentError` naming the segment and the offending form.
    """
    out = []
    for segment in segments:
        key = unicodedata.normalize("NFC", segment).lower()
        symbol = alphabet.segment_map.get(key)
        if symbol is None:
            raise UnknownSegmentError(segment, form)
        if symbol != VOWEL:
            out.append(symbol)
    return tuple(out)


def encode_form(form: str, alphabet: ClassAlphabet) -> ClassSequence:
    """Tokenize ``form`` and encode it; see :func:`encode_segments`."""
    return encode_segments(tokenize_form(form, alphabet), alphabet, form=form)


def load_alphabet(source: IO | bytes | str) -> ClassAlphabet:
    """Read a segment table from TSV with columns SEGMENT and CLASS.

    ``source`` is read by :func:`errors.read_tsv`. Class symbols must be
    one of the ten consonant classes or the vowel marker ``V``. Classes are
    ordered canonically when they are a subset of the default ten,
    alphabetically otherwise.
    """
    columns, rows = read_tsv(source, "segment table", ["SEGMENT", "CLASS"])
    seg_col, cls_col = columns["SEGMENT"], columns["CLASS"]
    mapping: dict[str, str] = {}
    for lineno, row in rows:
        segment = unicodedata.normalize("NFC", row[seg_col]).lower()
        symbol = row[cls_col]
        if not segment or not symbol:
            raise SchemaError(f"segment table row {lineno} has an empty field")
        if symbol != VOWEL and symbol not in DOLGO_CLASSES:
            raise SchemaError(f"bad class symbol {symbol!r} on row {lineno}")
        if segment in mapping and mapping[segment] != symbol:
            raise SchemaError(f"segment {segment!r} mapped to two classes")
        mapping[segment] = symbol
    classes = {s for s in mapping.values() if s != VOWEL}
    if not classes:
        raise SchemaError("segment table defines no consonant classes")
    if classes <= set(DOLGO_CLASSES):
        ordered = tuple(c for c in DOLGO_CLASSES if c in classes)
    else:
        ordered = tuple(sorted(classes))
    return ClassAlphabet(classes=ordered, segment_map=mapping)


@functools.cache
def default_alphabet() -> ClassAlphabet:
    """The packaged ten-class consonant table (loaded once, then cached)."""
    data = resources.files("relate.data").joinpath("dolgo_classes.tsv")
    return load_alphabet(data.read_text(encoding="utf-8"))
