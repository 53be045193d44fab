"""Sound-class encoding of word forms.

Words are segmented by greedy longest match against a segment table and each
segment is mapped to a coarse consonant class. Vowels carry almost no signal
for deep comparison, so they are tagged with a separate marker and dropped
from the encoded sequence; what remains is the consonant-class skeleton that
the alignment and distance code consumes.
"""

from __future__ import annotations

import csv
import functools
import io
import unicodedata
from dataclasses import dataclass
from importlib import resources
from typing import IO, Iterable

from .errors import EmptyInputError, SchemaError, UnknownSegmentError, read_header, read_text

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
        longest = max((len(s) for s in self.segment_map), default=1)
        object.__setattr__(self, "_longest_segment", longest)

    @property
    def longest_segment(self) -> int:
        return self._longest_segment


def tokenize_form(form: str, alphabet: ClassAlphabet) -> list[str]:
    """Split ``form`` into segments by greedy longest match.

    The form is NFC-normalized and lowercased first. Substrings not in the
    segment table come through as single-character segments; whitespace is
    skipped. Raises ``ValueError`` on an empty form.
    """
    if not form:
        raise ValueError("cannot tokenize an empty form")
    text = unicodedata.normalize("NFC", form).lower()
    table = alphabet.segment_map
    limit = alphabet.longest_segment
    segments = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        for width in range(min(limit, len(text) - i), 0, -1):
            candidate = text[i : i + width]
            if candidate in table:
                segments.append(candidate)
                i += width
                break
        else:
            segments.append(text[i])
            i += 1
    return segments


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

    ``source`` may be a text or byte stream, raw bytes, or a string of TSV
    content; fields are read verbatim, quote characters included. Class
    symbols must be one of the ten consonant classes or the vowel marker
    ``V``. Classes are ordered canonically when they are a subset of the
    default ten, alphabetically otherwise.
    """
    text = read_text(source, "segment table")
    if not text.strip():
        raise EmptyInputError("segment table is empty")
    reader = csv.reader(io.StringIO(text), delimiter="\t", quoting=csv.QUOTE_NONE)
    header = read_header(next(reader), "segment table")
    try:
        seg_col = header.index("SEGMENT")
        cls_col = header.index("CLASS")
    except ValueError:
        raise SchemaError(
            f"segment table must have SEGMENT and CLASS columns, got {header}"
        ) from None
    mapping: dict[str, str] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise SchemaError(f"segment table row {lineno} has {len(row)} fields")
        segment = unicodedata.normalize("NFC", row[seg_col].strip()).lower()
        symbol = row[cls_col].strip()
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
