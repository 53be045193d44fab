"""Wordlist ingestion and preprocessing.

A wordlist is a set of attested word forms indexed by (language, concept).
Parsing reads UTF-8 TSV with a header row; preprocessing filters flagged or
too-short forms and reduces every slot to at most one form, so that the
alignment stage sees one word per language per concept.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import IO

from . import soundclass
from .errors import (
    EmptyInputError,
    ParseError,
    SchemaError,
    UnknownSegmentError,
    read_text,
)

#: Annotation flags recognized on entries. LOAN comes from the 0/1 LOAN
#: column; the rest come from the free TAG column.
KNOWN_FLAGS = frozenset({"LOAN", "ONOMATOPOEIA", "NURSERY", "SHORT"})

#: Column names of the tab-separated wordlist format.
LANGUAGE_COL = "LANGUAGE"
CONCEPT_COL = "CONCEPT"
FORM_COL = "FORM"
SEGMENTS_COL = "SEGMENTS"
LOAN_COL = "LOAN"
TAG_COL = "TAG"
CORE_RANK_COL = "CORE_RANK"


@dataclass(frozen=True)
class LexEntry:
    """One attested word: a form for a concept in a language.

    ``segments`` overrides tokenization when the source provides expert
    segmentation. ``core_rank`` orders synonyms by how central the form is
    to the concept (0 is most central).
    """

    language: str
    concept: str
    form: str
    segments: tuple[str, ...] | None = None
    flags: frozenset[str] = frozenset()
    core_rank: int | None = None

    def __post_init__(self):
        if not self.language or not self.concept or not self.form:
            raise SchemaError("language, concept and form must be non-empty")
        if self.core_rank is not None and self.core_rank < 0:
            raise SchemaError("core_rank must be non-negative")
        unknown = self.flags - KNOWN_FLAGS
        if unknown:
            raise SchemaError(f"unknown flags {sorted(unknown)}")

    def encode(self, alphabet: soundclass.ClassAlphabet) -> soundclass.ClassSequence:
        """Consonant-class sequence of the expert segments when given, of
        the tokenized form otherwise; see :func:`soundclass.encode_segments`."""
        if self.segments is not None:
            return soundclass.encode_segments(self.segments, alphabet, form=self.form)
        return soundclass.encode_form(self.form, alphabet)


@dataclass(frozen=True)
class Wordlist:
    """An ordered collection of entries over fixed language and concept lists.

    ``languages`` and ``concepts`` keep their first-appearance order from the
    source; both act as the canonical axis order downstream.
    """

    languages: tuple[str, ...]
    concepts: tuple[str, ...]
    entries: tuple[LexEntry, ...]

    def __post_init__(self):
        lang_set, concept_set = set(self.languages), set(self.concepts)
        if len(lang_set) != len(self.languages):
            raise SchemaError("duplicate language names")
        if len(concept_set) != len(self.concepts):
            raise SchemaError("duplicate concept names")
        for entry in self.entries:
            if entry.language not in lang_set:
                raise SchemaError(f"entry language {entry.language!r} not listed")
            if entry.concept not in concept_set:
                raise SchemaError(f"entry concept {entry.concept!r} not listed")

    def entries_by_slot(self) -> dict[tuple[str, str], list[LexEntry]]:
        slots: dict[tuple[str, str], list[LexEntry]] = {}
        for entry in self.entries:
            slots.setdefault((entry.language, entry.concept), []).append(entry)
        return slots

    def entry_by_slot(self) -> dict[tuple[str, str], LexEntry]:
        """The entry of every filled slot. Alignment and the permutation
        test compare one word per language and concept, so a slot holding
        two forms raises :class:`SchemaError` naming it."""
        slots = {}
        for (language, concept), entries in self.entries_by_slot().items():
            if len(entries) > 1:
                raise SchemaError(
                    f"{language!r} / {concept!r} holds {len(entries)} forms; "
                    f"reduce to one per slot first"
                )
            slots[(language, concept)] = entries[0]
        return slots


def parse_wordlist(source: IO | bytes | str) -> Wordlist:
    """Parse a TSV wordlist.

    LANGUAGE, CONCEPT and FORM columns are required; SEGMENTS (space
    separated), LOAN (0/1), TAG (comma separated flag names) and CORE_RANK
    (non-negative integer) are honored when present. Exact duplicate rows
    are dropped silently. Raises :class:`SchemaError` for missing columns,
    :class:`ParseError` (with a line number) for malformed rows, and
    :class:`EmptyInputError` for an input with no data rows.
    """
    text = read_text(source, "wordlist")
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise EmptyInputError("wordlist is empty")

    rows = list(csv.reader(lines, delimiter="\t"))
    header = [h.strip() for h in rows[0]]
    required = [LANGUAGE_COL, CONCEPT_COL, FORM_COL]
    missing = [col for col in required if col not in header]
    if missing:
        raise SchemaError(f"wordlist lacks required columns {missing}; header is {header}")
    col = {name: header.index(name) for name in header}

    def get(row: list[str], name: str) -> str:
        idx = col.get(name)
        return row[idx].strip() if idx is not None else ""

    languages: dict[str, None] = {}
    concepts: dict[str, None] = {}
    entries: list[LexEntry] = []
    seen: set[LexEntry] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, found {len(row)}", line=lineno
            )
        language = get(row, LANGUAGE_COL)
        concept = get(row, CONCEPT_COL)
        form = get(row, FORM_COL)
        if not language or not concept or not form:
            raise ParseError("empty LANGUAGE, CONCEPT or FORM field", line=lineno)

        segments: tuple[str, ...] | None = None
        raw_segments = get(row, SEGMENTS_COL)
        if raw_segments:
            segments = tuple(raw_segments.split())

        flags = set()
        raw_loan = get(row, LOAN_COL)
        if raw_loan:
            if raw_loan not in ("0", "1"):
                raise ParseError(f"LOAN must be 0 or 1, got {raw_loan!r}", line=lineno)
            if raw_loan == "1":
                flags.add("LOAN")
        raw_tags = get(row, TAG_COL)
        if raw_tags:
            for tag in raw_tags.split(","):
                tag = tag.strip().upper()
                if not tag:
                    continue
                if tag not in KNOWN_FLAGS:
                    raise ParseError(f"unknown tag {tag!r}", line=lineno)
                flags.add(tag)

        core_rank: int | None = None
        raw_rank = get(row, CORE_RANK_COL)
        if raw_rank:
            try:
                core_rank = int(raw_rank)
            except ValueError:
                raise ParseError(f"CORE_RANK must be an integer, got {raw_rank!r}", line=lineno) from None
            if core_rank < 0:
                raise ParseError("CORE_RANK must be non-negative", line=lineno)

        entry = LexEntry(
            language=language,
            concept=concept,
            form=form,
            segments=segments,
            flags=frozenset(flags),
            core_rank=core_rank,
        )
        if entry in seen:
            continue
        seen.add(entry)
        languages.setdefault(language)
        concepts.setdefault(concept)
        entries.append(entry)

    if not entries:
        raise EmptyInputError("wordlist has a header but no data rows")

    ranked: dict[tuple[str, str], set[int]] = {}
    for entry in entries:
        if entry.core_rank is None:
            continue
        slot = ranked.setdefault((entry.language, entry.concept), set())
        if entry.core_rank in slot:
            raise ParseError(
                f"duplicate CORE_RANK {entry.core_rank} for "
                f"{entry.language!r} / {entry.concept!r}"
            )
        slot.add(entry.core_rank)

    return Wordlist(
        languages=tuple(languages),
        concepts=tuple(concepts),
        entries=tuple(entries),
    )


@dataclass(frozen=True)
class FilterPolicy:
    """Which entries to drop before alignment.

    ``min_classes`` is the minimum length of the consonant-class encoding;
    forms whose encoding is shorter carry too little comparable material.
    Entries whose encoding fails (unknown segments) are kept so that the
    error surfaces later with full context. ``alphabet`` defaults to the
    packaged table.
    """

    drop_loans: bool = True
    drop_flags: frozenset[str] = frozenset({"ONOMATOPOEIA", "NURSERY", "SHORT"})
    min_classes: int = 2
    alphabet: soundclass.ClassAlphabet | None = None


def filter_forms(wl: Wordlist, policy: FilterPolicy = FilterPolicy()) -> Wordlist:
    """Drop loans, flagged entries and too-short forms per ``policy``.

    Language and concept lists are preserved even when every entry for one
    of them is dropped; downstream stages decide whether empty columns are
    tolerable.
    """
    alphabet = policy.alphabet
    if alphabet is None and policy.min_classes > 0:
        alphabet = soundclass.default_alphabet()
    kept = []
    for entry in wl.entries:
        if policy.drop_loans and "LOAN" in entry.flags:
            continue
        if entry.flags & policy.drop_flags:
            continue
        if policy.min_classes > 0:
            try:
                encoded = entry.encode(alphabet)
            except UnknownSegmentError:
                encoded = None
            if encoded is not None and len(encoded) < policy.min_classes:
                continue
        kept.append(entry)
    return Wordlist(languages=wl.languages, concepts=wl.concepts, entries=tuple(kept))


def select_core_form(wl: Wordlist, rng_seed: int = 42) -> Wordlist:
    """Reduce every (language, concept) slot to at most one entry.

    The lowest ``core_rank`` wins; unranked entries lose to ranked ones.
    Remaining ties are broken by a uniform draw from a generator seeded with
    ``rng_seed``, so the choice is reproducible. Slots that already hold a
    single entry consume no randomness, which makes the operation
    idempotent for a fixed seed.
    """
    rng = random.Random(rng_seed)
    slots = wl.entries_by_slot()
    chosen = []
    for language in wl.languages:
        for concept in wl.concepts:
            candidates = slots.get((language, concept))
            if not candidates:
                continue
            if len(candidates) == 1:
                chosen.append(candidates[0])
                continue
            best_rank = min(
                (e.core_rank for e in candidates if e.core_rank is not None),
                default=None,
            )
            pool = [e for e in candidates if e.core_rank == best_rank]
            pool.sort(key=lambda e: (e.form, e.segments or ()))
            chosen.append(pool[0] if len(pool) == 1 else rng.choice(pool))
    return Wordlist(languages=wl.languages, concepts=wl.concepts, entries=tuple(chosen))
