"""Wordlist ingestion, filtering, and core-form selection."""

import pytest

from helpers import wordlist_text
from relate.errors import EmptyInputError, ParseError, SchemaError, UnknownSegmentError
from relate.lexdata import (
    FilterPolicy,
    LexEntry,
    Wordlist,
    filter_forms,
    parse_wordlist,
    select_core_form,
)
from relate.soundclass import default_alphabet, encode_form, encode_segments


class TestParseWordlist:
    def test_two_rows_one_concept(self):
        text = wordlist_text([("Latin", "horn", "cornu"),
                              ("English", "horn", "horn")])
        wl = parse_wordlist(text)
        assert wl.languages == ("Latin", "English")
        assert wl.concepts == ("horn",)
        assert len(wl.entries) == 2

    def test_missing_form_column_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_wordlist("LANGUAGE\tCONCEPT\nLatin\thorn\n")

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_wordlist("")

    def test_row_with_wrong_field_count_names_line(self):
        text = "LANGUAGE\tCONCEPT\tFORM\nLatin\thorn\n"
        with pytest.raises(ParseError) as err:
            parse_wordlist(text)
        assert err.value.line == 2

    def test_large_sparse_table_reports_all_languages_and_concepts(self):
        # 12 languages x 185 concepts with 11 slots missing: 2209 rows.
        rows = []
        for i in range(12):
            for j in range(185):
                if i == 3 and 100 <= j < 111:
                    continue
                rows.append((f"lang{i:02d}", f"c{j:03d}", f"wa{i}ta{j}"))
        assert len(rows) == 2209
        wl = parse_wordlist(wordlist_text(rows))
        assert len(wl.languages) == 12
        assert len(wl.concepts) == 185

    def test_flags_and_rank_parsed(self):
        text = wordlist_text(
            [("Latin", "horn", "cornu", "", "0", "", "1"),
             ("Latin", "horn", "cornua", "", "1", "NURSERY", "")],
            header=("LANGUAGE", "CONCEPT", "FORM", "SEGMENTS", "LOAN",
                    "TAG", "CORE_RANK"),
        )
        wl = parse_wordlist(text)
        by_form = {e.form: e for e in wl.entries}
        assert by_form["cornu"].core_rank == 1
        assert by_form["cornu"].flags == frozenset()
        assert by_form["cornua"].flags == frozenset({"LOAN", "NURSERY"})
        assert by_form["cornua"].core_rank is None

    def test_loan_column_must_be_binary(self):
        text = wordlist_text(
            [("Latin", "horn", "cornu", "yes")],
            header=("LANGUAGE", "CONCEPT", "FORM", "LOAN"),
        )
        with pytest.raises(ParseError):
            parse_wordlist(text)

    def test_unknown_tag_rejected(self):
        text = wordlist_text(
            [("Latin", "horn", "cornu", "SLANG")],
            header=("LANGUAGE", "CONCEPT", "FORM", "TAG"),
        )
        with pytest.raises(ParseError):
            parse_wordlist(text)

    def test_exact_duplicate_rows_collapse(self):
        text = wordlist_text([("Latin", "horn", "cornu"),
                              ("Latin", "horn", "cornu"),
                              ("English", "horn", "horn")])
        wl = parse_wordlist(text)
        assert len(wl.entries) == 2

    def test_duplicate_rank_within_slot_rejected(self):
        text = wordlist_text(
            [("Latin", "horn", "cornu", "0"),
             ("Latin", "horn", "cornua", "0")],
            header=("LANGUAGE", "CONCEPT", "FORM", "CORE_RANK"),
        )
        with pytest.raises(ParseError):
            parse_wordlist(text)

    def test_crlf_accepted(self):
        text = "LANGUAGE\tCONCEPT\tFORM\r\nLatin\thorn\tcornu\r\n"
        wl = parse_wordlist(text)
        assert len(wl.entries) == 1

    def test_bytes_accepted(self):
        text = wordlist_text([("Latin", "horn", "cornu")]).encode("utf-8")
        wl = parse_wordlist(text)
        assert wl.entries[0].form == "cornu"

    def test_invalid_utf8_is_a_parse_error(self):
        with pytest.raises(ParseError, match="wordlist is not valid UTF-8"):
            parse_wordlist(b"LANGUAGE\tCONCEPT\tFORM\nLatin\thorn\t\xff\n")


def make_wordlist(*entries: LexEntry) -> Wordlist:
    languages = tuple(dict.fromkeys(e.language for e in entries))
    concepts = tuple(dict.fromkeys(e.concept for e in entries))
    return Wordlist(languages, concepts, tuple(entries))


def entry(language="Latin", concept="horn", form="cornu", flags=(),
          core_rank=None, segments=None):
    return LexEntry(language, concept, form, segments, frozenset(flags),
                    core_rank)


class TestEncode:
    def test_expert_segments_override_the_form(self):
        alphabet = default_alphabet()
        plain = entry(form="bhadra")
        segmented = entry(form="bhadra", segments=("b", "h", "a", "d", "r", "a"))
        assert plain.encode(alphabet) == encode_form("bhadra", alphabet)
        assert segmented.encode(alphabet) == encode_segments(
            segmented.segments, alphabet, form="bhadra")
        assert plain.encode(alphabet) != segmented.encode(alphabet)

    def test_unknown_segment_names_the_form(self):
        with pytest.raises(UnknownSegmentError) as err:
            entry(form="kana", segments=("k", "#")).encode(default_alphabet())
        assert "kana" in str(err.value)


class TestFilterForms:
    def test_loan_dropped_by_default(self):
        wl = make_wordlist(entry(form="cornu"),
                           entry(form="karn", flags={"LOAN"}))
        out = filter_forms(wl)
        assert [e.form for e in out.entries] == ["cornu"]

    def test_identity_policy_keeps_everything(self):
        wl = make_wordlist(entry(form="cornu"),
                           entry(form="karn", flags={"LOAN", "NURSERY"}),
                           entry(form="u"))
        policy = FilterPolicy(drop_loans=False, drop_flags=frozenset(), min_classes=0)
        out = filter_forms(wl, policy)
        assert out.entries == wl.entries

    def test_single_consonant_form_dropped_under_min_two(self):
        wl = make_wordlist(entry(form="ka"), entry(form="kana"))
        out = filter_forms(wl)
        assert [e.form for e in out.entries] == ["kana"]

    def test_flagged_forms_dropped(self):
        wl = make_wordlist(entry(form="mama", flags={"NURSERY"}),
                           entry(form="krak", flags={"ONOMATOPOEIA"}),
                           entry(form="kana"))
        out = filter_forms(wl)
        assert [e.form for e in out.entries] == ["kana"]

    def test_languages_kept_as_gaps_when_emptied(self):
        wl = make_wordlist(entry(language="Latin", form="kana"),
                           entry(language="Gaulish", form="ka"))
        out = filter_forms(wl)
        assert out.languages == ("Latin", "Gaulish")

    def test_output_entries_subset_of_input(self):
        wl = make_wordlist(entry(form="kana"), entry(form="ho"),
                           entry(form="tara", flags={"LOAN"}))
        out = filter_forms(wl)
        assert set(out.entries) <= set(wl.entries)


class TestSelectCoreForm:
    def test_lowest_rank_wins(self):
        wl = make_wordlist(entry(form="dull", core_rank=0),
                           entry(form="unsharp", core_rank=1))
        out = select_core_form(wl)
        assert [e.form for e in out.entries] == ["dull"]

    def test_singleton_kept(self):
        wl = make_wordlist(entry(form="cornu"))
        assert select_core_form(wl).entries == wl.entries

    def test_ranked_beats_unranked(self):
        wl = make_wordlist(entry(form="late", core_rank=5),
                           entry(form="none"))
        out = select_core_form(wl)
        assert [e.form for e in out.entries] == ["late"]

    def test_unranked_tie_broken_by_seed_deterministically(self):
        wl = make_wordlist(entry(form="aka"), entry(form="ana"))
        first = select_core_form(wl, rng_seed=1)
        second = select_core_form(wl, rng_seed=1)
        assert first.entries == second.entries
        assert len(first.entries) == 1

    def test_idempotent(self):
        wl = make_wordlist(entry(form="aka"), entry(form="ana"),
                           entry(concept="name", form="nomen"))
        once = select_core_form(wl, rng_seed=9)
        twice = select_core_form(once, rng_seed=9)
        assert once.entries == twice.entries

    def test_one_entry_per_slot_afterwards(self):
        wl = make_wordlist(entry(form="aka"), entry(form="ana"),
                           entry(form="ara", core_rank=2),
                           entry(concept="name", form="nomen"),
                           entry(language="English", form="horn"))
        out = select_core_form(wl, rng_seed=3)
        slots = out.entries_by_slot()
        assert all(len(group) == 1 for group in slots.values())
