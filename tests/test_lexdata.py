"""Wordlist ingestion, filtering, and core-form selection."""

import hashlib
import sys
from pathlib import Path

import pytest

from helpers import related_wordlist_rows, wordlist_text
from relate import soundclass
from relate.errors import EmptyInputError, ParseError, SchemaError, UnknownSegmentError
from relate.lexdata import (
    FilterPolicy,
    LexEntry,
    Wordlist,
    filter_forms,
    parse_wordlist,
    select_core_form,
)
from relate.msa import build_character_matrix
from relate.permtest import WordMetric, load_external_table, pairwise_significance, run_permtest
from relate.soundclass import default_alphabet, encode_form, encode_segments, load_alphabet

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


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


@pytest.mark.parametrize("reader, text, column", [
    (parse_wordlist, "LANGUAGE\tCONCEPT\tFORM\tFORM\nLatin\thorn\tcornu\tkeras\n", "FORM"),
    (load_external_table,
     "LANG_A\tWORD_A\tLANG_B\tWORD_B\tDIST\tDIST\nA\tka\tB\tko\t0.5\t0.9\n", "DIST"),
    (load_alphabet, "SEGMENT\tCLASS\tCLASS\nk\tK\tT\nt\tT\tK\n", "CLASS"),
], ids=["wordlist", "distance-table", "segment-table"])
def test_repeated_column_is_rejected_by_name(reader, text, column):
    with pytest.raises(SchemaError, match=f"repeats column '{column}'"):
        reader(text)


def test_repeated_blank_column_is_ignored():
    wl = parse_wordlist("LANGUAGE\tCONCEPT\tFORM\t\t\nLatin\thorn\tcornu\t\t\n")
    assert wl.entries[0].form == "cornu"


def test_quote_characters_are_part_of_a_wordlist_field():
    # An opening quote does not swallow the rows after it.
    wl = parse_wordlist('LANGUAGE\tCONCEPT\tFORM\nA\thand\t"ka\nA\tfoot\tpo\nB\thand\tki\n')
    assert [e.form for e in wl.entries] == ['"ka', "po", "ki"]
    assert parse_wordlist('LANGUAGE\tCONCEPT\tFORM\nA\thand\t"ka"\n').entries[0].form == '"ka"'


def test_quote_characters_are_part_of_a_distance_table_field():
    table = load_external_table(
        'LANG_A\tWORD_A\tLANG_B\tWORD_B\tDIST\nA\t"ka\tB\tko\t0.5\nA\tpa\tB\tko\t0.25\n')
    assert table[("A", '"ka', "B", "ko")] == 0.5
    assert table[("A", "pa", "B", "ko")] == 0.25


def test_quote_characters_are_part_of_a_segment_table_field():
    alphabet = load_alphabet('SEGMENT\tCLASS\n"k\tK\nt\tT\n')
    assert alphabet.segment_map == {'"k': "K", "t": "T"}


#: Each TSV reader, a header and two data rows with the field "ka" on
#: line 2, and what the reader made of that field.
READERS = pytest.mark.parametrize("reader, text, field", [
    (parse_wordlist, "LANGUAGE\tCONCEPT\tFORM\nLatin\tka\tcornu\nLatin\tfoot\tpes\n",
     lambda wl: wl.concepts[0]),
    (load_external_table,
     "LANG_A\tWORD_A\tLANG_B\tWORD_B\tDIST\nA\tka\tB\tko\t0.5\nA\tpa\tB\tko\t0.25\n",
     lambda table: next(iter(table))[1]),
    (load_alphabet, "SEGMENT\tCLASS\nka\tT\nk\tK\n",
     lambda alphabet: next(iter(alphabet.segment_map))),
], ids=["wordlist", "distance-table", "segment-table"])


@READERS
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_leading_byte_order_mark_is_dropped(reader, text, field, as_bytes):
    marked = "\ufeff" + text
    assert reader(marked.encode("utf-8") if as_bytes else marked) == reader(text)


@READERS
def test_lf_crlf_and_cr_line_endings_read_alike(reader, text, field):
    gapped = text.replace("\n", "\n\n", 1)  # a blank row after the header
    assert field(reader(text)) == "ka"
    assert (reader(text) == reader(gapped.replace("\n", "\r\n"))
            == reader(gapped.replace("\n", "\r")) == reader(text.replace("\n", "\r")))


ENDINGS = pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])


@READERS
@ENDINGS
def test_ragged_row_is_a_parse_error_with_its_line(reader, text, field, ending):
    with pytest.raises(ParseError, match="row has 1 fields") as err:
        reader((text + "x\n").replace("\n", ending))
    assert err.value.line == 4


@READERS
@ENDINGS
def test_oversized_field_is_a_parse_error_with_its_line(reader, text, field, ending):
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        reader(text.replace("ka", "k" * 200_000).replace("\n", ending))
    assert err.value.line == 2


@READERS
@pytest.mark.parametrize("separator", ["\u2028", "\f"], ids=["line-separator", "form-feed"])
def test_unicode_line_breaks_stay_inside_their_field(reader, text, field, separator):
    # Rows end at LF, CRLF and CR only.
    assert field(reader(text.replace("ka", f"k{separator}a"))) == f"k{separator}a"


# sha256 of the language, concept, form and classes ("!" for a form with an
# unknown segment) of every entry of the wordlists of the matrix-build
# benchmark, seed 1, inputs 0-3.
CLASS_SEQUENCES = {
    0: "f3b825927bae94e81057061cec54258192d51813788b6f0e33fd1f423fbdd699",
    1: "1a78e4b50580d246bed329e1132c9ef805bae7e7ef5b1943dcda1541fb1359fd",
    2: "81a16388b29a83fccc7969355fa4a91c22f298a7d04415af6b94a6ecdfea996e",
    3: "ae07e1ce7e4ab8ba7dbfa507e29023a23089b6ecef5f4db0a13265e52767f041",
}


@pytest.mark.parametrize("index", sorted(CLASS_SEQUENCES))
def test_class_sequences_of_the_benchmark_wordlists_are_pinned(index):
    wl = parse_wordlist(workloads.matrix_input(workloads.input_seed(1, index)).tsv)

    def classes(entry):
        try:
            return " ".join(wl.classes(entry))
        except UnknownSegmentError:
            return "!"

    text = "\n".join(f"{e.language}\t{e.concept}\t{e.form}\t{classes(e)}" for e in wl.entries)
    assert hashlib.sha256(text.encode()).hexdigest() == CLASS_SEQUENCES[index]


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


class TestWordlistClasses:
    def test_parse_keeps_the_given_alphabet_and_derived_lists_hand_it_on(self):
        alphabet = load_alphabet("SEGMENT\tCLASS\nk\tK\nn\tK\na\tV\n")
        wl = parse_wordlist(wordlist_text([("Latin", "horn", "kana")]), alphabet)
        assert wl.alphabet is alphabet
        assert wl.classes(wl.entries[0]) == ("K", "K")
        assert select_core_form(filter_forms(wl)).alphabet is alphabet
        assert parse_wordlist(wordlist_text([("Latin", "horn", "kana")])).alphabet \
            is default_alphabet()

    def test_unknown_segment_raises_as_encode_does(self):
        wl = make_wordlist(entry(form="kana", segments=("k", "#")))
        with pytest.raises(UnknownSegmentError) as err:
            wl.classes(wl.entries[0])
        assert "kana" in str(err.value)

    def test_each_checked_word_is_encoded_once_through_both_tests(self, monkeypatch):
        rows = [row + ("0", "") for row in related_wordlist_rows(4, 15, seed=5)]
        rows += [("L00", "c000", "tara", "1", ""),      # loan: never encoded
                 ("L01", "c001", "mama", "0", "NURSERY"),  # flagged: never encoded
                 ("L02", "c002", "ka", "0", ""),         # too short: encoded, dropped
                 ("L03", "c003", "sumi", "0", "")]       # a synonym for the draw
        text = wordlist_text(rows, header=("LANGUAGE", "CONCEPT", "FORM", "LOAN", "TAG"))
        calls = []
        original = soundclass.encode_segments
        monkeypatch.setattr(
            soundclass, "encode_segments", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        wl = parse_wordlist(text)
        policy = FilterPolicy()
        checked = [
            e for e in wl.entries if "LOAN" not in e.flags and not e.flags & policy.drop_flags
        ]
        assert len(checked) == len(wl.entries) - 2
        chosen = select_core_form(filter_forms(wl, policy), rng_seed=3)
        assert len(chosen.entries) < len(checked)
        build_character_matrix(chosen)
        run_permtest(WordMetric.p1_dolgo(), chosen, n_perm=5)
        pairwise_significance(WordMetric.turchin(), chosen, n_perm=5)
        # Related languages share forms, and a shared form is encoded once.
        words = {(e.form, e.segments) for e in checked}
        assert len(calls) == len(words) < len(checked)


class TestFilterForms:
    def test_negative_min_classes_rejected(self):
        with pytest.raises(SchemaError, match="min_classes"):
            FilterPolicy(min_classes=-1)

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
