"""Pairwise and progressive alignment, and the concatenated matrix."""

import itertools
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
import oracles
from helpers import wordlist_text
from relate.errors import EmptyConceptError, InsufficientDataError, SchemaError
from relate import msa
from relate.lexdata import parse_wordlist
from relate.msa import (
    AlignScoring,
    CharacterMatrix,
    ConceptAlignment,
    build_character_matrix,
    pairwise_align,
    progressive_align,
)

DEFAULT = AlignScoring()
# Gap opening dearer than extension, so swapped open/extend terms show.
AFFINE = AlignScoring(match=2, mismatch=-3, gap_open=-4, gap_extend=-1)
HALF = AlignScoring(match=1.5, mismatch=-0.5, gap_open=-2.5, gap_extend=-0.5)
# Not dyadic: sums round, so any change of summation order shows.
ROUNDING = AlignScoring(match=1.1, mismatch=-0.7, gap_open=-1.3, gap_extend=-0.3)
SCORINGS = [DEFAULT, AFFINE, HALF, ROUNDING]

SHORT_WORDS = [tuple(p) for n in range(4)
               for p in itertools.product("KRS", repeat=n)]


def _codes(words):
    index = {}
    return [np.array([index.setdefault(c, len(index)) for c in w], dtype=int)
            for w in words]


class TestAlignScoring:
    @pytest.mark.parametrize("field", ["match", "mismatch", "gap_open",
                                       "gap_extend"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_scores_are_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            AlignScoring(**{field: value})

    @pytest.mark.parametrize("match", [0.0, -0.5])
    def test_non_positive_match_is_rejected(self, match):
        # match = 0 would divide every guide-tree distance by zero, and a
        # negative match would flip the sign of the distances.
        with pytest.raises(ValueError, match="positive"):
            AlignScoring(match=match, mismatch=-1.0)

    def test_match_must_exceed_mismatch(self):
        with pytest.raises(ValueError, match="exceed"):
            AlignScoring(match=1.0, mismatch=1.0)


class TestPairwiseAlign:
    def test_identity_has_no_gaps(self):
        row_a, row_b, score = pairwise_align(("K", "R", "N"), ("K", "R", "N"))
        assert row_a == row_b == ("K", "R", "N")
        assert score == 3 * DEFAULT.match

    def test_single_mismatch_beats_gapping(self):
        row_a, row_b, score = pairwise_align(("K", "R", "S"), ("K", "R", "N"))
        assert row_a == ("K", "R", "S")
        assert row_b == ("K", "R", "N")
        assert score == 2 * DEFAULT.match + DEFAULT.mismatch

    def test_empty_versus_one_symbol(self):
        row_a, row_b, score = pairwise_align((), ("K",))
        assert row_a == ("-",)
        assert row_b == ("K",)
        assert score == DEFAULT.gap_open

    def test_both_empty(self):
        assert pairwise_align((), ()) == ((), (), 0.0)

    def test_score_matches_enumeration_on_short_words(self):
        rng = np.random.default_rng(5)
        picks = rng.choice(len(SHORT_WORDS), size=(60, 2))
        for i, j in picks:
            a, b = SHORT_WORDS[int(i)], SHORT_WORDS[int(j)]
            row_a, row_b, score = pairwise_align(a, b)
            best = oracles.best_alignment_score(
                a, b, DEFAULT.match, DEFAULT.mismatch,
                DEFAULT.gap_open, DEFAULT.gap_extend)
            assert score == pytest.approx(best)
            # The returned alignment itself must realize the optimum.
            rescored = oracles.score_pairwise_rows(
                row_a, row_b, DEFAULT.match, DEFAULT.mismatch,
                DEFAULT.gap_open, DEFAULT.gap_extend)
            assert rescored == pytest.approx(best)

    @pytest.mark.parametrize("scoring", [DEFAULT, AFFINE, HALF],
                             ids=["default", "affine", "half"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_batched_scores_match_enumeration_on_all_short_word_pairs(
            self, scoring, reverse):
        # Every pair of the short-word set (the empty word included) in one
        # batch, in both orientations; the scorings are dyadic, so exact.
        words = SHORT_WORDS[::-1] if reverse else SHORT_WORDS
        scores = msa._pair_scores(_codes(words), scoring)
        pairs = list(itertools.combinations(words, 2))
        assert len(scores) == len(pairs)
        for (a, b), score in zip(pairs, scores):
            assert score == oracles.best_alignment_score(a, b, *astuple(scoring))
            assert score == pairwise_align(a, b, scoring)[2]

    @pytest.mark.parametrize("scoring", SCORINGS)
    def test_batched_scores_equal_traced_scores_bit_for_bit(self, scoring):
        rng = np.random.default_rng(11)
        words = [tuple(rng.choice(list("PTKSRNM"), size=n))
                 for n in rng.integers(1, 9, size=14)]
        words.append(("K",) * 15)
        scores = msa._pair_scores(_codes(words), scoring)
        for (a, b), score in zip(itertools.combinations(words, 2), scores):
            assert score == pairwise_align(a, b, scoring)[2]

    def test_affine_scoring_with_cheaper_extension(self):
        scoring = AlignScoring(match=2, mismatch=-3, gap_open=-4,
                               gap_extend=-1)
        for a, b in [(("K", "R", "S", "N"), ("K", "N")),
                     (("K",), ("K", "R", "S", "N")),
                     (("P", "T", "K"), ("T", "K", "M", "N"))]:
            _, _, score = pairwise_align(a, b, scoring)
            best = oracles.best_alignment_score(
                a, b, scoring.match, scoring.mismatch,
                scoring.gap_open, scoring.gap_extend)
            assert score == pytest.approx(best)

    def test_gap_stripping_recovers_inputs(self):
        a, b = ("K", "R", "S"), ("S", "R", "N", "K")
        row_a, row_b, _ = pairwise_align(a, b)
        assert tuple(s for s in row_a if s != "-") == a
        assert tuple(s for s in row_b if s != "-") == b
        assert len(row_a) == len(row_b)


class TestProgressiveAlign:
    def test_identical_sequences_stay_gapless(self):
        seqs = [("K", "R", "N")] * 4
        alignment = progressive_align(seqs)
        assert alignment.width == 3
        assert all(row == ("K", "R", "N") for row in alignment.rows)

    def test_horn_words_share_the_liquid_column(self):
        # keras, cornu, horn, srnga. The shared R lands in one gap-free
        # column; under the default scoring the optimum has width 4.
        seqs = [("K", "R", "S"), ("K", "R", "N"), ("H", "R", "N"),
                ("S", "R", "N", "K")]
        alignment = progressive_align(seqs)
        assert alignment.width == 4
        columns = list(zip(*alignment.rows))
        assert ("R", "R", "R", "R") in columns
        for seq, row in zip(seqs, alignment.rows):
            assert tuple(s for s in row if s != "-") == seq

    def test_missing_slot_becomes_all_gap_row(self):
        alignment = progressive_align([("K", "R"), (), ("K", "R")])
        assert alignment.rows[1] == ("-", "-")

    def test_all_slots_empty_is_signaled(self):
        with pytest.raises(EmptyConceptError):
            progressive_align([(), (), ()])

    def test_single_populated_slot(self):
        alignment = progressive_align([(), ("K", "R", "S")])
        assert alignment.rows == (("-", "-", "-"), ("K", "R", "S"))

    def test_no_column_is_all_gap(self):
        seqs = [("K",), ("K",), ("K", "R", "S"), ()]
        alignment = progressive_align(seqs)
        for column in zip(*alignment.rows):
            assert set(column) != {"-"}

    def test_pair_projection_never_beats_pairwise_optimum(self):
        seqs = [("K", "R", "S"), ("K", "N"), ("H", "R", "N", "S"), ("S",)]
        alignment = progressive_align(seqs)
        for (sa, ra), (sb, rb) in itertools.combinations(
                zip(seqs, alignment.rows), 2):
            projected = oracles.score_pairwise_rows(
                ra, rb, DEFAULT.match, DEFAULT.mismatch,
                DEFAULT.gap_open, DEFAULT.gap_extend)
            best = oracles.best_alignment_score(
                sa, sb, DEFAULT.match, DEFAULT.mismatch,
                DEFAULT.gap_open, DEFAULT.gap_extend)
            assert projected <= best + 1e-9


CASES = ("one-symbol", "padding", "two-present", "repeats", "empty-slots",
         "mixed")


def _concept_case(rng, case):
    """One concept's encoded words for a named shape of input."""
    n = int(rng.integers(2, 9))
    symbols = list("PTKSRNM")

    def word(lo, hi):
        return tuple(rng.choice(symbols, size=int(rng.integers(lo, hi + 1))))

    if case == "one-symbol":
        seqs = [word(1, 1) for _ in range(n)]
    elif case == "padding":
        seqs = [word(1, 3) for _ in range(n)]
        seqs[int(rng.integers(n))] = word(12, 16)
    elif case == "two-present":
        seqs = [()] * n
        a, b = rng.choice(n, size=2, replace=False)
        seqs[int(a)], seqs[int(b)] = word(1, 5), word(1, 5)
        return seqs
    elif case == "repeats":
        pool = [word(1, 4) for _ in range(int(rng.integers(1, 4)))]
        seqs = [pool[int(rng.integers(len(pool)))] for _ in range(n)]
    else:
        seqs = [word(1, 6) for _ in range(n)]
    if case == "empty-slots":
        for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False):
            seqs[int(i)] = ()
    return seqs


def _reference_alignment(seqs, scoring=DEFAULT, concept="?"):
    rows = oracles.reference_progressive_align(seqs, *astuple(scoring))
    return ConceptAlignment(concept=concept, rows=rows, width=len(rows[0]))


class TestMatchesOneAtATimeReference:
    """Batched guide-tree scores, array linkage and tabled column scores
    reproduce the pair-by-pair, cell-by-cell alignment exactly."""

    @pytest.mark.parametrize("scoring", SCORINGS)
    @pytest.mark.parametrize("case", CASES)
    def test_progressive_align(self, case, scoring):
        rng = np.random.default_rng(CASES.index(case))
        for _ in range(12):
            seqs = _concept_case(rng, case)
            got = progressive_align(seqs, scoring, "c")
            assert got == _reference_alignment(seqs, scoring, "c"), seqs

    @pytest.mark.parametrize("scoring", SCORINGS)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_build_character_matrix(self, seed, scoring, monkeypatch):
        rng = np.random.default_rng(seed)
        rows = helpers.related_wordlist_rows(7, 25, seed, mutation=0.5)
        # Missing slots, one-class words, a long word and shared forms.
        rows = [r for r in rows if rng.random() > 0.15]
        rows += [(f"L{i:02d}", "short", "ka") for i in range(4)]
        rows += [("L00", "long", "takasanamaparatakasanama"),
                 ("L01", "long", "ta"), ("L02", "long", "kan")]
        wl = parse_wordlist(wordlist_text(rows))
        got = build_character_matrix(wl, scoring=scoring)
        monkeypatch.setattr(msa, "progressive_align", _reference_alignment)
        want = build_character_matrix(wl, scoring=scoring)
        assert got == want
        assert got.to_alignment_text() == want.to_alignment_text()


@pytest.mark.parametrize("scoring", SCORINGS)
def test_column_scores_match_reference_bit_for_bit(scoring):
    rng = np.random.default_rng(21)
    symbols = "-PTKSRN"
    table = msa._symbol_scores(len(symbols), scoring)
    for r_a, r_b in [(1, 1), (3, 5), (7, 4), (12, 11)]:
        # Gap-heavy profiles: code 0 is the gap.
        rows_a = rng.integers(0, len(symbols), size=(r_a, 6)) * (rng.random((r_a, 6)) > 0.3)
        rows_b = rng.integers(0, len(symbols), size=(r_b, 5)) * (rng.random((r_b, 5)) > 0.3)
        got = msa._column_scores(rows_a, rows_b, table)
        for i in range(6):
            for j in range(5):
                want = oracles.reference_column_score(
                    [symbols[c] for c in rows_a[:, i]],
                    [symbols[c] for c in rows_b[:, j]],
                    scoring.match, scoring.mismatch, scoring.gap_extend)
                assert got[i, j] == want


@pytest.mark.parametrize("seed", range(8))
def test_linkage_order_matches_reference_with_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    # Few distinct values, so many candidate pairs tie at every step.
    upper = np.triu(rng.integers(0, 3, size=(n, n)) / 4.0, 1)
    dist = upper + upper.T
    assert msa._average_linkage_order(dist) == oracles.reference_linkage_order(dist)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.sampled_from("PTKSRN"), max_size=5).map(tuple),
                min_size=2, max_size=5))
def test_progressive_align_invariants(seqs):
    if all(not s for s in seqs):
        with pytest.raises(EmptyConceptError):
            progressive_align(seqs)
        return
    alignment = progressive_align(seqs)
    widths = {len(row) for row in alignment.rows}
    assert widths == {alignment.width}
    for seq, row in zip(seqs, alignment.rows):
        assert tuple(s for s in row if s != "-") == tuple(seq)
    for column in zip(*alignment.rows):
        assert set(column) != {"-"}


class TestCharacterMatrix:
    def test_concept_widths_add_up(self):
        text = wordlist_text([
            ("Latin", "horn", "kornu"), ("English", "horn", "horn"),
            ("Latin", "name", "nomen"), ("English", "name", "name"),
        ])
        wl = parse_wordlist(text)
        matrix = build_character_matrix(wl)
        total = sum(end - start for _, start, end in matrix.concept_bounds)
        assert matrix.sites == total
        assert [c for c, _, _ in matrix.concept_bounds] == ["horn", "name"]

    def test_taxa_follow_wordlist_order(self):
        text = wordlist_text([
            ("Zulu", "horn", "kornu"), ("Aari", "horn", "horn"),
        ])
        matrix = build_character_matrix(parse_wordlist(text))
        assert matrix.taxa == ("Zulu", "Aari")

    def test_gap_strip_roundtrip_per_block(self):
        text = wordlist_text([
            ("Latin", "horn", "kornu"), ("English", "horn", "horn"),
            ("Latin", "name", "nomen"), ("English", "name", "name"),
            ("Latin", "two", "duo"),
        ])
        wl = parse_wordlist(text)
        matrix = build_character_matrix(wl)
        row = matrix.row("Latin")
        for concept, start, end in matrix.concept_bounds:
            block = [s for s in row[start:end] if s != "-"]
            if concept == "horn":
                assert block == ["K", "R", "N"]
            elif concept == "name":
                assert block == ["N", "M", "N"]
            else:
                assert block == ["T"] or block == []

    def test_missing_language_block_is_gaps(self):
        text = wordlist_text([
            ("Latin", "horn", "kornu"), ("English", "horn", "horn"),
            ("Latin", "name", "nomen"),
        ])
        matrix = build_character_matrix(parse_wordlist(text))
        concept, start, end = matrix.concept_bounds[1]
        assert concept == "name"
        assert all(s == "-" for s in matrix.row("English")[start:end])

    def test_fewer_than_two_populated_languages_rejected(self):
        text = wordlist_text([("Latin", "horn", "kornu")])
        with pytest.raises(InsufficientDataError):
            build_character_matrix(parse_wordlist(text))

    def test_multiple_entries_per_slot_rejected(self):
        text = wordlist_text([
            ("Latin", "horn", "kornu"), ("Latin", "horn", "kerata"),
            ("English", "horn", "horn"),
        ])
        with pytest.raises(SchemaError, match="'Latin' / 'horn' holds 2 forms"):
            build_character_matrix(parse_wordlist(text))

    def test_determinism(self):
        text = wordlist_text([
            ("Latin", "horn", "kornu"), ("English", "horn", "horn"),
            ("Greek", "horn", "keras"), ("Latin", "name", "nomen"),
            ("Greek", "name", "onoma"),
        ])
        wl = parse_wordlist(text)
        first = build_character_matrix(wl)
        second = build_character_matrix(wl)
        assert first == second
        assert first.to_alignment_text() == second.to_alignment_text()

    def test_alignment_text_roundtrip(self):
        m = CharacterMatrix(["A", "B"], [["K", "R"], ["K", "-"]],
                            [("horn", 0, 2)])
        parsed = CharacterMatrix.from_alignment_text(m.to_alignment_text())
        assert parsed.taxa == m.taxa
        assert np.array_equal(parsed.cells, m.cells)

    def test_fasta_roundtrip(self):
        m = CharacterMatrix(["A", "B"], [["K", "R"], ["K", "-"]],
                            [("horn", 0, 2)])
        parsed = CharacterMatrix.from_fasta(">A\nKR\n>B\nK-\n")
        assert parsed.taxa == m.taxa
        assert np.array_equal(parsed.cells, m.cells)
        assert parsed.to_alignment_text() == m.to_alignment_text()

    def test_dict_roundtrip_keeps_bounds(self):
        m = CharacterMatrix(["A", "B"], [["K", "R"], ["K", "-"]],
                            [("horn", 0, 2)])
        assert CharacterMatrix.from_dict(m.to_dict()) == m

    @pytest.mark.parametrize("bad", ["KR", ""])
    def test_cell_of_other_than_one_character_is_rejected(self, bad):
        with pytest.raises(SchemaError, match=r"row 1 \('B'\), site 1"):
            CharacterMatrix(["A", "B"], [["K", "R"], ["K", bad]])
        with pytest.raises(SchemaError, match=r"row 1 \('B'\)"):
            CharacterMatrix(["A", "B"], np.array([["K", "R"], ["K", bad]]))

    def test_ragged_rows_are_rejected_by_name(self):
        with pytest.raises(SchemaError, match=r"row 2 \('C'\) has 1 cells"):
            CharacterMatrix(["A", "B", "C"], [["K", "R"], ["K", "-"], ["K"]])

    @pytest.mark.parametrize("payload", [
        [1],
        {"taxa": 5, "rows": ["KP", "KT"]},
        {"taxa": "AB", "rows": ["KP", "KT"]},
        {"taxa": ["A", "B"], "rows": [5, 6]},
        {"taxa": ["A", "B"], "rows": ["KP", "KT"], "concept_bounds": [5]},
        {"taxa": ["A", "B"], "rows": ["KP", "KT"], "concept_bounds": [["c", None, 2]]},
        {"taxa": ["A", "B"], "rows": ["KP", "KT"], "concept_bounds": [["c", 0]]},
    ])
    def test_payload_of_wrong_shape_is_rejected(self, payload):
        with pytest.raises(SchemaError):
            CharacterMatrix.from_dict(payload)

    def test_ragged_matrix_payload_is_rejected(self):
        payload = {"taxa": ["A", "B"], "rows": ["KR", "K"]}
        with pytest.raises(SchemaError, match="row 1"):
            CharacterMatrix.from_dict(payload)

    def test_cells_are_read_only(self):
        m = CharacterMatrix(["A", "B"], [["K", "R"], ["K", "-"]],
                            [("horn", 0, 2)])
        with pytest.raises(ValueError):
            m.cells[0, 0] = "T"

    def test_concepts_with_only_vowel_words_are_skipped(self, caplog):
        # All-vowel forms encode to nothing, so the concept has no signal.
        text = wordlist_text([
            ("Latin", "horn", "kornu"), ("English", "horn", "horn"),
            ("Latin", "odd", "aiea"), ("English", "odd", "oi"),
        ])
        wl = parse_wordlist(text)
        with caplog.at_level("WARNING"):
            matrix = build_character_matrix(wl)
        assert [c for c, _, _ in matrix.concept_bounds] == ["horn"]
        assert any("odd" in r.getMessage() for r in caplog.records)

    def test_unknown_segment_is_a_hard_error(self):
        from relate.errors import UnknownSegmentError
        text = wordlist_text([
            ("Latin", "horn", "kornu"), ("English", "horn", "h#rn"),
        ])
        with pytest.raises(UnknownSegmentError):
            build_character_matrix(parse_wordlist(text))
