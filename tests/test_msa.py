"""Pairwise and progressive alignment, and the concatenated matrix."""

import hashlib
import itertools
import sys
import warnings
from pathlib import Path

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
    CharacterMatrix,
    ConceptAlignment,
    build_character_matrix,
    pairwise_align,
    progressive_align,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# The oracles' (match, mismatch, gap_open, gap_extend): one gap score.
SCORES = (msa.MATCH, msa.MISMATCH, msa.GAP_SCORE, msa.GAP_SCORE)

SHORT_WORDS = [tuple(p) for n in range(4)
               for p in itertools.product("KRS", repeat=n)]


def _all_pair_scores(words):
    """``msa._pair_scores`` of every word pair (a, b), a < b, in
    ``itertools.combinations`` order, all in one batch."""
    index = {}
    lengths = np.array([len(w) for w in words])
    codes = np.zeros((max(lengths), len(words)), dtype=int)
    for k, w in enumerate(words):
        codes[: len(w), k] = [index.setdefault(c, len(index) + 1) for c in w]
    ia, ib = np.triu_indices(len(words), 1)
    return msa._pair_scores(codes[:, ia], codes[:, ib], lengths[ia], lengths[ib])


class TestPairwiseAlign:
    def test_identity_has_no_gaps(self):
        row_a, row_b, score = pairwise_align(("K", "R", "N"), ("K", "R", "N"))
        assert row_a == row_b == ("K", "R", "N")
        assert score == 3 * msa.MATCH

    def test_single_mismatch_beats_gapping(self):
        row_a, row_b, score = pairwise_align(("K", "R", "S"), ("K", "R", "N"))
        assert row_a == ("K", "R", "S")
        assert row_b == ("K", "R", "N")
        assert score == 2 * msa.MATCH + msa.MISMATCH

    def test_empty_versus_one_symbol(self):
        row_a, row_b, score = pairwise_align((), ("K",))
        assert row_a == ("-",)
        assert row_b == ("K",)
        assert score == msa.GAP_SCORE

    def test_both_empty(self):
        assert pairwise_align((), ()) == ((), (), 0.0)

    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_score_matches_enumeration_on_short_words(self, seed):
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(SHORT_WORDS), size=(60, 2))
        for i, j in picks:
            a, b = SHORT_WORDS[int(i)], SHORT_WORDS[int(j)]
            row_a, row_b, score = pairwise_align(a, b)
            best = oracles.best_alignment_score(a, b, *SCORES)
            assert score == pytest.approx(best)
            # The returned alignment itself must realize the optimum.
            rescored = oracles.score_pairwise_rows(row_a, row_b, *SCORES)
            assert rescored == pytest.approx(best)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_batched_scores_match_enumeration_on_all_short_word_pairs(
            self, reverse):
        # Every pair of the short-word set (the empty word included) in one
        # batch, in both orientations; the scores are dyadic, so exact.
        words = SHORT_WORDS[::-1] if reverse else SHORT_WORDS
        scores = _all_pair_scores(words)
        pairs = list(itertools.combinations(words, 2))
        assert len(scores) == len(pairs)
        for (a, b), score in zip(pairs, scores):
            assert score == oracles.best_alignment_score(a, b, *SCORES)
            assert score == pairwise_align(a, b)[2]

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_batched_scores_equal_traced_scores_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        words = [tuple(rng.choice(list("PTKSRNM"), size=n))
                 for n in rng.integers(1, 9, size=14)]
        words.append(("K",) * 15)
        scores = _all_pair_scores(words)
        for (a, b), score in zip(itertools.combinations(words, 2), scores):
            assert score == pairwise_align(a, b)[2]

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
        # column; the optimum has width 4.
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
            projected = oracles.score_pairwise_rows(ra, rb, *SCORES)
            best = oracles.best_alignment_score(sa, sb, *SCORES)
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


def _reference_alignment(seqs, concept="?"):
    rows = oracles.reference_progressive_align(seqs, *SCORES)
    return ConceptAlignment(concept=concept, rows=rows, width=len(rows[0]))


def _concept_seqs(wl):
    """(concept, encoded words) of every concept, one word per language and
    the empty tuple where a language has none."""
    slots = wl.entry_by_slot()
    return [
        (concept, [wl.classes(slots[language, concept]) if (language, concept) in slots
                   else () for language in wl.languages])
        for concept in wl.concepts
    ]


def _concatenated(wl, align):
    """The character matrix of ``wl`` built one concept at a time with
    ``align(seqs, concept)``, skipping concepts without a word."""
    columns = [[] for _ in wl.languages]
    bounds = []
    for concept, seqs in _concept_seqs(wl):
        if not any(seqs):
            continue
        alignment = align(seqs, concept)
        for row, aligned in zip(columns, alignment.rows):
            row.extend(aligned)
        start = bounds[-1][2] if bounds else 0
        bounds.append((concept, start, start + alignment.width))
    return CharacterMatrix(wl.languages, columns, bounds)


class TestMatchesOneAtATimeReference:
    """Batched guide-tree scores, stacked linkage and batched profile merges
    reproduce the pair-by-pair, cell-by-cell alignment exactly."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", CASES)
    def test_progressive_align(self, case, seed):
        rng = np.random.default_rng(CASES.index(case) + 10 * seed)
        for _ in range(12):
            seqs = _concept_case(rng, case)
            got = progressive_align(seqs, "c")
            assert got == _reference_alignment(seqs, "c"), seqs

    @pytest.mark.parametrize("seed", range(3, 11))
    def test_build_character_matrix(self, seed):
        rng = np.random.default_rng(seed)
        rows = helpers.related_wordlist_rows(7, 25, seed, mutation=0.5)
        # Missing slots, one-class words, a long word and shared forms.
        rows = [r for r in rows if rng.random() > 0.15]
        rows += [(f"L{i:02d}", "short", "ka") for i in range(4)]
        rows += [("L00", "long", "takasanamaparatakasanama"),
                 ("L01", "long", "ta"), ("L02", "long", "kan")]
        wl = parse_wordlist(wordlist_text(rows))
        got = build_character_matrix(wl)
        want = _concatenated(wl, _reference_alignment)
        assert got == want
        assert got.to_alignment_text() == want.to_alignment_text()


class TestBatchIndependence:
    """Every concept of a wordlist aligns in one batch exactly as it aligns
    alone, whatever else the batch holds."""

    @pytest.mark.parametrize("seed", range(4))
    def test_each_concept_equals_progressive_align_alone(self, seed, caplog):
        rng = np.random.default_rng(seed)
        # 17 to 24 present words per concept, the range of the benchmark's
        # wordlists, beside a one-word concept, a 12-class word among
        # 2-class words and a concept without an encodable word.
        present = {f"c{j:03d}": rng.choice(24, size=int(rng.integers(17, 25)), replace=False)
                   for j in range(10)}
        rows = [r for r in helpers.related_wordlist_rows(24, 10, seed, mutation=0.5)
                if int(r[0][1:]) in present[r[1]]]
        rows += [("L05", "one", "kan"), ("L00", "long", "takasanamaparatakasanama")]
        rows += [(f"L{i:02d}", "long", "kan" if i % 2 else "tama") for i in range(1, 9)]
        rows += [("L03", "vowels", "aiea"), ("L04", "vowels", "oi")]
        wl = parse_wordlist(wordlist_text(rows))
        seqs = dict(_concept_seqs(wl))
        assert sum(map(bool, seqs["one"])) == 1
        assert sorted({len(s) for s in seqs["long"]}) == [0, 2, 12]
        assert {sum(map(bool, seqs[c])) for c in present} <= set(range(17, 25))

        with caplog.at_level("WARNING"):
            matrix = build_character_matrix(wl)
        assert any("'vowels'" in r.getMessage() for r in caplog.records)
        assert "vowels" not in [c for c, _, _ in matrix.concept_bounds]
        assert matrix == _concatenated(wl, progressive_align)


# sha256 of to_alignment_text() of the matrices of the matrix-build
# benchmark, seed 1, inputs 0-3.
BENCHMARK_MATRICES = {
    0: "d88e930b0adb4bc9cc848ae1574f81d0e83812cb14aec5cb3de28cb2d23404ec",
    1: "3d39a2ebd9bd487ff66b35a3d2cae43cd7ca3c5d9ad625b44aa02fc6665e76d6",
    2: "6285e645a0ac7ddafb60ba88ca09c93ef60b6a2b3a608a151eb2c3bfdc6dfe8a",
    3: "0155b30d93e33bc74b17e1e894565e869e33bd64e08467d8d82466bc9299f105",
}


@pytest.mark.parametrize("index", sorted(BENCHMARK_MATRICES))
def test_benchmark_matrix_is_byte_identical(index):
    inp = workloads.matrix_input(workloads.input_seed(1, index))
    _, matrix = workloads.matrix_operation(inp)
    text = matrix.to_alignment_text()
    assert hashlib.sha256(text.encode()).hexdigest() == BENCHMARK_MATRICES[index]


def _counts(rows, n_codes):
    """Column counts (columns, codes) of an integer-coded profile whose
    rows are words, code 0 = gap."""
    return (rows[:, :, None] == np.arange(n_codes)).sum(axis=0).astype(float)


def _stacked(profiles):
    """Column counts of profiles as one zero-padded batch, and their widths."""
    widths = np.array([len(p) for p in profiles])
    out = np.zeros((len(profiles), widths.max(), profiles[0].shape[1]))
    for k, p in enumerate(profiles):
        out[k, : len(p)] = p
    return out, widths


def _merge_pairs(cases, n_codes):
    """(aligned column pairs, None for a gap; score) of every (rows_a,
    rows_b) case, all merged in one batch."""
    counts_a, n_a = _stacked([_counts(a, n_codes) for a, _ in cases])
    counts_b, n_b = _stacked([_counts(b, n_codes) for _, b in cases])
    columns, widths, scores = msa._merge(counts_a, counts_b, n_a, n_b)
    out = []
    for k in range(len(cases)):
        pairs = [[None, None] for _ in range(widths[k])]
        for side, n in enumerate((n_a[k], n_b[k])):
            for c in range(n):
                pairs[columns[side, k, c]][side] = c
        out.append(([tuple(p) for p in pairs], float(scores[k])))
    return out


def _gappy_profile(rng, n_codes):
    # Gap-heavy profiles over few symbols: many near-ties.
    shape = rng.integers(1, 8), rng.integers(1, 9)
    return rng.integers(1, n_codes, size=shape) * (rng.random(shape) > 0.4)


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_column_scores_match_reference_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    symbols = "-PTKSRN"
    cases = []
    for r_a, r_b in [(1, 1), (3, 5), (7, 4), (12, 11)]:
        # Gap-heavy profiles: code 0 is the gap.
        rows_a = rng.integers(0, len(symbols), size=(r_a, 6)) * (rng.random((r_a, 6)) > 0.3)
        rows_b = rng.integers(0, len(symbols), size=(r_b, 5)) * (rng.random((r_b, 5)) > 0.3)
        cases.append((rows_a, rows_b))
    counts_a = [_counts(a, len(symbols)) for a, _ in cases]
    counts_b = [_counts(b, len(symbols)) for _, b in cases]
    batched = msa._column_scores(np.stack(counts_a), np.stack(counts_b))
    for k, (rows_a, rows_b) in enumerate(cases):
        alone = msa._column_scores(counts_a[k][None], counts_b[k][None])[0]
        for i in range(6):
            for j in range(5):
                want = oracles.reference_column_score(
                    [symbols[c] for c in rows_a[:, i]],
                    [symbols[c] for c in rows_b[:, j]],
                    msa.MATCH, msa.MISMATCH, msa.GAP_SCORE)
                assert alone[i, j] == want
                assert batched[k, i, j] == want


# sha256 of to_alignment_text() as the three-state (Gotoh) program built it.
PINNED_MATRICES = {
    31: "9d2afa2bbc79f83b88e6d25d1bd2f170a00cbacd53ccf506f14f8e62dc408d4f",
    32: "594b69f320fb25c4e4af93ac94bf5c1182a4bae10af9fc6e5a5f27c17afd3b19",
    33: "d09eeab0797a3bcc81000506ad8075543510696a2b14cbc61509a54b6844d9f3",
    34: "3da899fd5155a5f47edc6d2e29ac89e4246d50ac1e5a258479d50c9e9acd3dc8",
    35: "5bc13ad1dc83a641dd29badc76e104893bfb689162dabc6472306e3d3d327ad1",
    36: "f1e97f0348db8b5c0af146c0f5a65e40b6e8ffe3c708dd9ef9cb90e1559176d7",
}


@pytest.mark.parametrize("seed", sorted(PINNED_MATRICES))
def test_matrix_is_byte_identical_to_three_state_program(seed):
    rows = helpers.related_wordlist_rows(6 + seed % 3, 30, seed, mutation=0.45)
    text = build_character_matrix(
        parse_wordlist(wordlist_text(rows))).to_alignment_text()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_MATRICES[seed]


class TestTieRule:
    """The one-value traceback breaks ties as the three-state program does:
    a gap state's predecessor is chosen among the states plus the gap
    score, whose rounding can tie values that differ. Every case runs as a
    batch of one and inside a batch of many."""

    def test_gap_move_compares_states_plus_gap_score(self):
        rows_a = np.array([[2, 1, 1, 0, 2, 2, 2]])
        rows_b = np.array([[1], [1], [2], [0], [0], [1], [1]])
        # B's one column pairs with A's column 2, not column 1.
        want = [(0, None), (1, None), (2, 0), (3, None), (4, None), (5, None), (6, None)]
        assert _merge_pairs([(rows_a, rows_b)], 3)[0][0] == want
        rng = np.random.default_rng(5)
        others = [(_gappy_profile(rng, 3), _gappy_profile(rng, 3)) for _ in range(9)]
        assert _merge_pairs(others[:4] + [(rows_a, rows_b)] + others[4:], 3)[4][0] == want

    @pytest.mark.parametrize("seed", range(4))
    def test_pairs_and_score_match_three_state_reference(self, seed):
        rng = np.random.default_rng(seed)
        cases, wants = [], []
        for _ in range(1500):
            n_codes = int(rng.integers(2, 5))
            rows_a, rows_b = _gappy_profile(rng, n_codes), _gappy_profile(rng, n_codes)
            table = msa._column_scores(
                _counts(rows_a, n_codes)[None], _counts(rows_b, n_codes)[None])[0]
            want = oracles._reference_gotoh(
                rows_a.shape[1], rows_b.shape[1], lambda i, j: table[i, j], *SCORES)
            assert _merge_pairs([(rows_a, rows_b)], n_codes) == [want], (rows_a, rows_b)
            cases.append((rows_a, rows_b))
            wants.append(want)
        # Unused codes count zero and change no score.
        assert _merge_pairs(cases, 4) == wants


@pytest.mark.parametrize("seed", range(8))
def test_linkage_order_matches_reference_with_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    # Few distinct values, so many candidate pairs tie at every step.
    upper = np.triu(rng.integers(0, 3, size=(n, n)) / 4.0, 1)
    dist = upper + upper.T
    np.fill_diagonal(dist, np.inf)
    want = oracles.reference_linkage_order(dist)
    order = msa._linkage_orders(dist[None].copy())[0]
    assert [tuple(p) for p in order.tolist()] == want


def test_stacked_linkage_orders_match_reference():
    # Concepts of 1 to 11 words padded with inf into one stack; each
    # concept's first k - 1 pairs are its own merge order.
    rng = np.random.default_rng(9)
    dists = []
    for n in [1, 2, 11, 5, 3, 8, 11, 4]:
        upper = np.triu(rng.integers(0, 3, size=(n, n)) / 4.0, 1)
        dists.append(upper + upper.T)
    stack = np.full((len(dists), 11, 11), np.inf)
    for k, dist in enumerate(dists):
        stack[k, : len(dist), : len(dist)] = dist
        np.fill_diagonal(stack[k], np.inf)
    orders = msa._linkage_orders(stack)
    for k, dist in enumerate(dists):
        got = [tuple(p) for p in orders[k, : len(dist) - 1].tolist()]
        assert got == oracles.reference_linkage_order(dist)


def test_concepts_that_are_done_keep_their_cluster_sizes():
    # Beside a concept of 70 words, a one-word concept is done for 69
    # steps. Doubling its cluster size at each of them would wrap the
    # size to 0 and turn its inf distances into nan with a warning.
    rng = np.random.default_rng(4)
    upper = np.triu(rng.integers(0, 3, size=(70, 70)) / 4.0, 1)
    dist = upper + upper.T
    np.fill_diagonal(dist, np.inf)
    stack = np.full((3, 70, 70), np.inf)
    stack[0] = dist
    stack[2, 0, 1] = stack[2, 1, 0] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orders = msa._linkage_orders(stack)
    assert [tuple(p) for p in orders[0].tolist()] == oracles.reference_linkage_order(dist)
    assert tuple(orders[2, 0]) == (0, 1)

    words = [tuple(rng.choice(list("KRSNM"), size=3)) for _ in range(70)]
    concepts = [words, [("K",)] + [()] * 69, [("K", "S"), ("R",)] + [()] * 68]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = msa._align_all(concepts)
    assert batch == [progressive_align(seqs).rows for seqs in concepts]


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
        row = matrix.cells[matrix.taxa.index("Latin")]
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
        assert all(s == "-" for s in matrix.cells[matrix.taxa.index("English")][start:end])

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

    def test_alignment_text_roundtrip_keeps_spaced_names(self):
        m = CharacterMatrix(["Old English", "Gothic"], [["K", "R"], ["K", "-"]])
        parsed = CharacterMatrix.from_alignment_text(m.to_alignment_text())
        assert parsed == m

    def test_tab_separated_row_may_hold_spaces(self):
        parsed = CharacterMatrix.from_alignment_text(
            "2 4\nOld English\tKR -T\nGothic\tK-PT\n")
        assert parsed.taxa == ("Old English", "Gothic")
        assert ["".join(r) for r in parsed.cells] == ["KR-T", "K-PT"]

    def test_relaxed_phylip_without_tabs_splits_at_whitespace(self):
        parsed = CharacterMatrix.from_alignment_text("2 4\nA  KR -T\nB K-PT\n")
        assert parsed.taxa == ("A", "B")
        assert ["".join(r) for r in parsed.cells] == ["KR-T", "K-PT"]

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
