"""Word metrics, language distances, and the permutation tests."""

import itertools

import numpy as np
import pytest

from helpers import random_wordlist_rows, related_wordlist_rows, wordlist_text
from oracles import (
    reference_agglomerate,
    reference_language_distance,
    reference_merge_tree,
    reference_pairwise,
    reference_shuffle,
    reference_significance,
    reference_streams,
    upgma_merge_heights,
    word_distance,
)
from relate import permtest
from relate.errors import (
    DistanceUndefinedError,
    EmptyInputError,
    ExternalLookupError,
    InsufficientDataError,
    ParseError,
    SchemaError,
)
from relate.lexdata import Wordlist, parse_wordlist
from relate.permtest import (
    EXTERNAL,
    NOT_SUPPORTED,
    P1_DOLGO,
    RELATED,
    TURCHIN,
    WordMetric,
    _CHUNK,
    _cluster_stack,
    _Engine,
    load_external_table,
    _named_merges,
    pairwise_significance,
    run_permtest,
)
from relate.soundclass import default_alphabet, encode_form


def pair_root(metric, wl, lang_a, lang_b, n_perm, seed):
    """The root of a pair's two-language merge tree, the merge that the
    pair's row of the pairwise table reports: ``wl`` cut to the pair, with
    every concept kept in its order."""
    cut = Wordlist(languages=(lang_a, lang_b), concepts=wl.concepts,
                   entries=tuple(e for e in wl.entries if e.language in (lang_a, lang_b)))
    return run_permtest(metric, cut, n_perm, seed).root


def pair_distances(metric, wl):
    """``DIST`` of every language pair, under both orders of the pair, as
    the pairwise table reports it."""
    out = {}
    for row in pairwise_significance(metric, wl, n_perm=1, seed=0):
        out[row["LANG_A"], row["LANG_B"]] = out[row["LANG_B"], row["LANG_A"]] = row["DIST"]
    return out


def language_distance(metric, wl, lang_a, lang_b):
    return pair_distances(metric, wl)[lang_a, lang_b]


def make_wordlist(*rows):
    return parse_wordlist(wordlist_text(rows))


def encoded(form: str):
    return encode_form(form, default_alphabet())


def word_pair_distance(metric, form_a, form_b):
    """``language_distance`` of two languages that share one concept, with
    ``form_a`` and ``form_b`` for it, after checking that it equals the
    per-word oracle on the forms' encodings."""
    wl = make_wordlist(("A", "c1", form_a), ("B", "c1", form_b))
    got = language_distance(metric, wl, "A", "B")
    assert got == word_distance(metric.name, encoded(form_a), encoded(form_b))
    return got


class TestWordDistance:
    def test_cognate_looking_pair_scores_zero(self):
        assert word_pair_distance(WordMetric.p1_dolgo(), "nāma", "name") == 0.0

    def test_identical_word_scores_zero_under_both_rules(self):
        for metric in (WordMetric.p1_dolgo(), WordMetric.turchin()):
            assert word_pair_distance(metric, "bad", "bad") == 0.0

    def test_different_first_class(self):
        # K R S against S R N K.
        for metric in (WordMetric.p1_dolgo(), WordMetric.turchin()):
            assert word_pair_distance(metric, "kars", "sarnak") == 1.0

    def test_first_class_agreement_is_enough_for_p1(self):
        # K R against K T.
        assert word_pair_distance(WordMetric.p1_dolgo(), "kar", "kat") == 0.0

    def test_stricter_rule_compares_two_classes(self):
        metric = WordMetric.turchin()
        assert word_pair_distance(metric, "kar", "kat") == 1.0
        assert word_pair_distance(metric, "kar", "karat") == 0.0

    def test_one_consonant_word_compares_its_prefix(self):
        metric = WordMetric.turchin()
        assert word_pair_distance(metric, "ka", "kar") == 0.0
        assert word_pair_distance(metric, "ta", "kar") == 1.0

    def test_empty_sequences(self):
        # Vowel-only forms encode to the empty sequence.
        assert encoded("ai") == ()
        for metric in (WordMetric.p1_dolgo(), WordMetric.turchin()):
            assert word_pair_distance(metric, "ai", "a") == 0.0
            assert word_pair_distance(metric, "a", "ka") == 1.0
            assert word_pair_distance(metric, "ka", "a") == 1.0

    def test_external_metric_needs_language_context(self):
        # The table is keyed by language and form, not by encoding.
        wl = make_wordlist(("A", "c1", "ka"), ("B", "c1", "ka"))
        metric = WordMetric.external({("A", "ka", "B", "ka"): 0.5,
                                      ("B", "ka", "A", "ka"): 0.5})
        assert language_distance(metric, wl, "A", "B") == 0.5
        with pytest.raises(ValueError):
            word_distance(metric.name, ("K",), ("K",))


class TestWordMetric:
    def test_unknown_name_is_rejected(self):
        with pytest.raises(SchemaError):
            WordMetric(name="SOUNDEX")

    def test_external_requires_a_table(self):
        with pytest.raises(SchemaError):
            WordMetric(name="EXTERNAL")

    def test_named_rules_refuse_a_table(self):
        with pytest.raises(SchemaError):
            WordMetric(name="P1_DOLGO", external_table={})


class TestLanguageDistance:
    def test_identical_languages_score_zero(self):
        wl = make_wordlist(
            ("A", "c1", "kala"), ("A", "c2", "pola"),
            ("B", "c1", "kala"), ("B", "c2", "pola"))
        assert language_distance(WordMetric.p1_dolgo(), wl, "A", "B") == 0.0

    def test_mean_of_binary_word_distances(self):
        # Word distances 0, 1, 1, 0 across the four shared concepts.
        wl = make_wordlist(
            ("A", "c1", "ka"), ("A", "c2", "pa"), ("A", "c3", "ta"),
            ("A", "c4", "ra"),
            ("B", "c1", "ko"), ("B", "c2", "to"), ("B", "c3", "ko"),
            ("B", "c4", "ri"))
        assert language_distance(WordMetric.p1_dolgo(), wl, "A", "B") == 0.5

    def test_unshared_concepts_are_excluded(self):
        wl = make_wordlist(
            ("A", "c1", "ka"), ("A", "c2", "pa"), ("A", "c3", "ta"),
            ("B", "c1", "ko"), ("B", "c3", "ko"))
        assert language_distance(
            WordMetric.p1_dolgo(), wl, "A", "B") == pytest.approx(0.5)

    def test_no_shared_concepts_is_undefined(self):
        wl = make_wordlist(("A", "c1", "ka"), ("B", "c2", "po"))
        with pytest.raises(DistanceUndefinedError):
            language_distance(WordMetric.p1_dolgo(), wl, "A", "B")

    def test_multiple_forms_per_slot_are_rejected(self):
        wl = make_wordlist(
            ("A", "c1", "ka"), ("A", "c1", "po"), ("B", "c1", "ko"))
        with pytest.raises(SchemaError, match="'A' / 'c1' holds 2 forms"):
            language_distance(WordMetric.p1_dolgo(), wl, "A", "B")


class TestClusterDistance:
    """``run_permtest`` merges two clusters at the mean language distance
    over their cross pairs."""

    def two_cluster_wordlist(self, names=("A", "B", "C")):
        # d(A,B) = 0.2, d(A,C) = 0.4 and d(B,C) = 0.6 over five concepts.
        classes = (["ka", "ka", "ka", "ka", "ka"],
                   ["ka", "ka", "ka", "ka", "pa"],
                   ["ka", "ka", "ta", "ta", "ka"])
        return make_wordlist(*[(name, f"c{i}", form)
                               for name, forms in zip(names, classes)
                               for i, form in enumerate(forms)])

    def test_singletons_reduce_to_language_distance(self):
        wl = self.two_cluster_wordlist()
        metric = WordMetric.p1_dolgo()
        first = run_permtest(metric, wl, n_perm=1, seed=0).merges[0]
        assert (first.left, first.right) == (("A",), ("B",))
        assert first.distance == language_distance(metric, wl, "A", "B")

    def test_mean_over_cross_pairs(self):
        wl = self.two_cluster_wordlist()
        metric = WordMetric.p1_dolgo()
        assert language_distance(metric, wl, "A", "B") == pytest.approx(0.2)
        assert language_distance(metric, wl, "A", "C") == pytest.approx(0.4)
        assert language_distance(metric, wl, "B", "C") == pytest.approx(0.6)
        root = run_permtest(metric, wl, n_perm=1, seed=0).root
        assert sorted(root.left + root.right) == ["A", "B", "C"]
        assert root.distance == pytest.approx(0.5)

    def test_symmetric(self):
        # Naming the languages in reverse order makes B the older side of
        # the first merge, so its block of distances is read the other way
        # round; the merge distances stay the same.
        metric = WordMetric.turchin()
        forward = run_permtest(metric, self.two_cluster_wordlist(), n_perm=1, seed=0)
        reverse = run_permtest(
            metric, self.two_cluster_wordlist(("Z", "Y", "X")), n_perm=1, seed=0)
        assert reverse.merges[0].left == ("Y",)
        assert [m.distance for m in reverse.merges] == pytest.approx(
            [m.distance for m in forward.merges])


class TestPermutationSignificance:
    def test_permutation_invariant_distances_give_zero_score(self):
        # Every word in A starts with K and every word in B with P, so all
        # permutations reproduce the observed distance exactly.
        rows = [("A", f"c{i}", "ka") for i in range(6)]
        rows += [("B", f"c{i}", "pa") for i in range(6)]
        wl = make_wordlist(*rows)
        result = pair_root(
            WordMetric.p1_dolgo(), wl, "A", "B", n_perm=50, seed=1)
        assert result.s_hat == 0.0
        assert result.p_value == 1.0
        assert not result.degenerate

    def test_all_zero_distances_are_flagged_degenerate(self, caplog):
        rows = [("A", f"c{i}", "ka") for i in range(6)]
        rows += [("B", f"c{i}", "ko") for i in range(6)]
        wl = make_wordlist(*rows)
        result = pair_root(
            WordMetric.p1_dolgo(), wl, "A", "B", n_perm=50, seed=1)
        assert result.degenerate
        assert result.s_hat == 0.0
        assert result.p_value == 1.0
        [row] = pairwise_significance(WordMetric.p1_dolgo(), wl, n_perm=50, seed=1)
        assert (row["S_HAT"], row["P"]) == (0.0, 1.0)
        assert "all permuted distances of 'A' vs 'B' are zero" in caplog.text

    def test_strong_signal_is_detected(self):
        rows = related_wordlist_rows(4, 40, seed=3, mutation=0.1)
        wl = parse_wordlist(wordlist_text(rows))
        langs = sorted(wl.languages)
        result = pair_root(
            WordMetric.p1_dolgo(), wl, langs[0], langs[1], n_perm=200, seed=5)
        assert result.p_value < 0.05
        assert result.s_hat > 0.0

    def test_same_seed_reproduces_the_result(self):
        rows = related_wordlist_rows(3, 20, seed=4, mutation=0.3)
        wl = parse_wordlist(wordlist_text(rows))
        langs = sorted(wl.languages)
        args = (WordMetric.turchin(), wl, langs[0], langs[1])
        one = pair_root(*args, n_perm=99, seed=7)
        two = pair_root(*args, n_perm=99, seed=7)
        assert one == two

    def test_p_value_uses_the_add_one_estimator(self):
        rows = related_wordlist_rows(2, 15, seed=6, mutation=0.2)
        wl = parse_wordlist(wordlist_text(rows))
        langs = sorted(wl.languages)
        result = pair_root(
            WordMetric.p1_dolgo(), wl, langs[0], langs[1], n_perm=99, seed=2)
        assert 1 / 100 <= result.p_value <= 1.0
        assert (result.p_value * 100) == pytest.approx(round(result.p_value * 100))

    def test_needs_at_least_one_permutation(self):
        wl = make_wordlist(("A", "c1", "ka"), ("B", "c1", "po"))
        with pytest.raises(ValueError):
            run_permtest(WordMetric.p1_dolgo(), wl, n_perm=0)
        with pytest.raises(ValueError):
            pairwise_significance(WordMetric.p1_dolgo(), wl, n_perm=0)


class TestRunPermtest:
    def four_language_wordlist(self):
        # d(A,B) = 0.1, d(C,D) = 0.2, all cross-group distances 1.0.
        rows = []
        for i in range(10):
            rows.append(("A", f"c{i:02d}", "ka"))
            rows.append(("B", f"c{i:02d}", "pa" if i == 0 else "ka"))
            rows.append(("C", f"c{i:02d}", "ta"))
            rows.append(("D", f"c{i:02d}", "sa" if i < 2 else "ta"))
        return make_wordlist(*rows)

    def test_two_languages_make_one_merge(self):
        wl = make_wordlist(
            ("A", "c1", "ka"), ("A", "c2", "pa"),
            ("B", "c1", "ko"), ("B", "c2", "to"))
        tree = run_permtest(WordMetric.p1_dolgo(), wl, n_perm=30, seed=1)
        assert len(tree.merges) == 1
        assert tree.root is tree.merges[0]
        assert set(tree.root.left + tree.root.right) == {"A", "B"}

    def test_merge_order_matches_average_linkage_oracle(self):
        wl = self.four_language_wordlist()
        metric = WordMetric.p1_dolgo()
        names = sorted(wl.languages)
        pairs = pair_distances(metric, wl)
        dist = np.zeros((4, 4))
        for i, x in enumerate(names):
            for j, y in enumerate(names):
                if i < j:
                    dist[i, j] = dist[j, i] = pairs[x, y]
        expected = upgma_merge_heights(dist, names)

        tree = run_permtest(metric, wl, n_perm=30, seed=1)
        assert len(tree.merges) == len(expected)
        for merge, (members, height) in zip(tree.merges, expected):
            assert set(merge.left + merge.right) == members
            assert merge.distance == pytest.approx(height)

    def test_root_merges_everything(self):
        wl = self.four_language_wordlist()
        tree = run_permtest(WordMetric.p1_dolgo(), wl, n_perm=30, seed=1)
        assert set(tree.root.left + tree.root.right) == set(wl.languages)

    def test_verdict_thresholds_the_root_p_value(self):
        wl = self.four_language_wordlist()
        tree = run_permtest(WordMetric.p1_dolgo(), wl, n_perm=30, seed=1)
        assert tree.verdict() in (RELATED, NOT_SUPPORTED)
        # The threshold is strict.
        assert tree.verdict(alpha=tree.root.p_value + 1e-9) == RELATED
        assert tree.verdict(alpha=tree.root.p_value) == NOT_SUPPORTED

    def test_report_is_reproducible(self):
        wl = self.four_language_wordlist()
        one = run_permtest(WordMetric.turchin(), wl, n_perm=40, seed=9)
        two = run_permtest(WordMetric.turchin(), wl, n_perm=40, seed=9)
        assert one.to_dict() == two.to_dict()

    def test_to_dict_schema(self):
        wl = self.four_language_wordlist()
        payload = run_permtest(WordMetric.p1_dolgo(), wl, n_perm=30, seed=1).to_dict()
        assert payload["languages"] == ["A", "B", "C", "D"]
        assert payload["verdict"] in (RELATED, NOT_SUPPORTED)
        for merge in payload["merges"]:
            assert set(merge) == {"left", "right", "distance", "s_hat", "p",
                                  "degenerate"}
            assert 0.0 < merge["p"] <= 1.0

    def test_single_language_is_rejected(self):
        wl = make_wordlist(("A", "c1", "ka"))
        with pytest.raises(InsufficientDataError):
            run_permtest(WordMetric.p1_dolgo(), wl)

    def two_family_wordlist(self, seed):
        # Two triples of identical wordlists; the families themselves are
        # independent random draws, so cross-family distances sit at chance.
        fam_a = related_wordlist_rows(3, 80, seed=100 + seed, mutation=0.0)
        fam_b = related_wordlist_rows(3, 80, seed=700 + seed, mutation=0.0)
        rows = list(fam_a) + [
            ("X" + lang, concept, form) for lang, concept, form in fam_b
        ]
        return parse_wordlist(wordlist_text(rows))

    def test_merge_heights_never_decrease(self):
        wl = self.two_family_wordlist(0)
        tree = run_permtest(WordMetric.p1_dolgo(), wl, n_perm=30, seed=1)
        heights = [m.distance for m in tree.merges]
        assert heights == sorted(heights)

    def test_identical_wordlists_merge_with_minimal_p(self):
        wl = self.two_family_wordlist(0)
        tree = run_permtest(WordMetric.p1_dolgo(), wl, n_perm=200, seed=0)
        first = tree.merges[0]
        assert first.distance == 0.0
        assert first.s_hat == pytest.approx(1.0)
        assert first.p_value == pytest.approx(1 / 201)

    def test_unrelated_families_can_join_with_small_p_but_tiny_s_hat(self):
        # Tight families push the permuted root heights above the observed
        # chance-level root, so the root test fires even though the
        # similarity score stays near zero. A null holding the root pair
        # fixed would report p near 1 here and could never show this.
        wl = self.two_family_wordlist(2)
        tree = run_permtest(WordMetric.p1_dolgo(), wl, n_perm=200, seed=2)
        assert tree.root.p_value < 0.05
        assert tree.root.s_hat < 0.15
        assert tree.verdict() == RELATED

    def test_constant_first_classes_are_degenerate(self):
        rows = []
        for lang in ("A", "B", "C"):
            for i, vowel in enumerate("aeiou"):
                rows.append((lang, f"c{i}", "k" + vowel))
        wl = make_wordlist(*rows)
        tree = run_permtest(WordMetric.p1_dolgo(), wl, n_perm=50, seed=0)
        for merge in tree.merges:
            assert merge.degenerate
            assert merge.s_hat == 0.0
            assert merge.p_value == 1.0


class TestExternalMetric:
    def table_text(self, rows):
        lines = ["LANG_A\tWORD_A\tLANG_B\tWORD_B\tDIST"]
        lines += ["\t".join(map(str, row)) for row in rows]
        return "\n".join(lines) + "\n"

    def test_lookup_is_orientation_free(self):
        table = load_external_table(self.table_text([("A", "ka", "B", "po", 0.25)]))
        assert table[("A", "ka", "B", "po")] == 0.25
        assert table[("B", "po", "A", "ka")] == 0.25

    def test_language_distance_averages_table_entries(self):
        wl = make_wordlist(
            ("A", "c1", "ka"), ("A", "c2", "pa"),
            ("B", "c1", "ko"), ("B", "c2", "to"))
        table = load_external_table(self.table_text([
            ("A", "ka", "B", "ko", 0.2), ("A", "ka", "B", "to", 0.9),
            ("A", "pa", "B", "ko", 0.7), ("A", "pa", "B", "to", 0.4),
        ]))
        metric = WordMetric.external(table)
        assert language_distance(metric, wl, "A", "B") == pytest.approx(0.3)

    def test_any_missing_word_pair_is_an_error(self):
        # The permutation can pair any two attested words, so the table
        # must cover the full cross product even if the observed slots
        # never touch the hole.
        wl = make_wordlist(
            ("A", "c1", "ka"), ("A", "c2", "pa"),
            ("B", "c1", "ko"), ("B", "c2", "to"))
        table = load_external_table(self.table_text([
            ("A", "ka", "B", "ko", 0.2), ("A", "ka", "B", "to", 0.9),
            ("A", "pa", "B", "to", 0.4),
        ]))
        with pytest.raises(ExternalLookupError):
            language_distance(WordMetric.external(table), wl, "A", "B")

    def test_conflicting_distances_for_one_pair_are_rejected(self):
        for repeat in (("A", "ka", "B", "ki", 0.9), ("B", "ki", "A", "ka", 0.9)):
            with pytest.raises(ParseError, match="line 3"):
                load_external_table(self.table_text([("A", "ka", "B", "ki", 0.2), repeat]))

    def test_exact_repeat_of_a_pair_is_accepted(self):
        table = load_external_table(self.table_text([
            ("A", "ka", "B", "ki", 0.2), ("B", "ki", "A", "ka", 0.2),
            ("A", "ka", "B", "ki", "0.20"),
        ]))
        assert table[("A", "ka", "B", "ki")] == table[("B", "ki", "A", "ka")] == 0.2

    def test_table_schema_errors(self):
        with pytest.raises(EmptyInputError):
            load_external_table("  \n")
        with pytest.raises(ParseError, match="distance table is not valid UTF-8"):
            load_external_table(b"LANG_A\tWORD_A\tLANG_B\tWORD_B\tDIST\nA\t\xff\tB\tko\t0.5\n")
        with pytest.raises(SchemaError):
            load_external_table("LANG_A\tWORD_A\tDIST\nA\tka\t0.5\n")
        with pytest.raises(ParseError):
            load_external_table(self.table_text([("A", "ka", "B", "ko", "x")]))
        with pytest.raises(ParseError):
            load_external_table(self.table_text([("A", "ka", "B", "ko", -1.0)]))
        for value in ("nan", "inf"):
            with pytest.raises(ParseError):
                load_external_table(self.table_text([("A", "ka", "B", "ko", value)]))


class TestPairwiseSignificance:
    def test_rows_cover_every_pair(self):
        rows = related_wordlist_rows(4, 15, seed=8, mutation=0.3)
        wl = parse_wordlist(wordlist_text(rows))
        out = pairwise_significance(WordMetric.p1_dolgo(), wl, n_perm=30, seed=2)
        assert len(out) == 6
        pairs = {(r["LANG_A"], r["LANG_B"]) for r in out}
        assert len(pairs) == 6
        for row in out:
            assert set(row) == {"LANG_A", "LANG_B", "DIST", "S_HAT", "P"}
            assert 0.0 < row["P"] <= 1.0

    def test_deterministic_under_a_seed(self):
        rows = related_wordlist_rows(3, 12, seed=9, mutation=0.3)
        wl = parse_wordlist(wordlist_text(rows))
        one = pairwise_significance(WordMetric.turchin(), wl, n_perm=25, seed=3)
        two = pairwise_significance(WordMetric.turchin(), wl, n_perm=25, seed=3)
        assert one == two

    def test_needs_at_least_one_permutation(self):
        wl = make_wordlist(("A", "c1", "ka"), ("B", "c1", "po"))
        with pytest.raises(ValueError):
            pairwise_significance(WordMetric.p1_dolgo(), wl, n_perm=0)

    def test_single_language_is_rejected(self):
        wl = make_wordlist(("A", "c1", "ka"))
        with pytest.raises(InsufficientDataError):
            pairwise_significance(WordMetric.p1_dolgo(), wl)


def oracle_inputs(metric, wl):
    """Slots and word tables for the one-replicate-at-a-time oracles.

    Word tables come from the public word rule (agreements for TURCHIN,
    whose language distance is one minus their mean) or the external table.
    Slots follow concept-name order, and words are numbered in it.
    """
    alphabet = default_alphabet()
    by_slot = wl.entries_by_slot()
    slots, words = {}, {}
    for language in wl.languages:
        pointers = np.full(len(wl.concepts), -1)
        entries = []
        for c, concept in enumerate(sorted(wl.concepts)):
            found = by_slot.get((language, concept))
            if found:
                pointers[c] = len(entries)
                entries.append(found[0])
        slots[language], words[language] = pointers, entries

    codes = {lang: [e.encode(alphabet) for e in entries] for lang, entries in words.items()}
    tables = {}
    for a in wl.languages:
        for b in wl.languages:
            if a == b:
                continue
            if metric.name == EXTERNAL:
                table = [[metric.external_table[a, x.form, b, y.form] for y in words[b]]
                         for x in words[a]]
            else:
                table = [[word_distance(metric.name, x, y) for y in codes[b]]
                         for x in codes[a]]
            tables[a, b] = np.array(table)
            if metric.name == TURCHIN:
                tables[a, b] = 1.0 - tables[a, b]
    return slots, tables, metric.name == TURCHIN


def gapped_wordlist():
    """Six languages over 24 concepts with about a sixth of the slots empty."""
    rng = np.random.default_rng(21)
    rows = related_wordlist_rows(6, 24, seed=11, mutation=0.5)
    return make_wordlist(*[row for row in rows if rng.random() >= 0.17])


def external_metric(wl, seed=5):
    """A random distance for every cross-language word pair."""
    rng = np.random.default_rng(seed)
    forms = {lang: [e.form for e in wl.entries if e.language == lang]
             for lang in wl.languages}
    table = {}
    for i, a in enumerate(wl.languages):
        for b in wl.languages[i + 1:]:
            for x in forms[a]:
                for y in forms[b]:
                    table[a, x, b, y] = table[b, y, a, x] = float(rng.random())
    return WordMetric.external(table)


def three_metrics(wl):
    return [WordMetric.p1_dolgo(), WordMetric.turchin(), external_metric(wl)]


def merge_rows(tree):
    return [(m.left, m.right, m.distance, m.s_hat, m.p_value, m.degenerate)
            for m in tree.merges]


#: One replicate, a chunk short by one, and two chunks and three replicates.
N_PERMS = (1, _CHUNK - 1, 2 * _CHUNK + 3)


class TestChunkedReplicatesMatchOneAtATime:
    """Chunked draws, distances and merges are bit-identical to a loop over
    replicates that recomputes every candidate at every merge."""

    @pytest.mark.parametrize("metric_no", range(3))
    @pytest.mark.parametrize("n_perm", N_PERMS)
    def test_merge_tree(self, metric_no, n_perm):
        wl = gapped_wordlist()
        metric = three_metrics(wl)[metric_no]
        slots, tables, complement = oracle_inputs(metric, wl)
        tree = run_permtest(metric, wl, n_perm=n_perm, seed=17)
        assert merge_rows(tree) == reference_merge_tree(
            slots, tables, n_perm, 17, complement)

    @pytest.mark.parametrize("metric_no", range(3))
    @pytest.mark.parametrize("n_perm", N_PERMS)
    def test_pairwise_rows(self, metric_no, n_perm):
        wl = gapped_wordlist()
        metric = three_metrics(wl)[metric_no]
        slots, tables, complement = oracle_inputs(metric, wl)
        rows = pairwise_significance(metric, wl, n_perm=n_perm, seed=4)
        got = [(r["LANG_A"], r["LANG_B"], r["DIST"], r["S_HAT"], r["P"]) for r in rows]
        assert got == reference_pairwise(slots, tables, wl.languages, n_perm, 4, complement)

    @pytest.mark.parametrize("metric_no", range(3))
    def test_language_pair(self, metric_no):
        wl = gapped_wordlist()
        metric = three_metrics(wl)[metric_no]
        slots, tables, complement = oracle_inputs(metric, wl)
        langs = sorted(wl.languages)
        root = pair_root(metric, wl, langs[3], langs[0], n_perm=_CHUNK + 1, seed=8)
        observed, (s_hat, p_value, _, degenerate) = reference_significance(
            slots, tables, langs[3], langs[0], _CHUNK + 1, 8, complement)
        assert (root.distance, root.s_hat, root.p_value, root.degenerate) == (
            observed, s_hat, p_value, degenerate)

    @pytest.mark.parametrize("metric_no", range(3))
    def test_stacked_distances_match_each_replicate(self, metric_no):
        # With more than one replicate the gathered (replicates, concepts)
        # block of table values comes out column-major, and summing it that
        # way changes the last bits of some means. Distinct random values
        # over at least 9 shared concepts make any other order show.
        wl = gapped_wordlist()
        metric = three_metrics(wl)[metric_no]
        slots, tables, complement = oracle_inputs(metric, wl)
        engine = _Engine(metric, wl)
        stacked = engine.permuted_slots(reference_streams(wl.languages, 1), _CHUNK)
        for i, a in enumerate(wl.languages):
            for b in wl.languages[i + 1:]:
                assert np.count_nonzero((slots[a] >= 0) & (slots[b] >= 0)) >= 9
                got = engine.language_distance(a, b, stacked[a], stacked[b])
                want = [
                    reference_language_distance(
                        tables, a, b, {a: stacked[a][r], b: stacked[b][r]}, complement)
                    for r in range(_CHUNK)
                ]
                assert got.tolist() == want

    def test_stacked_draws_match_each_replicate(self):
        # One permuted call per language draws what permuting each
        # replicate's attested pointers on its own would.
        wl = gapped_wordlist()
        slots, _, _ = oracle_inputs(WordMetric.p1_dolgo(), wl)
        engine = _Engine(WordMetric.p1_dolgo(), wl)
        stacked = engine.permuted_slots(reference_streams(wl.languages, 3), _CHUNK)
        streams = reference_streams(wl.languages, 3)
        for r in range(_CHUNK):
            want = reference_shuffle(slots, streams)
            for lang in wl.languages:
                assert np.where(stacked[lang][r] < 0, -1, stacked[lang][r]).tolist() == (
                    want[lang].tolist())

    @pytest.mark.parametrize("metric_no", range(3))
    def test_results_do_not_depend_on_the_chunk_size(self, metric_no, monkeypatch):
        wl = gapped_wordlist()
        metric = three_metrics(wl)[metric_no]
        n_perm = _CHUNK + 5
        results = []
        for size in (1, 3, 128):
            monkeypatch.setattr(permtest, "_CHUNK", size)
            results.append((
                run_permtest(metric, wl, n_perm=n_perm, seed=12).to_dict(),
                pairwise_significance(metric, wl, n_perm=n_perm, seed=12),
            ))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("metric", [WordMetric.p1_dolgo(), WordMetric.turchin()])
    def test_exact_ties(self, metric):
        # A and B share every word, as do C and D, so the first two merges
        # tie at height 0; over eight concepts replicate distances are
        # multiples of 1/8 and tie all the time.
        rows = []
        for i, (ab, cd) in enumerate(zip("kptsmnlr", "kpbdmgzr")):
            for lang, word in (("A", ab), ("B", ab), ("C", cd), ("D", cd)):
                rows.append((lang, f"c{i}", word + "a" + "tkpsmnrl"[i]))
        rows.append(("E", "c0", "ka"))
        rows += [("E", f"c{i}", "sumo") for i in range(1, 8)]
        wl = make_wordlist(*rows)
        slots, tables, complement = oracle_inputs(metric, wl)
        tree = run_permtest(metric, wl, n_perm=_CHUNK + 5, seed=2)
        assert tree.merges[0].distance == tree.merges[1].distance == 0.0
        assert merge_rows(tree) == reference_merge_tree(
            slots, tables, _CHUNK + 5, 2, complement)

    @pytest.mark.parametrize("seed", range(40))
    def test_lockstep_clustering_of_random_stacks(self, seed):
        # Every replicate of a stack is clustered as if on its own, whatever
        # the other replicates merge; odd seeds draw values k / 7, so exact
        # ties are common.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        replicates = int(rng.integers(2, 7))
        if seed % 2:
            values = rng.integers(0, 8, size=(replicates, n, n)) / 7
        else:
            values = rng.random((replicates, n, n))
        upper = np.triu(values, 1)
        bases = upper + upper.transpose(0, 2, 1)
        # Zero-padded, so the names sort like their indices.
        languages = [f"L{k:02d}" for k in range(n)]
        pairs, heights = _cluster_stack(bases)
        assert pairs.shape == (replicates, n - 1, 2)
        assert heights.shape == (replicates, n - 1)
        for r in range(replicates):
            assert _named_merges(pairs[r], heights[r], languages) == reference_agglomerate(
                bases[r], languages)


class TestPairRowIsTwoLanguageMergeTree:
    @pytest.mark.parametrize("metric_no", range(3))
    def test_rows_equal_root_of_pair_wordlist(self, metric_no):
        # Cutting the wordlist to a pair leaves each language's attested
        # slots, and so the draws and distances at the same seed, as they
        # were.
        wl = gapped_wordlist()
        metric = three_metrics(wl)[metric_no]
        rows = pairwise_significance(metric, wl, n_perm=_CHUNK + 2, seed=6)
        pairs = [(a, b) for i, a in enumerate(wl.languages) for b in wl.languages[i + 1:]]
        assert [(r["LANG_A"], r["LANG_B"]) for r in rows] == pairs
        for row, (a, b) in zip(rows, pairs):
            root = pair_root(metric, wl, a, b, n_perm=_CHUNK + 2, seed=6)
            assert (row["DIST"], row["S_HAT"], row["P"]) == (
                root.distance, root.s_hat, root.p_value)

    @pytest.mark.parametrize("metric_no", range(3))
    def test_rows_do_not_depend_on_other_languages(self, metric_no):
        # The extra language sorts before all others and comes last in the
        # wordlist, so the concept order stays as it was; every row of the
        # smaller wordlist comes back unchanged.
        wl = gapped_wordlist()
        extra = [("A0", concept, form)
                 for _, concept, form in random_wordlist_rows(1, 24, seed=31, missing=0.2)]
        wider = make_wordlist(*[(e.language, e.concept, e.form) for e in wl.entries], *extra)
        assert wider.concepts == wl.concepts
        metric = three_metrics(wider)[metric_no]
        rows = pairwise_significance(metric, wl, n_perm=_CHUNK + 2, seed=6)
        wider_rows = {(r["LANG_A"], r["LANG_B"]): r
                      for r in pairwise_significance(metric, wider, n_perm=_CHUNK + 2, seed=6)}
        assert len(wider_rows) == len(rows) + len(wl.languages)
        for row in rows:
            assert wider_rows[row["LANG_A"], row["LANG_B"]] == row


def random_table(rows, seed):
    """A symmetric external table of uniform random values over every word
    pair of two languages of ``rows``."""
    rng = np.random.default_rng(seed)
    forms = {}
    for language, _, form in rows:
        forms.setdefault(language, set()).add(form)
    table = {}
    for a, b in itertools.combinations(sorted(forms), 2):
        for x in sorted(forms[a]):
            for y in sorted(forms[b]):
                table[a, x, b, y] = table[b, y, a, x] = float(rng.random())
    return table


class TestDrawsDoNotDependOnRowOrder:
    @pytest.mark.parametrize("name", [P1_DOLGO, TURCHIN, EXTERNAL])
    def test_shuffled_rows_give_the_same_results(self, name):
        # Shuffled and then grouped by language, so the languages keep
        # their order while the concepts first appear in another. The
        # EXTERNAL table's random values make any sum whose order follows
        # the rows show in the last bit.
        rows = related_wordlist_rows(4, 30, seed=3, mutation=0.5)
        metric = {P1_DOLGO: WordMetric.p1_dolgo(), TURCHIN: WordMetric.turchin(),
                  EXTERNAL: WordMetric.external(random_table(rows, seed=6))}[name]
        shuffled = sorted((rows[k] for k in np.random.default_rng(5).permutation(len(rows))),
                          key=lambda row: row[0])
        wl, other = make_wordlist(*rows), make_wordlist(*shuffled)
        assert other.languages == wl.languages
        assert other.concepts != wl.concepts
        assert sorted(other.concepts) == sorted(wl.concepts)
        n_perm = _CHUNK + 5
        assert (run_permtest(metric, other, n_perm=n_perm, seed=9).to_dict()
                == run_permtest(metric, wl, n_perm=n_perm, seed=9).to_dict())
        assert (pairwise_significance(metric, other, n_perm=n_perm, seed=9)
                == pairwise_significance(metric, wl, n_perm=n_perm, seed=9))


class TestMergeHeights:
    @pytest.mark.parametrize("metric_no", range(3))
    def test_heights_are_block_means_of_language_distances(self, metric_no):
        # A merge height is the mean over the block of language distances
        # with the older cluster's languages as rows and the newer one's as
        # columns (singletons are oldest, in name order).
        wl = gapped_wordlist()
        metric = three_metrics(wl)[metric_no]
        tree = run_permtest(metric, wl, n_perm=1, seed=0)
        names = sorted(wl.languages)
        pairs = pair_distances(metric, wl)
        dist = np.zeros((len(names), len(names)))
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                if i != j:
                    dist[i, j] = pairs[a, b]
        born = {(name,): k for k, name in enumerate(names)}
        for step, merge in enumerate(tree.merges):
            older, newer = sorted((merge.left, merge.right), key=born.get)
            block = dist[np.ix_([names.index(x) for x in older],
                                [names.index(x) for x in newer])]
            assert merge.distance == float(block.mean())
            born[tuple(sorted(merge.left + merge.right))] = len(names) + step
