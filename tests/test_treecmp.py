"""Quartet topology extraction and the generalized quartet distance."""

import numpy as np
import pytest

from helpers import random_tree
from oracles import quartet_counts_by_paths, quartets_from_bipartitions
from relate.errors import ParseError, TaxaMismatchError
from relate.phylik import parse_newick
from relate.treecmp import GoldTree, gqd, parse_gold_tree


class TestQuartetTopology:
    """Each quartet is resolved as the path-length oracle resolves it."""

    def test_caterpillar_groups_adjacent_pairs(self):
        tree = parse_newick("((A:1,B:1):1,(C:1,D:1):1);")
        assert gqd(tree, parse_gold_tree("((A,B),(C,D));")).differing == 0
        for other in ("((A,C),(B,D));", "((A,D),(B,C));"):
            score = gqd(tree, parse_gold_tree(other))
            assert (score.resolved_gold, score.differing) == (1, 1)

    def test_five_leaf_tree_matches_path_length_oracle(self):
        gold = parse_gold_tree("((A:1,B:1):1,(C:1,D:1):1,E:1);")
        for seed in range(10):
            pred = random_tree("ABCDE", seed=seed)
            score = gqd(pred, gold)
            assert (score.resolved_gold, score.differing) == quartet_counts_by_paths(
                pred.adjacency, pred.leaf_names, gold.adjacency, gold.leaf_names)

    def test_rooted_and_reordered_newick_agree(self):
        one = parse_newick("((A:1,B:2):0.5,(C:1,D:1):1);")
        two = parse_newick("(((B:2,A:1):0.2,C:9):1,D:1);")
        for pred, gold in ((one, two), (two, one)):
            score = gqd(pred, gold)
            assert (score.resolved_gold, score.differing) == (1, 0)

    def test_star_tree_resolves_nothing(self):
        star = parse_gold_tree("(A,B,C,D,E);")
        binary = parse_newick("((A:1,B:1):1,(C:1,D:1):1,E:1);")
        assert gqd(binary, star).resolved_gold == 0
        score = gqd(star, binary)
        assert (score.resolved_gold, score.differing) == (5, 5)
        assert score.gqd == 1.0

    def test_duplicate_leaves_are_rejected(self):
        text = "((A:1,A:1):1,(B:1,C:1):1);"
        for parse in (parse_newick, parse_gold_tree):
            with pytest.raises(ParseError, match="duplicate leaf"):
                parse(text)

    def test_unknown_leaf_is_rejected(self):
        tree = parse_newick("((A:1,B:1):1,(C:1,D:1):1);")
        with pytest.raises(TaxaMismatchError) as caught:
            gqd(parse_newick("((A:1,B:1):1,(C:1,X:1):1);"), tree)
        assert (caught.value.missing, caught.value.extra) == ({"D"}, {"X"})


class TestGqd:
    def test_identical_trees_score_zero(self):
        text = "((A:1,B:1):1,((C:1,D:1):1,E:1):1,F:1);"
        score = gqd(parse_newick(text), parse_newick(text))
        assert score.gqd == 0.0
        assert score.differing == 0
        assert score.resolved_gold == 15
        assert not score.degenerate

    def test_exchanging_b_and_c_breaks_every_quartet(self):
        gold = parse_newick("((A:1,B:1):1,(C:1,D:1):1,E:1);")
        pred = parse_newick("((A:1,C:1):1,(B:1,D:1):1,E:1);")
        score = gqd(pred, gold)
        assert score.resolved_gold == 5
        assert score.differing == 5
        assert score.gqd == 1.0

    def test_moving_one_leaf_changes_exactly_its_witness_quartets(self):
        # E moves from the CD clade to the AB clade. A quartet notices only
        # when it contains E, F and one leaf from each pair, where E's
        # grouping flips sides: {A,B} x {C,D} gives 4 such quartets.
        gold = parse_newick("((A:1,B:1):1,((C:1,D:1):1,E:1):1,F:1);")
        pred = parse_newick("(((A:1,B:1):1,E:1):1,(C:1,D:1):1,F:1);")
        score = gqd(pred, gold)
        assert score.resolved_gold == 15
        assert score.differing == 4
        assert score.gqd == pytest.approx(4 / 15)

    def test_star_gold_is_degenerate(self):
        gold = parse_gold_tree("(A,B,C,D);")
        pred = parse_newick("((A:1,B:1):1,(C:1,D:1):1);")
        score = gqd(pred, gold)
        assert score.degenerate
        assert score.gqd == 0.0
        assert score.resolved_gold == 0

    def test_partial_polytomy_counts_only_resolved_quartets(self):
        gold = parse_gold_tree("((A,B),C,D,E);")
        pred = parse_newick("((A:1,B:1):1,((C:1,D:1):1,E:1):1);")
        score = gqd(pred, gold)
        # The gold tree resolves exactly the AB-against-two quartets.
        assert score.resolved_gold == 3
        assert score.differing == 0
        assert score.gqd == 0.0

    def test_unresolved_prediction_counts_as_differing(self):
        gold = parse_newick("((A:1,B:1):1,(C:1,D:1):1);")
        pred = parse_gold_tree("(A,B,C,D);")
        score = gqd(pred, gold)
        assert score.resolved_gold == 1
        assert score.differing == 1
        assert score.gqd == 1.0

    def test_fewer_than_four_leaves_is_vacuous(self):
        pred = parse_newick("(A:1,B:1,C:1);")
        gold = parse_gold_tree("(A,B,C);")
        score = gqd(pred, gold)
        assert score.degenerate
        assert score.gqd == 0.0

    def test_leaf_set_mismatch_is_rejected(self):
        pred = parse_newick("((A:1,B:1):1,(C:1,D:1):1);")
        gold = parse_gold_tree("((A,B),(C,X));")
        with pytest.raises(TaxaMismatchError):
            gqd(pred, gold)

    def test_matches_bipartition_oracle_on_random_trees(self):
        for seed in range(8):
            labels = [f"t{i}" for i in range(10)]
            pred = random_tree(labels, seed=seed)
            gold = random_tree(labels, seed=seed + 100)
            expected_pred = quartets_from_bipartitions(
                pred.adjacency, pred.leaf_names)
            expected_gold = quartets_from_bipartitions(
                gold.adjacency, gold.leaf_names)
            differing = sum(
                1
                for quartet, pairing in expected_gold.items()
                if expected_pred.get(quartet) != pairing
            )
            score = gqd(pred, gold)
            assert score.resolved_gold == len(expected_gold)
            assert score.differing == differing

    def test_asymmetric_by_construction(self):
        pred = parse_newick("((A:1,B:1):1,(C:1,D:1):1,E:1);")
        gold = parse_gold_tree("((A,B),C,D,E);")
        forward = gqd(pred, gold)
        backward = gqd(gold, pred)
        assert forward.resolved_gold == 3
        assert backward.resolved_gold == 5

    def test_score_serializes(self):
        text = "((A:1,B:1):1,(C:1,D:1):1);"
        payload = gqd(parse_newick(text), parse_newick(text)).to_dict()
        assert payload == {
            "resolved_gold": 1, "differing": 0, "gqd": 0.0, "degenerate": False}


class TestParseGoldTree:
    def test_keeps_polytomies(self):
        gold = parse_gold_tree("(A,B,C,D,E);")
        hub = [n for n in gold.adjacency if n not in gold.leaf_names]
        assert len(hub) == 1
        assert len(gold.adjacency[hub[0]]) == 5

    def test_taxa_are_sorted(self):
        gold = parse_gold_tree("(D,(B,A),C);")
        assert gold.taxa == ("A", "B", "C", "D")

    def test_single_leaf_is_rejected(self):
        with pytest.raises(ParseError):
            parse_gold_tree("A;")

    def test_accepts_phylogeny_and_gold_tree_inputs(self):
        pred = parse_newick("((A:1,B:1):1,(C:1,D:1):1);")
        gold = parse_gold_tree("((A,B),(C,D));")
        assert gqd(pred, gold).gqd == 0.0
        assert gqd(gold, gold).gqd == 0.0
        assert isinstance(gold, GoldTree)


class TestRandomPairBaseline:
    def test_two_random_trees_disagree_on_about_two_thirds(self):
        # A resolved quartet agrees with an independent random tree about
        # a third of the time, so the distance concentrates near 2/3.
        rng_seeds = range(40)
        scores = []
        for seed in rng_seeds:
            labels = [f"t{i}" for i in range(20)]
            pred = random_tree(labels, seed=2 * seed)
            gold = random_tree(labels, seed=2 * seed + 1)
            scores.append(gqd(pred, gold).gqd)
        mean = float(np.mean(scores))
        assert abs(mean - 2 / 3) < 0.05
