"""Distance initialization, branch-length optimization, NNI search."""

import logging

import numpy as np
import pytest

from helpers import matrix_from_rows, random_freq_model
from relate.bootsim import simulate_sites
from relate import mlsearch
from relate.msa import CharacterMatrix
from relate.mlsearch import (
    SearchConfig,
    init_tree,
    ml_tree,
    ml_tree_estimated,
    model_distances,
    neighbor_joining,
    nni_search,
    optimize_branch_lengths,
)
from relate.phylik import (
    MAX_BRANCH_LENGTH,
    MIN_BRANCH_LENGTH,
    parse_newick,
    random_tree,
    total_log_likelihood,
    write_newick,
)
from relate.submodel import build_model
from relate.treecmp import gqd


def simulated_matrix(tree, model, n_sites: int, seed: int) -> CharacterMatrix:
    states = simulate_sites(tree, model, n_sites, np.random.default_rng(seed))
    symbols = np.array(model.alphabet)
    taxa = sorted(states)
    cells = [symbols[states[t]] for t in taxa]
    return CharacterMatrix(taxa, cells, [("c0", 0, n_sites)])


class TestModelDistances:
    def test_identical_rows_have_zero_distance(self):
        m = matrix_from_rows(["a", "b"], [list("KRSKRS"), list("KRSKRS")])
        model = build_model(m)
        d = model_distances(m, model)
        assert d[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_saturated_rows_are_clamped_to_cap(self):
        m = matrix_from_rows(["a", "b"], [list("KKKK"), list("RRRR")])
        model = build_model(m)
        d = model_distances(m, model)
        assert d[0, 1] == MAX_BRANCH_LENGTH

    def test_shared_gap_sites_excluded(self):
        m = matrix_from_rows(["a", "b"], [list("KR--"), list("KR-S")])
        model = build_model(m, alphabet=tuple("KRS"))
        d = model_distances(m, model)
        assert d[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_zero_diagonal(self):
        m = matrix_from_rows(["a", "b", "c"],
                             [list("KRSK"), list("KRNK"), list("TRSK")])
        model = build_model(m)
        d = model_distances(m, model)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)


class TestNeighborJoining:
    def test_three_taxa_unique_topology(self):
        d = np.array([[0.0, 0.3, 0.9], [0.3, 0.0, 0.8], [0.9, 0.8, 0.0]])
        tree = neighbor_joining(d, ["A", "B", "C"])
        assert tree.n_leaves == 3
        assert len(tree.internal_edges()) == 0

    def test_identical_taxa_join_with_zero_edges(self):
        d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        tree = neighbor_joining(d, ["A", "B", "C"])
        a = tree.leaf_node("A")
        hub = tree.neighbors(a)[0]
        assert tree.length(a, hub) <= MIN_BRANCH_LENGTH
        assert tree.length(tree.leaf_node("B"), hub) <= MIN_BRANCH_LENGTH

    def test_additive_distances_recover_topology(self):
        # Distances read off a known 5-leaf tree; NJ is consistent on
        # additive input, so the generating topology must come back.
        truth = parse_newick(
            "((A:0.2,B:0.3):0.15,(C:0.25,D:0.1):0.2,E:0.4);")
        names = ["A", "B", "C", "D", "E"]
        nodes = {n: truth.leaf_node(n) for n in names}

        def path_length(x, y):
            # Dijkstra is overkill on a tree; BFS with accumulated weights.
            dist = {nodes[x]: 0.0}
            queue = [nodes[x]]
            while queue:
                u = queue.pop()
                for v, w in truth.adjacency[u].items():
                    if v not in dist:
                        dist[v] = dist[u] + w
                        queue.append(v)
            return dist[nodes[y]]

        d = np.zeros((5, 5))
        for i, x in enumerate(names):
            for j, y in enumerate(names):
                if i < j:
                    d[i, j] = d[j, i] = path_length(x, y)
        recovered = neighbor_joining(d, names)
        score = gqd(recovered, truth)
        assert score.gqd == 0.0
        # Additive input also pins the branch lengths themselves.
        assert sorted(w for _, _, w in recovered.edges()) == pytest.approx(
            sorted(w for _, _, w in truth.edges()), abs=1e-9)

    def test_seeded_tie_break_is_reproducible(self):
        d = np.ones((4, 4)) - np.eye(4)
        one = neighbor_joining(d, ["A", "B", "C", "D"], seed=3)
        two = neighbor_joining(d, ["A", "B", "C", "D"], seed=3)
        assert write_newick(one) == write_newick(two)


class TestOptimizeBranchLengths:
    def test_identical_sequences_hit_the_floor(self):
        m = matrix_from_rows(["A", "B"], [list("KRSKRS"), list("KRSKRS")])
        model = build_model(m)
        tree = parse_newick("(A:0.5,B:0.5);")
        out, _ = optimize_branch_lengths(tree, model, m)
        (u, v, w), = out.edges()
        assert w == MIN_BRANCH_LENGTH

    def test_maximally_different_sequences_hit_the_cap(self):
        m = matrix_from_rows(["A", "B"], [list("KKKKKK"), list("RRRRRR")])
        model = build_model(m)
        tree = parse_newick("(A:0.5,B:0.5);")
        out, _ = optimize_branch_lengths(tree, model, m)
        (u, v, w), = out.edges()
        assert w == MAX_BRANCH_LENGTH

    def test_three_taxon_grid_oracle(self):
        m = matrix_from_rows(
            ["A", "B", "C"],
            [list("KRSKRSKKRR"), list("KRSKRNKKRS"), list("TRSKSNKKRS")])
        model = build_model(m)
        tree = parse_newick("(A:0.1,B:0.1,C:0.1);")
        optimized, ll = optimize_branch_lengths(tree, model, m)

        # Coordinate-descent over a 1e-3 grid, swept to a fixed point.
        # Both bounds join the grid so clamped optima stay reachable.
        hub = [n for n in tree.adjacency if not tree.is_leaf(n)][0]
        edges = [(tree.leaf_node(n), hub) for n in ("A", "B", "C")]
        grid = np.concatenate(
            ([MIN_BRANCH_LENGTH], np.arange(0.001, 1.0, 0.001),
             [MAX_BRANCH_LENGTH]))
        work = tree.copy()
        best = total_log_likelihood(work, model, m).total_log_likelihood
        for _ in range(6):
            improved = False
            for u, v in edges:
                current = work.length(u, v)
                for value in grid:
                    work.set_length(u, v, float(value))
                    cand = total_log_likelihood(work, model, m).total_log_likelihood
                    if cand > best + 1e-12:
                        best = cand
                        current = float(value)
                        improved = True
                work.set_length(u, v, current)
            if not improved:
                break
        assert ll >= best - 1e-9
        assert abs(ll - best) <= 1e-3

    def test_log_likelihood_never_decreases(self):
        m = matrix_from_rows(
            ["A", "B", "C", "D"],
            [list("KRSKRSKK"), list("KRSKRNKK"), list("TRSKSNKK"),
             list("TRSSSNKK")])
        model = build_model(m)
        tree = parse_newick("((A:0.2,B:0.2):0.2,(C:0.2,D:0.2):0.2);")
        before = total_log_likelihood(tree, model, m).total_log_likelihood
        _, after = optimize_branch_lengths(tree, model, m)
        assert after >= before - 1e-12

    def four_taxon_case(self):
        m = matrix_from_rows(
            ["A", "B", "C", "D"],
            [list("KRSKRSKK"), list("KRSKRNKK"), list("TRSKSNKK"),
             list("TRSSSNKK")])
        tree = parse_newick("((A:2.0,B:2.0):2.0,(C:2.0,D:2.0):2.0);")
        return tree, build_model(m), m

    def test_stopping_at_the_sweep_cap_is_logged(self, monkeypatch, caplog):
        tree, model, m = self.four_taxon_case()
        monkeypatch.setattr(mlsearch, "_MAX_SWEEPS", 1)
        with caplog.at_level(logging.WARNING, logger="relate.mlsearch"):
            optimize_branch_lengths(tree, model, m)
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert "cap of 1 sweeps" in record.getMessage()
        gain = float(record.getMessage().split("gained ")[1].split()[0])
        assert gain >= mlsearch._LL_TOLERANCE

    def test_converging_fit_logs_nothing(self, caplog):
        tree, model, m = self.four_taxon_case()
        with caplog.at_level(logging.WARNING, logger="relate.mlsearch"):
            optimize_branch_lengths(tree, model, m)
        assert caplog.records == []


class TestNniSearch:
    def test_true_tree_is_a_local_optimum(self):
        # Simulated data on the generating topology: with 2000 sites no
        # NNI move should improve, across seeds.
        truth = parse_newick(
            "((A:0.3,B:0.3):0.2,((C:0.3,D:0.3):0.2,(E:0.3,F:0.3):0.2):0.2);")
        model = random_freq_model(4, seed=0)
        stable = 0
        for seed in range(5):
            matrix = simulated_matrix(truth, model, 2000, seed=seed)
            fit_model = build_model(matrix)
            fit = nni_search(truth.copy(), fit_model, matrix)
            if len(fit.search_trace) == 1 and gqd(fit.tree, truth).gqd == 0.0:
                stable += 1
        assert stable == 5

    def test_three_taxa_returns_optimized_input(self):
        m = matrix_from_rows(
            ["A", "B", "C"],
            [list("KRSKRS"), list("KRNKRS"), list("TRSKRS")])
        model = build_model(m)
        fit = nni_search(parse_newick("(A:0.1,B:0.1,C:0.1);"), model, m)
        assert fit.tree.n_leaves == 3
        # No internal edge, so no candidate moves: one trace entry.
        assert len(fit.search_trace) == 1
        expected, ll = optimize_branch_lengths(
            parse_newick("(A:0.1,B:0.1,C:0.1);"), model, m)
        assert fit.log_likelihood == pytest.approx(ll, abs=1e-9)

    def test_search_trace_is_non_decreasing(self):
        truth = parse_newick(
            "((A:0.4,B:0.4):0.3,(C:0.4,D:0.4):0.3,E:0.6);")
        model = random_freq_model(3, seed=5)
        matrix = simulated_matrix(truth, model, 300, seed=11)
        fit_model = build_model(matrix)
        start = random_tree(sorted(matrix.taxa), seed=99)
        fit = nni_search(start, fit_model, matrix)
        lls = [ll for _, ll in fit.search_trace]
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))


class TestMlTree:
    def test_fit_log_likelihood_is_consistent(self):
        truth = parse_newick("((A:0.3,B:0.3):0.2,(C:0.3,D:0.3):0.2,E:0.5);")
        model = random_freq_model(4, seed=1)
        matrix = simulated_matrix(truth, model, 400, seed=7)
        fit = ml_tree(matrix, p_inv=0.01, config=SearchConfig(seed=2))
        recomputed = total_log_likelihood(fit.tree, fit.model, matrix)
        assert fit.log_likelihood == pytest.approx(
            recomputed.total_log_likelihood, abs=1e-6)

    def test_same_seed_same_result(self):
        truth = parse_newick("((A:0.3,B:0.3):0.2,(C:0.3,D:0.3):0.2,E:0.5);")
        model = random_freq_model(3, seed=2)
        matrix = simulated_matrix(truth, model, 250, seed=8)
        one = ml_tree(matrix, p_inv=0.05, config=SearchConfig(seed=4))
        two = ml_tree(matrix, p_inv=0.05, config=SearchConfig(seed=4))
        assert write_newick(one.tree) == write_newick(two.tree)
        assert one.log_likelihood == two.log_likelihood

    def test_restarts_return_the_best_run(self):
        truth = parse_newick("((A:0.3,B:0.3):0.2,(C:0.3,D:0.3):0.2,E:0.5);")
        model = random_freq_model(3, seed=3)
        matrix = simulated_matrix(truth, model, 200, seed=9)
        single_a = ml_tree(matrix, 0.05, SearchConfig(seed=6, random_restarts=1))
        single_b = ml_tree(matrix, 0.05, SearchConfig(seed=7, random_restarts=1))
        double = ml_tree(matrix, 0.05, SearchConfig(seed=6, random_restarts=2))
        assert double.log_likelihood == pytest.approx(
            max(single_a.log_likelihood, single_b.log_likelihood), abs=1e-9)

    def test_two_taxa_single_edge(self):
        m = matrix_from_rows(["A", "B"], [list("KRSKRR"), list("KRNKRS")])
        fit = ml_tree(m, p_inv=0.01)
        assert fit.tree.n_leaves == 2
        assert len(fit.tree.edges()) == 1

    def test_init_tree_shape(self):
        m = matrix_from_rows(
            ["A", "B", "C", "D"],
            [list("KRSK"), list("KRNK"), list("TRSK"), list("TRSS")])
        model = build_model(m)
        tree = init_tree(m, model)
        assert sorted(tree.taxa) == ["A", "B", "C", "D"]


class TestMlTreeEstimated:
    def test_recovers_inflated_invariant_share(self):
        # Data simulated with many invariant sites should push the
        # estimate well above the null setting.
        truth = parse_newick("((A:0.4,B:0.4):0.3,(C:0.4,D:0.4):0.3,E:0.5);")
        model = random_freq_model(4, seed=6, p_inv=0.35)
        matrix = simulated_matrix(truth, model, 800, seed=13)
        fit = ml_tree_estimated(matrix, SearchConfig(seed=1))
        assert fit.model.p_inv > 0.06

    def test_near_zero_when_simulated_without_invariants(self):
        truth = parse_newick("((A:0.6,B:0.6):0.4,(C:0.6,D:0.6):0.4,E:0.8);")
        model = random_freq_model(4, seed=7, p_inv=0.0)
        matrix = simulated_matrix(truth, model, 800, seed=14)
        fit = ml_tree_estimated(matrix, SearchConfig(seed=2))
        assert fit.model.p_inv < 0.15
