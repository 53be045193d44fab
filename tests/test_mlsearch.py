"""Distance initialization, branch-length optimization, NNI search."""

import logging

import numpy as np
import pytest

from helpers import (
    matrix_from_rows,
    random_freq_model,
    random_matrix,
    random_tree,
    small_matrix,
)
from relate.bootsim import simulate_sites
from relate import mlsearch, phylik
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
    edge_log_likelihood_fn,
    parse_newick,
    prepare_sites,
    site_log_likelihoods,
    write_newick,
)
from relate.submodel import build_model
from relate.treecmp import gqd


def tree_log_likelihood(tree, model, matrix) -> float:
    return float(site_log_likelihoods(tree, model, matrix).sum())


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


# One rate without and with invariant sites, and two gamma categories with
# them: the Newton search alone must reach a boundary optimum under each.
BOUNDARY_MODELS = {
    "one rate": {},
    "one rate, p_inv": {"p_inv": 0.06},
    "two rates, p_inv": {"p_inv": 0.06, "gamma_shape": 0.7, "n_rate_cats": 2},
}


class TestOptimizeBranchLengths:
    @pytest.mark.parametrize("model_args", BOUNDARY_MODELS.values(), ids=BOUNDARY_MODELS)
    def test_identical_sequences_hit_the_floor(self, model_args):
        m = matrix_from_rows(["A", "B"], [list("KRSKRS"), list("KRSKRS")])
        model = build_model(m, **model_args)
        tree = parse_newick("(A:0.5,B:0.5);")
        out, _, _ = optimize_branch_lengths(tree, model, m)
        (u, v, w), = out.edges()
        assert w == MIN_BRANCH_LENGTH

    @pytest.mark.parametrize("model_args", BOUNDARY_MODELS.values(), ids=BOUNDARY_MODELS)
    def test_maximally_different_sequences_hit_the_cap(self, model_args):
        m = matrix_from_rows(["A", "B"], [list("KKKKKK"), list("RRRRRR")])
        model = build_model(m, **model_args)
        tree = parse_newick("(A:0.5,B:0.5);")
        out, _, _ = optimize_branch_lengths(tree, model, m)
        (u, v, w), = out.edges()
        assert w == MAX_BRANCH_LENGTH

    @pytest.mark.parametrize("rows, newick, bound", [
        (("KKKKKK", "KKKKKK"), "(A:0,B:0);", MIN_BRANCH_LENGTH),
        (("KKKKKK", "RRRRRR"), "(A:20,B:20);", MAX_BRANCH_LENGTH),
    ], ids=["below the floor", "above the cap"])
    def test_a_start_outside_the_bounds_is_clamped(self, rows, newick, bound):
        # Each start scores higher than its bound, so keeping the better
        # of the start and the search result would keep the start.
        m = matrix_from_rows(["A", "B"], [list(r) for r in rows])
        model = build_model(m, alphabet=["K", "R", "S"])
        out, ll, _ = optimize_branch_lengths(parse_newick(newick), model, m)
        (u, v, w), = out.edges()
        assert w == bound
        assert ll == pytest.approx(tree_log_likelihood(out, model, m), abs=1e-12)

    def test_three_taxon_grid_oracle(self):
        m = matrix_from_rows(
            ["A", "B", "C"],
            [list("KRSKRSKKRR"), list("KRSKRNKKRS"), list("TRSKSNKKRS")])
        model = build_model(m)
        tree = parse_newick("(A:0.1,B:0.1,C:0.1);")
        optimized, ll, _ = optimize_branch_lengths(tree, model, m)

        # Coordinate-descent over a 1e-3 grid, swept to a fixed point.
        # Both bounds join the grid so clamped optima stay reachable.
        hub = [n for n in tree.adjacency if not tree.is_leaf(n)][0]
        edges = [(tree.leaf_node(n), hub) for n in ("A", "B", "C")]
        grid = np.concatenate(
            ([MIN_BRANCH_LENGTH], np.arange(0.001, 1.0, 0.001),
             [MAX_BRANCH_LENGTH]))
        work = tree.copy()
        best = tree_log_likelihood(work, model, m)
        for _ in range(6):
            improved = False
            for u, v in edges:
                current = work.length(u, v)
                for value in grid:
                    work.set_length(u, v, float(value))
                    cand = tree_log_likelihood(work, model, m)
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
        before = tree_log_likelihood(tree, model, m)
        _, after, _ = optimize_branch_lengths(tree, model, m)
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


def edge_case(n_cats: int, p_inv: float, seed: int):
    """A random tree, model and matrix with some constant columns, so that
    the invariant component matters when ``p_inv`` is positive."""
    matrix = random_matrix(6, 80, "ABCD", seed=seed, gap_rate=0.1)
    cells = matrix.cells.copy()
    cells[:, :12] = cells[0, :12]
    matrix = CharacterMatrix(matrix.taxa, cells, matrix.concept_bounds)
    tree = random_tree(matrix.taxa, seed=seed)
    model = random_freq_model(
        4, seed=seed, p_inv=p_inv,
        gamma_shape=0.7 if n_cats > 1 else None, n_rate_cats=n_cats)
    return tree, model, prepare_sites(model, matrix)


def edge_objective(n_cats: int):
    """Negated log likelihood of one edge's length, as the search sees it."""
    tree, model, prep = edge_case(n_cats, 0.06, seed=n_cats)
    u, v, _ = tree.edges()[2]
    fn = edge_log_likelihood_fn(tree, model, prep, u, v)

    def objective(t):
        # The profiles' ranges reach negative lengths, where the
        # derivatives the closure also returns overflow.
        with np.errstate(over="ignore"):
            return -fn(t)[0]

    return objective


# The bounds and tolerance of each line search in mlsearch: branch lengths,
# the p_inv profile and the log gamma-shape profile.
SEARCHES = {
    1e-6: (MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH),
    1e-4: (0.0, 0.5),
    1e-3: (float(np.log(0.05)), float(np.log(20.0))),
}


class TestMinimizeBounded:
    """The in-house line search evaluates the points scipy's bounded
    method evaluates and returns its minimum, to the last bit."""

    @pytest.mark.parametrize("xatol", sorted(SEARCHES))
    @pytest.mark.parametrize("shape", [
        "interior quadratic", "lower bound", "upper bound", "constant", "kink",
        "one-rate edge", "two-rate edge",
    ])
    def test_matches_scipy(self, shape, xatol):
        from scipy.optimize import minimize_scalar

        lo, hi = SEARCHES[xatol]
        c = lo + 0.3 * (hi - lo)
        f = {
            "interior quadratic": lambda x: (x - c) ** 2 + 1.5,
            "lower bound": lambda x: 2.0 * x,
            "upper bound": lambda x: -x,
            "constant": lambda x: 1.0,
            "kink": lambda x: abs(x - c),
        }.get(shape) or edge_objective(1 if shape == "one-rate edge" else 2)
        points = []

        def counted(x):
            points.append(x)
            return f(x)

        x, fx, converged = mlsearch._minimize_bounded(counted, lo, hi, xatol)
        want = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        assert x == want.x
        assert fx == want.fun
        assert len(points) == want.nfev
        assert converged is bool(want.success) is True

    def test_stopping_at_the_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(mlsearch, "_MAX_EVALS", 3)
        calls = []
        x, fx, converged = mlsearch._minimize_bounded(
            lambda x: calls.append(x) or (x - 0.3) ** 2, 0.0, 1.0, 1e-6)
        assert converged is False
        assert len(calls) == 3
        assert fx == min((t - 0.3) ** 2 for t in calls)

    def test_nan_objective_is_not_converged(self):
        _, _, converged = mlsearch._minimize_bounded(lambda x: float("nan"), 0.0, 1.0, 1e-4)
        assert converged is False


class TestLineSearchWarnings:
    def test_edge_search_at_the_cap_is_logged(self, monkeypatch, caplog):
        matrix = small_matrix()
        model = build_model(matrix, p_inv=0.06)
        tree = init_tree(matrix, model)
        u, v, _ = tree.edges()[0]
        monkeypatch.setattr(mlsearch, "_MAX_NEWTON_EVALS", 2)
        with caplog.at_level(logging.WARNING, logger="relate.mlsearch"):
            gain, converged = mlsearch._optimize_edge(
                tree, model, prepare_sites(model, matrix), u, v)
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert f"edge ({u}, {v})" in record.getMessage()
        assert "cap of 2 evaluations" in record.getMessage()
        assert converged is False
        # The best length seen so far is still kept.
        assert gain > 0.0

    def test_profiles_at_the_cap_are_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(mlsearch, "_MAX_EVALS", 3)
        with caplog.at_level(logging.WARNING, logger="relate.mlsearch"):
            fit = ml_tree_estimated(small_matrix(), use_gamma=True)
        assert fit.converged is False
        messages = [r.getMessage() for r in caplog.records]
        for what in ("p_inv", "the gamma shape"):
            hits = [m for m in messages if m.startswith(f"line search over {what} ")]
            assert len(hits) == mlsearch._OUTER_ROUNDS
            assert all("cap of 3 evaluations" in m for m in hits)

    def test_nni_search_at_the_round_cap_is_logged(self, monkeypatch, caplog):
        truth = parse_newick(
            "((A:0.4,B:0.4):0.3,(C:0.4,D:0.4):0.3,E:0.6);")
        matrix = simulated_matrix(truth, random_freq_model(3, seed=5), 300, seed=11)
        model = build_model(matrix)
        start = random_tree(sorted(matrix.taxa), seed=99)
        # Uncapped, the search applies an improving move in round 1.
        assert len(nni_search(start, model, matrix).search_trace) > 2
        monkeypatch.setattr(mlsearch, "_MAX_NNI_ROUNDS", 1)
        with caplog.at_level(logging.WARNING, logger="relate.mlsearch"):
            fit = nni_search(start, model, matrix)
        (record,) = caplog.records
        assert "cap of 1 rounds" in record.getMessage()
        assert fit.converged is False
        assert [r for r, _ in fit.search_trace] == [0, 1]

    def test_default_fits_log_nothing(self, caplog):
        with caplog.at_level(logging.WARNING, logger="relate"):
            ml_tree(small_matrix(), 0.06)
            ml_tree_estimated(small_matrix(), use_gamma=True)
        assert caplog.records == []


class TestNewtonEdgeSearch:
    @pytest.mark.parametrize("n_cats", [1, 2, 4])
    @pytest.mark.parametrize("p_inv", [0.0, 0.06])
    def test_optimum_matches_a_tight_brent_search_and_a_grid(self, n_cats, p_inv):
        tree, model, prep = edge_case(n_cats, p_inv, seed=n_cats)
        grid = np.concatenate(([MIN_BRANCH_LENGTH], np.geomspace(1e-4, MAX_BRANCH_LENGTH, 400)))
        for u, v, _ in tree.edges():
            work = tree.copy()
            fn = edge_log_likelihood_fn(work, model, prep, u, v)
            _, fun, _ = mlsearch._minimize_bounded(
                lambda t: -fn(t)[0], MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH, 1e-10)
            brent = max(-fun, fn(MIN_BRANCH_LENGTH)[0], fn(MAX_BRANCH_LENGTH)[0])
            best_on_grid = max(fn(float(t))[0] for t in grid)
            _, converged = mlsearch._optimize_edge(work, model, prep, u, v)
            got = fn(work.length(u, v))[0]
            assert converged is True
            assert abs(got - brent) <= 1e-6
            assert got >= best_on_grid - 1e-9

    def test_a_pass_through_wrapper_of_the_closure_changes_nothing(self, monkeypatch):
        # Benchmark tracing wraps each closure in a function that passes
        # arguments and results through but drops attributes: the search
        # must need nothing from the closure but its return value.
        tree, model, prep = edge_case(2, 0.06, seed=5)
        plain = optimize_branch_lengths(tree, model, prep)
        original = phylik.edge_log_likelihood_fn
        wrapped = []

        def wrapping(*args, **kwargs):
            closure = original(*args, **kwargs)

            def wrapper(*call_args, **call_kwargs):
                wrapped.append(call_args)
                return closure(*call_args, **call_kwargs)

            return wrapper

        monkeypatch.setattr(phylik, "edge_log_likelihood_fn", wrapping)
        out, ll, converged = optimize_branch_lengths(tree, model, prep)
        assert wrapped
        assert write_newick(out) == write_newick(plain[0])
        assert (ll, converged) == plain[1:] == (plain[1], True)

    @pytest.mark.parametrize("n_cats", [1, 2])
    def test_interior_optima_are_found_without_evaluating_a_bound(self, n_cats, monkeypatch):
        # Sites simulated on moderate lengths: every edge's optimum is interior.
        tree = parse_newick("((A:0.3,B:0.2):0.2,(C:0.3,D:0.4):0.1,E:0.5);")
        model = random_freq_model(
            4, seed=n_cats, p_inv=0.06,
            gamma_shape=0.7 if n_cats > 1 else None, n_rate_cats=n_cats)
        prep = prepare_sites(model, simulated_matrix(tree, model, 400, seed=n_cats))
        original = phylik.edge_log_likelihood_fn
        lengths = []

        def recording(*args, **kwargs):
            closure = original(*args, **kwargs)

            def wrapper(t):
                lengths.append(t)
                return closure(t)

            return wrapper

        monkeypatch.setattr(phylik, "edge_log_likelihood_fn", recording)
        for u, v, _ in tree.edges():
            mlsearch._optimize_edge(tree, model, prep, u, v)
            assert MIN_BRANCH_LENGTH < tree.length(u, v) < MAX_BRANCH_LENGTH
        assert lengths
        assert MIN_BRANCH_LENGTH not in lengths
        assert MAX_BRANCH_LENGTH not in lengths


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
        expected, ll, _ = optimize_branch_lengths(
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
        recomputed = tree_log_likelihood(fit.tree, fit.model, matrix)
        assert fit.log_likelihood == pytest.approx(recomputed, abs=1e-6)

    def test_same_seed_same_result(self):
        truth = parse_newick("((A:0.3,B:0.3):0.2,(C:0.3,D:0.3):0.2,E:0.5);")
        model = random_freq_model(3, seed=2)
        matrix = simulated_matrix(truth, model, 250, seed=8)
        one = ml_tree(matrix, p_inv=0.05, config=SearchConfig(seed=4))
        two = ml_tree(matrix, p_inv=0.05, config=SearchConfig(seed=4))
        assert write_newick(one.tree) == write_newick(two.tree)
        assert one.log_likelihood == two.log_likelihood

    def test_search_config_holds_only_the_seed(self):
        assert SearchConfig(seed=3) == SearchConfig(3)
        with pytest.raises(TypeError):
            SearchConfig(seed=3, random_restarts=2)

    def test_one_search_from_the_seeded_start(self, monkeypatch):
        matrix = small_matrix(seed=0)
        seeds = []
        real_init = mlsearch.init_tree

        def recording(m, model, seed=42):
            seeds.append(seed)
            return real_init(m, model, seed)

        monkeypatch.setattr(mlsearch, "init_tree", recording)
        fit = ml_tree(matrix, 0.05, SearchConfig(seed=9))
        assert seeds == [9]
        alone = nni_search(real_init(matrix, fit.model, 9), fit.model, matrix)
        assert write_newick(fit.tree) == write_newick(alone.tree)
        assert fit.log_likelihood == alone.log_likelihood

    def test_fits_report_whether_their_searches_converged(self, monkeypatch, caplog):
        matrix = small_matrix()
        assert ml_tree(matrix, 0.06).converged is True
        with caplog.at_level(logging.WARNING, logger="relate.mlsearch"):
            monkeypatch.setattr(mlsearch, "_MAX_SWEEPS", 1)
            assert ml_tree(matrix, 0.06).converged is False
            monkeypatch.setattr(mlsearch, "_MAX_SWEEPS", 50)
            monkeypatch.setattr(mlsearch, "_MAX_NEWTON_EVALS", 2)
            assert ml_tree(matrix, 0.06).converged is False

    def test_two_taxa_single_edge(self):
        m = matrix_from_rows(["A", "B"], [list("KRSKRR"), list("KRNKRS")])
        fit = ml_tree(m, p_inv=0.01)
        assert fit.tree.n_leaves == 2
        assert len(fit.tree.edges()) == 1

    def test_two_identical_taxa_get_the_length_floor(self):
        fit = ml_tree(CharacterMatrix(["A", "B"], [list("KRSKRS")] * 2), 0.06)
        (_, _, length), = fit.tree.edges()
        assert length == MIN_BRANCH_LENGTH
        assert ":-" not in write_newick(fit.tree)

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
