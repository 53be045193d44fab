"""Newick IO and pruning likelihood against a brute-force oracle."""

import numpy as np
import pytest

import oracles
from helpers import (
    leaf_symbol_map,
    matrix_from_rows,
    random_freq_model,
    random_matrix,
    random_tree,
)
from relate.errors import (
    NumericalUnderflowError,
    ParseError,
    SchemaError,
    TaxaMismatchError,
)
from relate.mlsearch import _apply_nni
from relate.msa import CharacterMatrix
from relate.phylik import (
    DEFAULT_BRANCH_LENGTH,
    MAX_BRANCH_LENGTH,
    MIN_BRANCH_LENGTH,
    PartialCache,
    Phylogeny,
    _default_root,
    _logmeanexp,
    edge_log_likelihood_fn,
    parse_newick,
    prepare_sites,
    site_log_likelihoods,
    write_newick,
)
from relate.submodel import SubstitutionModel


def small_model(p_inv: float = 0.0, gamma_shape=None, n_cats: int = 1):
    return SubstitutionModel(alphabet=("A", "B", "C"), freqs=(0.5, 0.3, 0.2),
                             p_inv=p_inv, gamma_shape=gamma_shape,
                             n_rate_cats=n_cats)


class TestParseNewick:
    def test_three_leaf_lengths(self):
        tree = parse_newick("((A:0.1,B:0.1):0.05,C:0.2);")
        a = tree.leaf_node("A")
        hub = tree.neighbors(a)[0]
        assert tree.length(a, hub) == pytest.approx(0.1)
        assert tree.n_leaves == 3

    def test_degree_two_root_is_fused(self):
        # A rooted binary input becomes the unrooted tree; the two root
        # edges merge into one of combined length.
        tree = parse_newick("((A:0.1,B:0.2):0.05,(C:0.3,D:0.4):0.15);")
        assert tree.n_leaves == 4
        lengths = sorted(round(w, 10) for _, _, w in tree.edges())
        assert lengths == [0.1, 0.2, 0.2, 0.3, 0.4]

    def test_unterminated_input(self):
        with pytest.raises(ParseError):
            parse_newick("((A,B)")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_newick("(A:0.1,,B:0.2);")
        assert err.value.position is not None

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ParseError):
            parse_newick("((A:1,A:1):1,B:1);")

    def test_missing_lengths_get_default(self):
        # The two root edges fuse, so one edge carries twice the default.
        tree = parse_newick("((A,B),C);")
        lengths = sorted(w for _, _, w in tree.edges())
        assert lengths == pytest.approx([DEFAULT_BRANCH_LENGTH,
                                         DEFAULT_BRANCH_LENGTH,
                                         2 * DEFAULT_BRANCH_LENGTH])

    def test_quoted_labels(self):
        tree = parse_newick("(('Old Norse':0.1,B:0.1):0.1,C:0.1);")
        assert "Old Norse" in tree.taxa

    def test_roundtrip_preserves_topology_and_lengths(self):
        text = "((A:0.125,B:0.25):0.0625,(C:0.5,D:1):0.03125,E:2);"
        tree = parse_newick(text)
        again = parse_newick(write_newick(tree))
        assert write_newick(again) == write_newick(tree)
        assert sorted(w for _, _, w in again.edges()) == pytest.approx(
            sorted(w for _, _, w in tree.edges()))


class TestWriteNewick:
    def test_three_leaf_canonical_shape(self):
        tree = parse_newick("((A:0.1,B:0.1):0.05,C:0.2);")
        text = write_newick(tree)
        assert text.startswith("(A:")
        assert text.endswith(";")
        assert text.count("(") == 1

    def test_label_order_invariance(self):
        variants = [
            "((A:0.1,B:0.2):0.05,(C:0.3,D:0.4):0.15);",
            "((B:0.2,A:0.1):0.05,(D:0.4,C:0.3):0.15);",
            "((D:0.4,C:0.3):0.15,(B:0.2,A:0.1):0.05);",
        ]
        texts = {write_newick(parse_newick(v)) for v in variants}
        assert len(texts) == 1

    def test_two_leaf_special_case(self):
        tree = parse_newick("(A:1.5,B:1.5);")
        assert write_newick(tree) == "(A:3,B:0);"

    def test_ten_significant_digits(self):
        tree = parse_newick("((A:0.123456789012,B:1):1,C:1);")
        assert "0.123456789" in write_newick(tree)


class TestPhylogenyValidation:
    def test_internal_degree_must_be_three(self):
        adjacency = {0: {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0},
                     1: {0: 1.0}, 2: {0: 1.0}, 3: {0: 1.0}, 4: {0: 1.0}}
        leaves = {1: "A", 2: "B", 3: "C", 4: "D"}
        with pytest.raises(SchemaError):
            Phylogeny(adjacency, leaves)

    def test_disconnected_rejected(self):
        adjacency = {0: {1: 1.0}, 1: {0: 1.0}, 2: {3: 1.0}, 3: {2: 1.0}}
        with pytest.raises(SchemaError):
            Phylogeny(adjacency, {0: "A", 1: "B", 2: "C", 3: "D"})

    def test_random_tree_is_valid_and_seeded(self):
        labels = [f"t{i}" for i in range(8)]
        one = random_tree(labels, seed=5)
        two = random_tree(labels, seed=5)
        other = random_tree(labels, seed=6)
        assert write_newick(one) == write_newick(two)
        assert write_newick(one) != write_newick(other)
        assert one.n_leaves == 8


class TestPruningAgainstEnumeration:
    def test_four_taxon_site_with_gaps(self):
        tree = parse_newick("((A:0.12,B:0.34):0.21,(C:0.55,D:0.08):0.13);")
        rows = ["AB-CA", "BBAC-", "---CA", "CABCA"]
        matrix = matrix_from_rows(["A", "B", "C", "D"], rows)
        model = small_model()
        got = site_log_likelihoods(tree, model, matrix)
        want = oracles.enumeration_log_likelihoods(
            tree.adjacency, leaf_symbol_map(tree, matrix),
            model.alphabet, model.freqs)
        assert np.allclose(got, want, rtol=1e-10)

    def test_mixture_with_invariant_component(self):
        tree = parse_newick("((A:0.3,B:0.2):0.1,C:0.4);")
        rows = ["AABBA", "AAB-A", "AACBA"]
        matrix = matrix_from_rows(["A", "B", "C"], rows)
        model = small_model(p_inv=0.06)
        got = site_log_likelihoods(tree, model, matrix)
        want = oracles.enumeration_log_likelihoods(
            tree.adjacency, leaf_symbol_map(tree, matrix),
            model.alphabet, model.freqs, p_inv=0.06)
        assert np.allclose(got, want, rtol=1e-10)

    def test_gamma_mixture(self):
        tree = parse_newick("((A:0.3,B:0.2):0.1,(C:0.4,D:0.25):0.15);")
        matrix = random_matrix(4, 12, "ABC", seed=33, gap_rate=0.15)
        matrix = CharacterMatrix(["A", "B", "C", "D"], matrix.cells,
                                 matrix.concept_bounds)
        model = small_model(p_inv=0.1, gamma_shape=0.9, n_cats=2)
        got = site_log_likelihoods(tree, model, matrix)
        want = oracles.enumeration_log_likelihoods(
            tree.adjacency, leaf_symbol_map(tree, matrix),
            model.alphabet, model.freqs, p_inv=0.1, rates=model.rates)
        assert np.allclose(got, want, rtol=1e-10)

    def test_zero_length_edges_and_all_gap_sites(self):
        cases = [
            ("(A:0.0,B:0.0);", ["C-B", "C--"]),
            ("((A:0.0,B:0.2):0.0,(C:0.3,D:0.0):0.0);",
             ["CA-B-", "CAAB-", "C-AC-", "CA-B-"]),
        ]
        for newick, rows in cases:
            tree = parse_newick(newick)
            matrix = matrix_from_rows("ABCD"[:len(rows)], rows)
            for p_inv in (0.0, 0.06):
                model = small_model(p_inv=p_inv)
                got = site_log_likelihoods(tree, model, matrix)
                want = oracles.enumeration_log_likelihoods(
                    tree.adjacency, leaf_symbol_map(tree, matrix),
                    model.alphabet, model.freqs, p_inv=p_inv)
                assert np.allclose(got, want, rtol=1e-10)

    def test_five_leaf_trees_random_sites(self):
        model = small_model()
        rng = np.random.default_rng(7)
        for seed in range(3):
            tree = random_tree(["A", "B", "C", "D", "E"], seed=seed)
            cells = rng.choice(list("ABC"), size=(5, 6))
            matrix = CharacterMatrix(["A", "B", "C", "D", "E"], cells,
                                     [("c0", 0, 6)])
            got = site_log_likelihoods(tree, model, matrix)
            want = oracles.enumeration_log_likelihoods(
                tree.adjacency, leaf_symbol_map(tree, matrix),
                model.alphabet, model.freqs)
            assert np.allclose(got, want, rtol=1e-10)


class TestLikelihoodProperties:
    def test_single_taxon_single_site(self):
        tree = parse_newick("A;")
        matrix = matrix_from_rows(["A"], [["A"]])
        model = small_model()
        total = site_log_likelihoods(tree, model, matrix).sum()
        assert total == pytest.approx(np.log(0.5))

    def test_single_edge_zero_length(self):
        tree = parse_newick("(A:0.0,B:0.0);")
        matrix = matrix_from_rows(["A", "B"], [["B"], ["B"]])
        model = small_model()
        total = site_log_likelihoods(tree, model, matrix).sum()
        assert total == pytest.approx(np.log(0.3))

    def test_gap_leaf_is_missing_data(self):
        tree = parse_newick("(A:0.4,B:0.4);")
        matrix = matrix_from_rows(["A", "B"], [["B"], ["-"]])
        model = small_model()
        total = site_log_likelihoods(tree, model, matrix).sum()
        assert total == pytest.approx(np.log(0.3))

    def test_all_gap_site_contributes_nothing(self):
        tree = parse_newick("((A:0.3,B:0.2):0.1,C:0.4);")
        matrix = matrix_from_rows(["A", "B", "C"], [["A", "-"], ["B", "-"],
                                                    ["A", "-"]])
        model = small_model(p_inv=0.2)
        sites = site_log_likelihoods(tree, model, matrix)
        assert sites[1] == pytest.approx(0.0, abs=1e-12)

    def test_total_equals_sum_of_sites(self):
        # The edge closure sums its own per-site values: at the current
        # length of any edge it gives the total of the per-site values.
        tree = random_tree([f"t{i}" for i in range(6)], seed=3)
        matrix = random_matrix(6, 40, "ABC", seed=4, gap_rate=0.1)
        model = small_model(p_inv=0.06)
        prep = prepare_sites(model, matrix)
        total = float(site_log_likelihoods(tree, model, prep).sum())
        for u, v, length in tree.edges():
            fn = edge_log_likelihood_fn(tree, model, prep, u, v)
            assert fn(length)[0] == pytest.approx(total, abs=1e-8)

    def test_root_choice_is_irrelevant(self):
        tree = random_tree([f"t{i}" for i in range(7)], seed=9)
        matrix = random_matrix(7, 25, "ABC", seed=10, gap_rate=0.2)
        model = small_model(p_inv=0.06)
        prep = prepare_sites(model, matrix)
        internal = [n for n in tree.adjacency if not tree.is_leaf(n)]
        totals = [site_log_likelihoods(tree, model, prep, root=r).sum()
                  for r in internal]
        assert np.ptp(totals) < 1e-9

    def test_adding_all_gap_taxon_changes_nothing(self):
        taxa = ["A", "B", "C", "D"]
        tree = parse_newick("((A:0.12,B:0.34):0.21,(C:0.55,D:0.08):0.13);")
        matrix = random_matrix(4, 15, "ABC", seed=20, gap_rate=0.1)
        matrix = CharacterMatrix(taxa, matrix.cells, matrix.concept_bounds)
        base = site_log_likelihoods(tree, small_model(), matrix)

        # E hangs off the midpoint of C's edge; C keeps its path lengths.
        bigger = parse_newick(
            "((A:0.12,B:0.34):0.21,((C:0.25,E:0.4):0.3,D:0.08):0.13);")
        cells = np.vstack([matrix.cells, np.full((1, 15), "-")])
        wider = CharacterMatrix(taxa + ["E"], cells, matrix.concept_bounds)
        padded = site_log_likelihoods(bigger, small_model(), wider)
        assert np.allclose(base, padded, atol=1e-12)

    def test_invariant_matrix_prefers_larger_p_inv(self):
        tree = parse_newick("((A:0.3,B:0.2):0.1,C:0.4);")
        matrix = matrix_from_rows(["A", "B", "C"],
                                  [["A"] * 6, ["A"] * 6, ["A"] * 6])
        lo = site_log_likelihoods(tree, small_model(p_inv=0.01), matrix).sum()
        hi = site_log_likelihoods(tree, small_model(p_inv=0.3), matrix).sum()
        assert hi > lo

    def test_taxa_mismatch_reported(self):
        tree = parse_newick("((A:0.3,B:0.2):0.1,C:0.4);")
        matrix = matrix_from_rows(["A", "B", "X"], [["A"], ["B"], ["A"]])
        with pytest.raises(TaxaMismatchError):
            site_log_likelihoods(tree, small_model(), matrix)

    def test_impossible_site_reports_underflow(self):
        # p_inv = 0 with a zero-probability state is impossible only when a
        # frequency is zero, which the model forbids; force underflow via an
        # all-different invariant-only model instead.
        tree = parse_newick("(A:0.0,B:0.0);")
        matrix = matrix_from_rows(["A", "B"], [["A"], ["B"]])
        model = small_model()
        # Zero-length edge, different states: variable likelihood is 0 and
        # the invariant component is 0 because the site is not constant.
        with pytest.raises(NumericalUnderflowError):
            site_log_likelihoods(tree, model, matrix)

    def test_long_alignment_does_not_underflow(self):
        tree = random_tree([f"t{i}" for i in range(30)], seed=2,
                           min_length=0.5, max_length=5.0)
        matrix = random_matrix(30, 200, "ABC", seed=6)
        matrix = CharacterMatrix([f"t{i}" for i in range(30)], matrix.cells,
                                 matrix.concept_bounds)
        total = site_log_likelihoods(tree, small_model(), matrix).sum()
        assert np.isfinite(total)


def site_conditionals(tree, model, matrix, site):
    """Unscaled per-state conditional likelihoods of one site at the default
    virtual root, read from a fresh cache (variable component, one rate)."""
    cache = PartialCache(tree, model, prepare_sites(model, matrix))
    ((value, logs),) = cache.partial(_default_root(tree))
    return value[:, site] * np.exp(logs[site])


class TestSiteConditionals:
    def test_zero_length_identity(self):
        tree = parse_newick("(A:0.0,B:0.0);")
        matrix = matrix_from_rows(["A", "B"], [["C"], ["C"]])
        vec = site_conditionals(tree, small_model(), matrix, site=0)
        assert np.allclose(vec, [0.0, 0.0, 1.0])

    def test_gap_leaf_gives_ones_through_zero_edge(self):
        tree = parse_newick("(A:0.0,B:0.0);")
        matrix = matrix_from_rows(["A", "B"], [["-"], ["-"]])
        vec = site_conditionals(tree, small_model(), matrix, site=0)
        assert np.allclose(vec, [1.0, 1.0, 1.0])

    def test_pi_weighting_reproduces_site_likelihood(self):
        tree = parse_newick("((A:0.3,B:0.2):0.1,C:0.4);")
        matrix = matrix_from_rows(["A", "B", "C"], [["A"], ["B"], ["A"]])
        model = small_model()
        vec = site_conditionals(tree, model, matrix, site=0)
        direct = site_log_likelihoods(tree, model, matrix)[0]
        assert np.log(float(model.freqs @ vec)) == pytest.approx(direct)


def assert_matches_fresh_copy(tree, model, prep, cache):
    """Every edge closure and the whole-tree likelihood read through
    ``cache`` equal a from-scratch evaluation on a copy of the tree."""
    fresh = tree.copy()
    got = site_log_likelihoods(tree, model, prep, cache=cache)
    want = site_log_likelihoods(fresh, model, prep)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    for u, v, length in tree.edges():
        got_fn = edge_log_likelihood_fn(tree, model, prep, u, v, cache=cache)
        want_fn = edge_log_likelihood_fn(fresh, model, prep, u, v)
        for t in (length, 1e-6, 0.3, 4.0):
            np.testing.assert_allclose(got_fn(t)[0], want_fn(t)[0], rtol=1e-12, atol=0.0)


class TestPartialCache:
    @pytest.mark.parametrize("seed", range(4))
    def test_length_changes_and_nni_moves_stay_coherent(self, seed):
        rng = np.random.default_rng(seed)
        n_taxa = int(rng.integers(8, 13))
        matrix = random_matrix(n_taxa, 40, "ABCD", seed=seed, gap_rate=0.1)
        tree = random_tree(matrix.taxa, seed=seed)
        model = random_freq_model(
            4, seed=seed, p_inv=0.15, gamma_shape=0.7, n_rate_cats=2)
        prep = prepare_sites(model, matrix)
        cache = PartialCache(tree, model, prep)
        for step in range(12):
            if step % 3 == 2:
                internal = tree.internal_edges()
                u, v = internal[rng.integers(len(internal))]
                x = int(rng.choice([n for n in tree.neighbors(u) if n != v]))
                y = int(rng.choice([n for n in tree.neighbors(v) if n != u]))
                candidate = tree.copy()
                _apply_nni(candidate, u, x, v, y)
                before = site_log_likelihoods(tree, model, prep, cache=cache)
                moved = cache.after_nni(candidate, u, x, v, y)
                # The source cache stays valid for the tree it came from.
                np.testing.assert_array_equal(
                    site_log_likelihoods(tree, model, prep, cache=cache), before)
                tree, cache = candidate, moved
            else:
                u, v, _ = tree.edges()[rng.integers(len(tree.edges()))]
                cache.set_length(u, v, float(rng.uniform(1e-6, 1.5)))
            assert_matches_fresh_copy(tree, model, prep, cache)

    def test_partial_fill_before_a_move_stays_coherent(self):
        matrix = random_matrix(9, 30, "ABC", seed=8, gap_rate=0.05)
        tree = random_tree(matrix.taxa, seed=8)
        model = random_freq_model(3, seed=8, p_inv=0.1, gamma_shape=1.3, n_rate_cats=2)
        prep = prepare_sites(model, matrix)
        cache = PartialCache(tree, model, prep)
        # Only the entries toward one edge exist when its neighbor moves.
        (u, v), *_ = tree.internal_edges()
        edge_log_likelihood_fn(tree, model, prep, u, v, cache=cache)
        w = next(n for n in tree.neighbors(u) if n != v)
        cache.set_length(u, w, 0.9)
        assert_matches_fresh_copy(tree, model, prep, cache)

    @pytest.mark.parametrize("n_cats", [1, 2])
    def test_entries_match_matrix_exponential_transitions(self, n_cats):
        # Each entry is the product over the node's other neighbors of
        # P(t) @ (their entry), rescaled per site, with P(t) from the
        # matrix exponential of the generator.
        matrix = random_matrix(6, 25, "ABCD", seed=n_cats, gap_rate=0.1)
        tree = random_tree(matrix.taxa, seed=n_cats)
        model = random_freq_model(
            4, seed=n_cats, gamma_shape=0.7 if n_cats > 1 else None, n_rate_cats=n_cats)
        cache = PartialCache(tree, model, prepare_sites(model, matrix))
        cache.variable_site_logs()
        for node in tree.adjacency:
            if tree.is_leaf(node):
                continue
            for toward in tree.neighbors(node):
                for k, rate in enumerate(model.rates):
                    value, logs = cache.partial(node, toward)[k]
                    product = np.ones_like(value)
                    scale = np.zeros_like(logs)
                    for child in tree.neighbors(node):
                        if child != toward:
                            child_value, child_logs = cache.partial(child, node)[k]
                            p = oracles.expm_transition(model.freqs, tree.length(node, child), rate)
                            product = product * (p @ child_value)
                            scale = scale + child_logs
                    np.testing.assert_allclose(
                        value * np.exp(logs), product * np.exp(scale), rtol=1e-10, atol=0.0)

    def test_cache_of_another_tree_is_rejected(self):
        matrix = random_matrix(5, 10, "ABC", seed=1)
        tree = random_tree(matrix.taxa, seed=1)
        model = small_model()
        prep = prepare_sites(model, matrix)
        cache = PartialCache(tree, model, prep)
        with pytest.raises(ValueError):
            site_log_likelihoods(tree.copy(), model, prep, cache=cache)

    def test_deep_caterpillar_evaluates_without_recursion(self):
        # Leaves 0..n-1 hang off a path of n - 2 internal nodes, so the
        # tree is about as deep as it has leaves.
        n = 1500
        spine = list(range(n, 2 * n - 2))
        adjacency = {node: {} for node in range(2 * n - 2)}

        def join(a, b, length=0.05):
            adjacency[a][b] = adjacency[b][a] = length

        for a, b in zip(spine, spine[1:]):
            join(a, b)
        join(0, spine[0])
        join(1, spine[0])
        for leaf in range(2, n - 2):
            join(leaf, spine[leaf - 1])
        join(n - 2, spine[-1])
        join(n - 1, spine[-1])
        matrix = random_matrix(n, 3, "ABC", seed=4, gap_rate=0.2)
        tree = Phylogeny(adjacency, dict(enumerate(matrix.taxa)))
        model = small_model(p_inv=0.05)
        prep = prepare_sites(model, matrix)
        cache = PartialCache(tree, model, prep)
        assert np.all(np.isfinite(site_log_likelihoods(tree, model, prep, cache=cache)))
        fn = edge_log_likelihood_fn(tree, model, prep, n - 1, spine[-1], cache=cache)
        assert np.all(np.isfinite(fn(0.1)))


class TestEdgeLogLikelihoodFn:
    LENGTHS = (MIN_BRANCH_LENGTH, 1e-6, 0.3, 4.0, MAX_BRANCH_LENGTH)

    def edge_case(self, n_cats, p_inv, seed=3, n_sites=60):
        matrix = random_matrix(7, n_sites, "ABCD", seed=seed, gap_rate=0.1)
        cells = matrix.cells.copy()
        cells[:, :5] = cells[0, :5]
        matrix = CharacterMatrix(matrix.taxa, cells, matrix.concept_bounds)
        tree = random_tree(matrix.taxa, seed=seed)
        model = random_freq_model(
            4, seed=seed, p_inv=p_inv,
            gamma_shape=0.7 if n_cats > 1 else None, n_rate_cats=n_cats)
        prep = prepare_sites(model, matrix)
        cache = PartialCache(tree, model, prep)
        return tree, model, prep, cache

    @pytest.mark.parametrize("n_cats", [2, 3, 4, 8])
    def test_logmeanexp_matches_the_mean_formula(self, n_cats):
        rng = np.random.default_rng(n_cats)
        rows = rng.uniform(-800.0, 0.0, size=(n_cats, 300))
        rows[:, :100] = rng.normal(-5.0, 0.01, size=(n_cats, 100))
        assert np.array_equal(_logmeanexp(rows), oracles.reference_logmeanexp(rows))
        one = rows[:1]
        assert np.array_equal(_logmeanexp(one), oracles.reference_logmeanexp(one))

    @pytest.mark.parametrize("n_cats", [1, 2, 4])
    @pytest.mark.parametrize("p_inv", [0.0, 0.06])
    def test_closure_matches_the_direct_formula(self, n_cats, p_inv):
        tree, model, prep, cache = self.edge_case(n_cats, p_inv)
        for u, v, _ in tree.edges():
            fn = edge_log_likelihood_fn(tree, model, prep, u, v, cache=cache)
            sides_u, sides_v = cache.partial(u, v), cache.partial(v, u)
            want = [
                oracles.reference_edge_log_likelihood(
                    model.freqs, model.mu, model.rates, sides_u, sides_v,
                    prep.log_inv, model.p_inv, t)
                for t in self.LENGTHS
            ]
            got = [fn(t)[0] for t in self.LENGTHS]
            assert got == want
            # The closure reuses its buffers: calls in another order agree.
            assert [fn(t)[0] for t in reversed(self.LENGTHS)] == want[::-1]

    @pytest.mark.parametrize("n_cats", [1, 2, 4])
    @pytest.mark.parametrize("p_inv", [0.0, 0.06])
    def test_derivatives_match_high_precision_differentiation(self, n_cats, p_inv):
        tree, model, prep, cache = self.edge_case(n_cats, p_inv, n_sites=30)
        # Constant columns make the invariant component count.
        assert np.isfinite(prep.log_inv).sum() >= 5
        for u, v, _ in tree.edges()[:3]:
            fn = edge_log_likelihood_fn(tree, model, prep, u, v, cache=cache)
            for t in (MIN_BRANCH_LENGTH, 0.3, MAX_BRANCH_LENGTH):
                _, slope, curvature = fn(t)
                want = oracles.reference_edge_derivatives(
                    model.freqs, model.mu, model.rates, cache.partial(u, v),
                    cache.partial(v, u), prep.log_inv, model.p_inv, t)
                assert (slope, curvature) == pytest.approx(want, rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize("n_cats", [1, 2])
    def test_nan_length_names_site_0(self, n_cats):
        tree, model, prep, cache = self.edge_case(n_cats, 0.06)
        u, v, _ = tree.edges()[0]
        fn = edge_log_likelihood_fn(tree, model, prep, u, v, cache=cache)
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericalUnderflowError, match="^site 0 has zero likelihood$"):
            fn(float("nan"))
