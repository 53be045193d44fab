"""Parametric simulation: draw order, marginals, gap-mask handling."""

import numpy as np
import pytest

from helpers import matrix_from_rows, random_freq_model
from oracles import expm_transition
from relate.bootsim import SimConfig, simulate_matrix, simulate_sites
from relate.errors import TaxaMismatchError
from relate.mlsearch import MlFit
from relate.phylik import parse_newick
from relate.soundclass import GAP

#: A model's invariant share is below one; at this one a site is variable
#: with probability 1e-12.
ALMOST_ONE = 1.0 - 1e-12


def make_fit(newick: str, model) -> MlFit:
    tree = parse_newick(newick)
    return MlFit(tree=tree, model=model, log_likelihood=0.0, search_trace=((0, 0.0),))


class TestSimulateSites:
    def test_forced_invariant_sites_are_constant(self):
        model = random_freq_model(4, seed=0, p_inv=ALMOST_ONE)
        tree = parse_newick("((A:0.5,B:0.5):0.3,(C:0.5,D:0.5):0.3);")
        states = simulate_sites(tree, model, 200, np.random.default_rng(1))
        stacked = np.stack([states[t] for t in sorted(states)])
        assert (stacked == stacked[0]).all()

    def test_zero_length_branches_copy_the_root_draw(self):
        model = random_freq_model(5, seed=1)
        tree = parse_newick("((A:0,B:0):0,(C:0,D:0):0);")
        seed = 7
        states = simulate_sites(tree, model, 300, np.random.default_rng(seed))

        # Replay the documented draw order: invariant mask, invariant
        # states, then the stationary root draw (one rate category, so no
        # category draw in between).
        rng = np.random.default_rng(seed)
        rng.random(300)
        cum = np.cumsum(model.freqs)
        np.minimum(np.searchsorted(cum, rng.random(300), side="right"), 4)
        root = np.minimum(np.searchsorted(cum, rng.random(300), side="right"), 4)
        for taxon in ("A", "B", "C", "D"):
            assert (states[taxon] == root).all()

    def test_single_edge_mismatch_rate_matches_the_model(self):
        model = random_freq_model(4, seed=2)
        t = 0.35
        tree = parse_newick(f"(A:{t},B:0);")
        n = 100_000
        states = simulate_sites(tree, model, n, np.random.default_rng(3))
        observed = float(np.mean(states["A"] != states["B"]))
        p_matrix = expm_transition(model.freqs, t)
        expected = 1.0 - float(model.freqs @ np.diag(p_matrix))
        se = np.sqrt(expected * (1.0 - expected) / n)
        assert abs(observed - expected) <= 3.0 * se

    def test_two_rate_categories_average_the_mismatch_rate(self):
        model = random_freq_model(4, seed=3, gamma_shape=1.0, n_rate_cats=2)
        t = 0.4
        tree = parse_newick(f"(A:{t},B:0);")
        n = 100_000
        states = simulate_sites(tree, model, n, np.random.default_rng(4))
        observed = float(np.mean(states["A"] != states["B"]))
        expected = 0.0
        for rate in model.rates:
            p_matrix = expm_transition(model.freqs, t, rate=rate)
            expected += 0.5 * (1.0 - float(model.freqs @ np.diag(p_matrix)))
        se = np.sqrt(expected * (1.0 - expected) / n)
        assert abs(observed - expected) <= 3.0 * se

    def test_leaf_marginals_are_stationary(self):
        model = random_freq_model(3, seed=4)
        tree = parse_newick("((A:0.8,B:0.1):0.4,C:0.2);")
        n = 60_000
        states = simulate_sites(tree, model, n, np.random.default_rng(5))
        for taxon in ("A", "B", "C"):
            counts = np.bincount(states[taxon], minlength=3)
            expected = model.freqs * n
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            # 2 degrees of freedom; 13.8 is the 0.1% critical value.
            assert chi2 < 13.8

    def test_same_rng_state_reproduces_draws(self):
        model = random_freq_model(4, seed=5)
        tree = parse_newick("((A:0.3,B:0.2):0.1,C:0.4);")
        one = simulate_sites(tree, model, 50, np.random.default_rng(11))
        two = simulate_sites(tree, model, 50, np.random.default_rng(11))
        assert set(one) == set(two)
        for taxon in one:
            assert (one[taxon] == two[taxon]).all()


class TestSimulateMatrix:
    def template(self):
        return matrix_from_rows(
            ["A", "B", "C"],
            [list("KR-S"), list("K-RS"), list("KRRS")],
            bounds=[("c0", 0, 2), ("c1", 2, 4)])

    def fit_for(self, template, seed=0, p_inv=0.0):
        model = random_freq_model(4, seed=seed, p_inv=p_inv)
        return make_fit("(A:0.3,B:0.2,C:0.4);", model)

    def test_gap_mask_carries_over_exactly(self):
        template = self.template()
        rep = simulate_matrix(self.fit_for(template), template, SimConfig(seed=1))
        assert (rep.gap_mask() == template.gap_mask()).all()
        assert rep.taxa == template.taxa
        assert rep.concept_bounds == template.concept_bounds
        non_gap = rep.cells[~rep.gap_mask()]
        assert GAP not in set(non_gap.ravel())

    def test_gap_free_template_gives_gap_free_replicate(self):
        template = matrix_from_rows(
            ["A", "B", "C"], [list("KRSK"), list("KRRS"), list("KSSS")])
        rep = simulate_matrix(self.fit_for(template), template, SimConfig(seed=2))
        assert not rep.gap_mask().any()

    def test_all_gap_template_gives_all_gap_replicate(self):
        template = matrix_from_rows(
            ["A", "B", "C"], [list("---"), list("---"), list("---")])
        rep = simulate_matrix(self.fit_for(template), template, SimConfig(seed=3))
        assert rep.gap_mask().all()

    def test_forced_invariant_replicate_is_constant_before_masking(self):
        template = self.template()
        rep = simulate_matrix(
            self.fit_for(template, p_inv=ALMOST_ONE), template, SimConfig(seed=4))
        for col in rep.cells.T:
            symbols = set(col) - {GAP}
            assert len(symbols) <= 1

    def test_same_config_is_deterministic(self):
        template = self.template()
        fit = self.fit_for(template)
        one = simulate_matrix(fit, template, SimConfig(seed=9))
        two = simulate_matrix(fit, template, SimConfig(seed=9))
        assert one == two
        other = simulate_matrix(fit, template, SimConfig(seed=10))
        assert one != other

    def test_unmasked_replicate_can_resize(self):
        template = self.template()
        rep = simulate_matrix(
            self.fit_for(template), template,
            SimConfig(seed=5, retain_gap_mask=False, n_sites=9))
        assert rep.sites == 9
        assert not rep.gap_mask().any()
        assert rep.concept_bounds == (("simulated", 0, 9),)

    def test_resizing_a_masked_replicate_is_rejected(self):
        template = self.template()
        with pytest.raises(ValueError):
            simulate_matrix(
                self.fit_for(template), template,
                SimConfig(seed=6, retain_gap_mask=True, n_sites=9))

    def test_taxa_mismatch_is_rejected(self):
        template = self.template()
        model = random_freq_model(4, seed=7)
        fit = make_fit("(A:0.3,B:0.2,X:0.4);", model)
        with pytest.raises(TaxaMismatchError):
            simulate_matrix(fit, template, SimConfig(seed=7))

    def test_config_domain(self):
        with pytest.raises(ValueError):
            SimConfig(n_sites=0)


class TestApplyGapMask:
    """The template's gap pattern as :func:`simulate_matrix` applies it."""

    def test_mask_follows_taxon_names_not_row_order(self):
        template = matrix_from_rows(
            ["C", "A", "B"], [list("KRS-"), list("K-SS"), list("-RSS")])
        model = random_freq_model(4, seed=0)
        fit = make_fit("(A:0.3,B:0.2,C:0.4);", model)
        rep = simulate_matrix(fit, template, SimConfig(seed=8))
        leaf_states = simulate_sites(fit.tree, model, 4, np.random.default_rng(8))
        assert rep.taxa == ("C", "A", "B")
        for taxon in ("A", "B", "C"):
            gaps = template.row(taxon) == GAP
            simulated = np.array(model.alphabet)[leaf_states[taxon]]
            assert (rep.row(taxon)[gaps] == GAP).all()
            assert (rep.row(taxon)[~gaps] == simulated[~gaps]).all()
