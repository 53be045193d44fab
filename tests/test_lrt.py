"""Likelihood-ratio statistic, paired t-test, and the bootstrap test loop."""

from dataclasses import replace

import numpy as np
import pytest

import relate.lrt
from helpers import random_freq_model
from oracles import t_upper_tail
from relate.errors import InsufficientDataError, NumericalUnderflowError
from relate.lrt import (
    NOT_SUPPORTED,
    RELATED,
    RUN_SEED_STRIDE,
    LrtConfig,
    MlFit,
    lrt_statistic,
    paired_t_test,
    run_lrt,
)
from relate.bootsim import simulate_sites
from relate.mlsearch import ml_tree, start_trees
from relate.msa import CharacterMatrix
from relate.phylik import parse_newick, write_newick
from relate.submodel import build_model


def fit_with_ll(ll: float) -> MlFit:
    tree = parse_newick("(A:0.1,B:0);")
    model = random_freq_model(3, seed=0)
    return MlFit(tree=tree, model=model, log_likelihood=ll, search_trace=((0, ll),))


def diffs_with_t(t_value: float, k: int) -> np.ndarray:
    """A length-k vector whose one-sample t statistic equals t_value."""
    base = np.arange(k, dtype=float)
    base -= base.mean()
    base /= base.std(ddof=1)
    return t_value / np.sqrt(k) + base


class TestLrtStatistic:
    def test_equal_fits_give_zero(self):
        assert lrt_statistic(fit_with_ll(-50.0), fit_with_ll(-50.0)) == 0.0

    def test_five_log_units_give_ten(self):
        assert lrt_statistic(fit_with_ll(-45.0), fit_with_ll(-50.0)) == 10.0

    def test_antisymmetric(self):
        a, b = fit_with_ll(-48.2), fit_with_ll(-51.7)
        assert lrt_statistic(a, b) == -lrt_statistic(b, a)


class TestPairedTTest:
    @pytest.mark.parametrize("df", [1, 5, 14])
    @pytest.mark.parametrize("t_value", [-3.0, 0.0, 1.0, 3.0])
    def test_matches_high_precision_oracle(self, df, t_value):
        k = df + 1
        observed = diffs_with_t(t_value, k)
        null = np.zeros(k)
        t, p = paired_t_test(observed, null)
        assert t == pytest.approx(t_value, abs=1e-9)
        assert abs(p - t_upper_tail(t_value, df)) <= 1e-6

    def test_df1_t1_is_a_quarter(self):
        observed = diffs_with_t(1.0, 2)
        _, p = paired_t_test(observed, np.zeros(2))
        assert abs(p - 0.25) <= 1e-12

    def test_all_zero_differences(self):
        t, p = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0
        assert p == 0.5

    def test_constant_positive_differences(self):
        t, p = paired_t_test([3.0, 4.0], [1.0, 2.0])
        assert t == float("inf")
        assert p == 0.0

    def test_constant_negative_differences(self):
        t, p = paired_t_test([1.0, 2.0], [3.0, 4.0])
        assert t == float("-inf")
        assert p == 1.0

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_single_pair_is_rejected(self):
        with pytest.raises(InsufficientDataError):
            paired_t_test([1.0], [0.0])


class TestLrtConfig:
    def test_proportions_must_be_ordered(self):
        with pytest.raises(ValueError):
            LrtConfig(p_inv_null=0.06, p_inv_alt=0.01)
        with pytest.raises(ValueError):
            LrtConfig(p_inv_null=0.06, p_inv_alt=0.06)

    def test_k_and_alpha_domains(self):
        with pytest.raises(ValueError):
            LrtConfig(k=1)
        with pytest.raises(ValueError):
            LrtConfig(alpha=0.0)
        with pytest.raises(ValueError):
            LrtConfig(alpha=1.0)


def small_matrix(
    seed: int = 0,
    n_sites: int = 60,
    newick: str = "((A:0.3,B:0.3):0.2,(C:0.3,D:0.3):0.2);",
) -> CharacterMatrix:
    tree = parse_newick(newick)
    model = random_freq_model(4, seed=seed, p_inv=0.1)
    states = simulate_sites(tree, model, n_sites, np.random.default_rng(seed))
    symbols = np.array(model.alphabet)
    taxa = sorted(states)
    return CharacterMatrix(
        taxa, [symbols[states[t]] for t in taxa], [("c0", 0, n_sites)])


class TestRunLrt:
    def config(self, seed=42):
        return LrtConfig(k=2, seed=seed)

    def test_needs_three_taxa(self):
        matrix = small_matrix()
        two = CharacterMatrix(
            matrix.taxa[:2], matrix.cells[:2], matrix.concept_bounds)
        with pytest.raises(InsufficientDataError):
            run_lrt(two, self.config())

    def test_a_failed_run_keeps_its_error_type(self, monkeypatch, caplog):
        def underflow(*args, **kwargs):
            raise NumericalUnderflowError("site 3 has zero likelihood")

        monkeypatch.setattr(relate.lrt, "ml_tree", underflow)
        with pytest.raises(NumericalUnderflowError, match="site 3"):
            run_lrt(small_matrix(), self.config())
        assert "LRT run 1 of 2 failed" in caplog.text

    def test_run_seeds_follow_the_stride(self):
        report = run_lrt(small_matrix(), self.config(seed=100))
        assert [r.seed for r in report.runs] == [
            100 + RUN_SEED_STRIDE, 100 + 2 * RUN_SEED_STRIDE]
        assert [r.index for r in report.runs] == [1, 2]

    def test_reproducible_end_to_end(self):
        one = run_lrt(small_matrix(), self.config())
        two = run_lrt(small_matrix(), self.config())
        assert one.to_dict() == two.to_dict()

    def test_decision_follows_the_rule(self):
        report = run_lrt(small_matrix(seed=1), self.config())
        expected = (
            RELATED
            if report.p_value < report.config.alpha
            and report.mean_delta_observed > 0
            else NOT_SUPPORTED
        )
        assert report.decision == expected

    def test_report_shape(self):
        config = self.config()
        report = run_lrt(small_matrix(seed=2), config)
        assert len(report.runs) == config.k
        assert len(report.delta_observed) == config.k
        assert len(report.delta_null) == config.k
        payload = report.to_dict()
        assert payload["config"]["k"] == config.k
        assert len(payload["runs"]) == config.k
        assert payload["decision"] in (RELATED, NOT_SUPPORTED)
        for run in payload["runs"]:
            assert run["delta_obs"] == pytest.approx(
                2 * (run["log_likelihood_alt"] - run["log_likelihood_null"]))


class TestDataFitReuse:
    """Run j's data fits depend on its seed only through the
    neighbor-joining starts, so equal starts share one pair of fits."""

    config = LrtConfig(k=3, seed=5)

    def counted_run(self, matrix, monkeypatch):
        data_calls = []
        real = relate.lrt.ml_tree

        def counting(m, *args, **kwargs):
            data_calls.append(m is matrix)
            return real(m, *args, **kwargs)

        monkeypatch.setattr(relate.lrt, "ml_tree", counting)
        report = run_lrt(matrix, self.config)
        return report, data_calls.count(True), data_calls.count(False)

    def distinct_starts(self, matrix) -> int:
        model = build_model(matrix)
        seen = []
        for run in range(1, self.config.k + 1):
            search = replace(self.config.search, seed=self.config.seed + run * RUN_SEED_STRIDE)
            trees = [t.adjacency for t in start_trees(matrix, model, search)]
            if trees not in seen:
                seen.append(trees)
        return len(seen)

    def test_matrix_without_nj_ties_is_fitted_once(self, monkeypatch):
        matrix = small_matrix(
            seed=3, n_sites=80,
            newick="((A:0.3,B:0.2):0.2,((C:0.3,D:0.4):0.1,E:0.5):0.2,F:0.3);")
        assert self.distinct_starts(matrix) == 1
        report, data_fits, replicate_fits = self.counted_run(matrix, monkeypatch)
        assert data_fits == 2
        assert replicate_fits == 2 * self.config.k
        assert len({run.delta_observed for run in report.runs}) == 1
        trees = [run.fit_null.tree for run in report.runs]
        assert len({id(tree) for tree in trees}) == self.config.k
        # A reused fit is what refitting with that run's seed gives.
        last = report.runs[-1]
        search = replace(self.config.search, seed=last.seed)
        refit = ml_tree(matrix, self.config.p_inv_alt, search)
        assert refit.log_likelihood == last.fit_alt.log_likelihood
        assert write_newick(refit.tree) == write_newick(last.fit_alt.tree)

    def test_nj_ties_refit_each_distinct_start(self, monkeypatch):
        # Four taxa always tie in neighbor joining: complementary pairs
        # have equal Q values.
        matrix = small_matrix(seed=0)
        distinct = self.distinct_starts(matrix)
        assert 1 < distinct < self.config.k
        _, data_fits, _ = self.counted_run(matrix, monkeypatch)
        assert data_fits == 2 * distinct
