"""Substitution model: frequencies, transitions, gamma categories."""

import math

import numpy as np
import pytest

import oracles
from helpers import matrix_from_rows, random_freq_model
from relate.errors import SchemaError
from relate.submodel import (
    SubstitutionModel,
    build_model,
    gamma_categories,
    transition_prob,
    transition_step,
)

DOLGO = "PTSKMNRWJH"


class TestBuildModel:
    def test_uniform_matrix_gives_uniform_frequencies(self):
        matrix = matrix_from_rows(["a", "b"], [list(DOLGO), list(DOLGO)])
        model = build_model(matrix)
        assert np.allclose(model.freqs, 0.1)

    def test_normalization_constraint(self):
        matrix = matrix_from_rows(["a", "b"], [list("KKRRS"), list("RRSKR")])
        model = build_model(matrix)
        q = oracles.rate_matrix(model.freqs)
        assert float(model.freqs @ np.diag(q)) == pytest.approx(-1.0, abs=1e-12)
        # The model's mu is the oracle's normalizing scale: q_ij = mu * pi_j.
        off = ~np.eye(model.n_states, dtype=bool)
        scaled = np.tile(model.mu * model.freqs, (model.n_states, 1))
        np.testing.assert_allclose(q[off], scaled[off], rtol=1e-12)

    def test_smoothed_observed_counts(self):
        rows = [list("KKKRR"), list("RRRSS")]
        matrix = matrix_from_rows(["a", "b"], rows)
        model = build_model(matrix)
        assert model.alphabet == ("K", "R", "S")
        # (count + 0.5) / (total + 0.5 * n_states), with counts 3, 5, 2.
        assert np.allclose(model.freqs, [3.5 / 11.5, 5.5 / 11.5, 2.5 / 11.5])

    def test_gaps_do_not_count(self):
        rows = [list("KKK--"), list("R----")]
        matrix = matrix_from_rows(["a", "b"], rows)
        model = build_model(matrix)
        assert np.allclose(model.freqs, [3.5 / 5.0, 1.5 / 5.0])

    def test_pseudocount_keeps_unobserved_states_positive(self):
        rows = [list("KKKK"), list("RRRR")]
        matrix = matrix_from_rows(["a", "b"], rows)
        model = build_model(matrix, alphabet=("K", "R", "S"))
        assert model.freqs[2] > 0
        assert np.allclose(model.freqs, [4.5 / 9.5, 4.5 / 9.5, 0.5 / 9.5])

    def test_symbol_outside_alphabet_rejected(self):
        matrix = matrix_from_rows(["a", "b"], [list("KR"), list("KX")])
        with pytest.raises(ValueError):
            build_model(matrix, alphabet=("K", "R"))

    def test_p_inv_domain(self):
        matrix = matrix_from_rows(["a", "b"], [list("KR"), list("RK")])
        with pytest.raises(ValueError):
            build_model(matrix, p_inv=1.0)
        with pytest.raises(ValueError):
            build_model(matrix, p_inv=-0.1)

    def test_gamma_shape_domain(self):
        matrix = matrix_from_rows(["a", "b"], [list("KR"), list("RK")])
        with pytest.raises(ValueError):
            build_model(matrix, gamma_shape=0.0, n_rate_cats=2)


class TestTransitionProb:
    def test_zero_time_is_identity(self):
        model = random_freq_model(6, seed=1)
        assert np.allclose(transition_prob(model, 0.0), np.eye(6), atol=1e-15)

    def test_long_time_reaches_stationarity(self):
        model = random_freq_model(5, seed=2)
        p = transition_prob(model, 1e6)
        for row in p:
            assert np.allclose(row, model.freqs, atol=1e-9)

    def test_uniform_ten_state_diagonal_at_unit_rate_time(self):
        # mu*t = 1 for uniform frequencies when t = 0.9.
        matrix = matrix_from_rows(["a", "b"], [list(DOLGO), list(DOLGO)])
        model = build_model(matrix)
        t = 1.0 / model.mu
        p = transition_prob(model, t)
        expected = 0.1 + 0.9 * math.exp(-1.0)
        assert np.allclose(np.diag(p), expected)
        assert np.diag(p)[0] == pytest.approx(0.4310914970542981, abs=1e-12)

    def test_negative_time_rejected(self):
        model = random_freq_model(4, seed=3)
        with pytest.raises(ValueError):
            transition_prob(model, -0.01)

    def test_matches_matrix_exponential(self):
        # The closed form must agree with brute-force exponentiation of Q.
        for seed in range(8):
            model = random_freq_model(3 + seed % 5, seed=seed)
            for t in (0.01, 0.3, 1.7, 9.0):
                direct = transition_prob(model, t)
                via_expm = oracles.expm_transition(model.freqs, t)
                assert np.allclose(direct, via_expm, atol=1e-10)

    def test_step_matches_matrix_exponential_product(self):
        # P(t) @ v without the matrix agrees with exponentiating Q.
        rng = np.random.default_rng(4)
        for seed in range(6):
            model = random_freq_model(3 + seed % 5, seed=seed)
            values = rng.uniform(0.0, 1.0, size=(model.n_states, 7))
            for t, rate in ((0.0, 1.0), (1e-6, 0.3), (0.3, 1.0), (1.7, 2.4), (10.0, 1.0)):
                want = oracles.expm_transition(model.freqs, t, rate) @ values
                np.testing.assert_allclose(
                    transition_step(model, t, rate, values), want, rtol=1e-10, atol=1e-12)

    def test_step_rejects_negative_time_and_rate(self):
        model = random_freq_model(3, seed=1)
        values = np.ones((3, 2))
        with pytest.raises(ValueError):
            transition_step(model, -0.1, 1.0, values)
        with pytest.raises(ValueError):
            transition_step(model, 0.1, -1.0, values)

    def test_rate_multiplier_rescales_time(self):
        model = random_freq_model(4, seed=9)
        assert np.allclose(transition_prob(model, 0.5, rate=2.0),
                           transition_prob(model, 1.0), atol=1e-14)

    def test_chapman_kolmogorov(self):
        model = random_freq_model(5, seed=11)
        for s in (0.1, 0.5, 1.0):
            for t in (0.1, 0.5, 1.0):
                left = transition_prob(model, s) @ transition_prob(model, t)
                right = transition_prob(model, s + t)
                assert np.allclose(left, right, atol=1e-10)

    def test_reversibility(self):
        model = random_freq_model(6, seed=12)
        p = transition_prob(model, 0.8)
        flow = model.freqs[:, None] * p
        assert np.allclose(flow, flow.T, atol=1e-12)

    def test_rows_sum_to_one(self):
        model = random_freq_model(7, seed=13)
        for t in (0.0, 0.5, 3.0, 100.0):
            p = transition_prob(model, t)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestGammaCategories:
    def test_single_category(self):
        assert gamma_categories(0.7, 1) == (1.0,)
        assert gamma_categories(123.0, 1) == (1.0,)

    def test_huge_shape_collapses_to_unit_rates(self):
        low, high = gamma_categories(1e6, 2)
        assert low == pytest.approx(1.0, abs=1e-3)
        assert high == pytest.approx(1.0, abs=1e-3)

    def test_exponential_case_frozen_values(self):
        # shape 1: conditional means below/above ln 2 are 1 -/+ ln 2.
        low, high = gamma_categories(1.0, 2)
        assert low == pytest.approx(1.0 - math.log(2.0), abs=1e-10)
        assert high == pytest.approx(1.0 + math.log(2.0), abs=1e-10)
        assert low == pytest.approx(0.3068528194, abs=1e-9)
        assert high == pytest.approx(1.6931471806, abs=1e-9)

    def test_matches_quadrature_oracle(self):
        for shape in (0.3, 1.0, 2.5, 7.0):
            got = gamma_categories(shape, 2)
            want = oracles.gamma_two_rates(shape)
            assert got[0] == pytest.approx(want[0], abs=1e-8)
            assert got[1] == pytest.approx(want[1], abs=1e-8)

    def test_increasing_and_mean_one(self):
        for shape in (0.2, 0.9, 3.0):
            for n_cats in (2, 3, 4):
                rates = gamma_categories(shape, n_cats)
                assert all(a < b for a, b in zip(rates, rates[1:]))
                assert np.mean(rates) == pytest.approx(1.0, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_categories(-1.0, 2)
        with pytest.raises(ValueError):
            gamma_categories(1.0, 0)


class TestModelObject:
    def test_mu_is_derived_from_frequencies(self):
        model = SubstitutionModel(alphabet=("A", "B"), freqs=(0.5, 0.5))
        assert model.mu == 2.0
        assert model.with_p_inv(0.1).mu == 2.0

    def test_payload_whose_mu_disagrees_is_rejected(self):
        payload = random_freq_model(4, seed=20).to_dict()
        with pytest.raises(ValueError, match="mu must be"):
            SubstitutionModel.from_dict({**payload, "mu": 3.0})

    def test_mu_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            SubstitutionModel(alphabet=("A", "B"), freqs=(0.5, 0.5), mu=2.0)

    def test_built_model_mu_is_the_one_minus_homozygosity_inverse(self):
        matrix = matrix_from_rows(["a", "b"], [list("KKRRS"), list("RRSKR")])
        model = build_model(matrix)
        assert model.mu == 1.0 / (1.0 - float(model.freqs @ model.freqs))

    def test_frequencies_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SubstitutionModel(alphabet=("A", "B"), freqs=(0.6, 0.5))

    def test_dict_roundtrip(self):
        model = random_freq_model(4, seed=20, p_inv=0.06, gamma_shape=0.8,
                                  n_rate_cats=2)
        clone = SubstitutionModel.from_dict(model.to_dict())
        assert clone.alphabet == model.alphabet
        assert np.allclose(clone.freqs, model.freqs)
        assert clone.p_inv == model.p_inv
        assert clone.rates == model.rates

    @pytest.mark.parametrize("field, value", [
        (None, [1]),
        ("alphabet", 5),
        ("alphabet", "KPTS"),
        ("freqs", {"K": 1.0}),
        ("mu", None),
    ])
    def test_payload_of_wrong_shape_is_rejected(self, field, value):
        payload = random_freq_model(4, seed=20).to_dict()
        payload = value if field is None else {**payload, field: value}
        with pytest.raises(SchemaError):
            SubstitutionModel.from_dict(payload)

    def test_with_p_inv_and_with_gamma(self):
        model = random_freq_model(4, seed=21)
        bumped = model.with_p_inv(0.06).with_gamma(1.0, 2)
        assert bumped.p_inv == 0.06
        assert len(bumped.rates) == 2
        assert model.p_inv == 0.0 and model.rates == (1.0,)
