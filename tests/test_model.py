"""Tests for the outcome probability model and Elo conversions.

Reference values were frozen from an independent high-precision
implementation of the same closed-form expressions (40-digit arithmetic,
no shared code with the package).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawrating import model
from drawrating.model import Hyperparameters

TABLE_LOW_DRAW = Hyperparameters(beta0=0.35338, beta1=0.57041, tau=0.46040)

finite_theta = st.floats(min_value=-10.0, max_value=10.0)
colors = st.sampled_from([1, -1])
outcomes = st.sampled_from([1.0, 0.5, 0.0])
hyper = st.builds(
    Hyperparameters,
    alpha0=st.floats(min_value=-1.0, max_value=1.0),
    alpha1=st.floats(min_value=-0.5, max_value=0.5),
    beta0=st.floats(min_value=-2.0, max_value=2.0),
    beta1=st.floats(min_value=-0.9, max_value=2.0),
    tau=st.floats(min_value=0.0, max_value=1.0),
)


class TestConstants:
    def test_elo_scale_closed_form(self):
        assert model.ELO_SCALE == 400.0 / math.log(10.0)
        assert model.ELO_SCALE == pytest.approx(173.7178, abs=1e-4)

    def test_outcome_encoding(self):
        assert (model.WIN, model.DRAW, model.LOSS) == (1.0, 0.5, 0.0)
        assert model.outcome_index(1) == 0
        assert model.outcome_index(0.5) == 1
        assert model.outcome_index(0.0) == 2

    def test_outcome_index_rejects_unknown(self):
        with pytest.raises(ValueError):
            model.outcome_index(0.7)
        with pytest.raises(ValueError):
            model.outcome_index("win")


class TestOutcomeProbabilities:
    # Frozen from the independent 40-digit implementation.
    FROZEN = [
        ((0.3, -0.7, 1, Hyperparameters()),
         (0.31984534535990415, 0.56249012772780734, 0.11766452691228852)),
        ((2.5, 3.1, -1, Hyperparameters(alpha0=0.1, alpha1=0.05)),
         (0.10017077470730549, 0.69403505899807934, 0.20579416629461517)),
        ((5.756, 5.756, 1, TABLE_LOW_DRAW),
         (0.025022006413979059, 0.94995598717204188, 0.025022006413979059)),
    ]

    @pytest.mark.parametrize("args,expected", FROZEN)
    def test_frozen_values(self, args, expected):
        dist = model.outcome_probabilities(*args)
        assert dist[0] == pytest.approx(expected[0], abs=1e-14)
        assert dist[1] == pytest.approx(expected[1], abs=1e-14)
        assert dist[2] == pytest.approx(expected[2], abs=1e-14)

    @given(finite_theta, finite_theta, colors, hyper)
    def test_normalization(self, ti, tj, color, h):
        p = model.outcome_probabilities(ti, tj, color, h)
        assert np.all(p >= 0) and np.all(p <= 1)
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)

    @given(finite_theta, finite_theta, colors, hyper)
    def test_color_antisymmetry(self, ti, tj, color, h):
        """Swapping players and colors reverses the probability triple."""
        mine = model.outcome_probabilities(ti, tj, color, h)
        theirs = model.outcome_probabilities(tj, ti, -color, h)
        np.testing.assert_allclose(mine, theirs[::-1], rtol=0, atol=1e-14)

    def test_draw_probability_rises_with_shared_strength(self):
        h = Hyperparameters()
        draws = [
            model.outcome_probabilities(t, t, 1, h)[1]
            for t in np.linspace(-2.0, 6.0, 30)
        ]
        assert all(b > a for a, b in zip(draws, draws[1:]))

    def test_extreme_strengths_stay_finite(self):
        dist = model.outcome_probabilities(500.0, -500.0, 1, Hyperparameters())
        assert dist[0] == pytest.approx(1.0, abs=1e-12)
        assert math.isfinite(dist[1]) and math.isfinite(dist[2])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            model.outcome_probabilities(math.nan, 0.0, 1, Hyperparameters())
        with pytest.raises(ValueError):
            model.outcome_probabilities(0.0, 0.0, 2, Hyperparameters())

    def test_probability_array_broadcasts(self):
        h = Hyperparameters()
        p = model.probability_array(np.zeros((4, 1)), np.zeros(3), 1.0, h)
        assert p.shape == (4, 3, 3)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


class TestHyperparameters:
    def test_defaults_are_production_values(self):
        h = model.DEFAULT_HYPERPARAMETERS
        assert (h.alpha0, h.alpha1) == (0.0, 0.0)
        assert (h.beta0, h.beta1, h.tau) == (1.09861, 0.17037, 0.14391)

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparameters(tau=-0.1)
        with pytest.raises(ValueError):
            Hyperparameters(beta0=math.inf)

    def test_frozen(self):
        with pytest.raises(Exception):
            model.DEFAULT_HYPERPARAMETERS.beta0 = 0.0


class TestScoreCoefficients:
    def test_classical_reduction(self):
        """With no white advantage the scores are the classical 1, 1/2, 0."""
        a = model.score_coefficients(1, Hyperparameters(), draw_score_override=True)
        assert (a[0], a[1], a[2]) == (1.0, 0.5, 0.0)

    def test_override_off_uses_model_draw_score(self):
        h = Hyperparameters(beta1=0.17037)
        a = model.score_coefficients(1, h, draw_score_override=False)
        assert a[1] == pytest.approx((1.0 + h.beta1) / 2.0, abs=1e-15)

    def test_alpha_shifts_win_and_loss(self):
        h = Hyperparameters(alpha1=0.4)
        white = model.score_coefficients(1, h)
        black = model.score_coefficients(-1, h)
        assert white[0] == pytest.approx(1.0 + 0.4 / 8.0)
        assert white[2] == pytest.approx(-0.4 / 8.0)
        assert black[0] == pytest.approx(1.0 - 0.4 / 8.0)
        assert black[2] == pytest.approx(0.4 / 8.0)

    @given(colors, hyper)
    def test_win_loss_scores_sum_to_one(self, color, h):
        a = model.score_coefficients(color, h)
        assert a[0] + a[2] == pytest.approx(1.0, abs=1e-15)


def _fd_probabilities(ti, tj, color, h, eps1=1e-5, eps2=1e-4):
    """Central finite differences of the outcome probabilities in theta_i.

    The second difference uses a larger step to keep its truncation and
    roundoff errors both below the comparison tolerance.
    """
    first = (
        model.probability_array(ti + eps1, tj, color, h)
        - model.probability_array(ti - eps1, tj, color, h)
    ) / (2 * eps1)
    second = (
        model.probability_array(ti + eps2, tj, color, h)
        - 2 * model.probability_array(ti, tj, color, h)
        + model.probability_array(ti - eps2, tj, color, h)
    ) / eps2**2
    return first, second


class TestProbabilityDerivatives:
    @given(finite_theta, finite_theta, colors, hyper)
    @settings(max_examples=200)
    def test_match_finite_differences(self, ti, tj, color, h):
        first, second = model.probability_derivatives(
            ti, tj, color, h, draw_score_override=False
        )
        fd1, fd2 = _fd_probabilities(ti, tj, color, h)
        np.testing.assert_allclose(first, fd1, rtol=0, atol=1e-6)
        np.testing.assert_allclose(second, fd2, rtol=0, atol=1e-6)

    @given(finite_theta, finite_theta, colors, hyper)
    def test_first_derivatives_sum_to_zero(self, ti, tj, color, h):
        first, second = model.probability_derivatives(ti, tj, color, h)
        assert math.fsum(first) == pytest.approx(0.0, abs=1e-12)
        assert math.fsum(second) == pytest.approx(0.0, abs=1e-12)


    def test_kernel_selects_columns_before_forming_terms(self):
        """Per-row columns give exactly the entries of the full derivative arrays."""
        h = Hyperparameters(alpha0=0.1, alpha1=0.05, beta1=0.3)
        ti, tj = np.linspace(-2.0, 6.0, 7), np.linspace(5.0, -1.0, 7)
        color = np.array([1, -1, 1, 1, -1, -1, 1])
        p = tuple(np.exp(model.log_probability_columns(ti, tj, color, h)))
        a = model.score_coefficient_columns(color, h, False)
        full = [
            np.stack(terms, axis=-1)
            for terms in zip(*(model.derivative_arrays(p, a, p[k], a[k]) for k in range(3)))
        ]
        columns = np.array([0, 1, 2, 2, 1, 0, 1])
        picked = model.derivative_arrays(
            p, a, np.choose(columns, p), np.choose(columns, a)
        )
        for whole, part in zip(full, picked):
            np.testing.assert_array_equal(
                np.take_along_axis(whole, columns[:, None], -1), part[:, None]
            )


class TestEloConversions:
    @given(st.floats(min_value=-2000.0, max_value=5000.0))
    def test_round_trip(self, rating):
        assert model.latent_to_elo(model.elo_to_latent(rating)) == pytest.approx(
            rating, abs=1e-9
        )

    def test_center(self):
        assert model.elo_to_latent(1500.0) == 0.0
        assert model.latent_to_elo(0.0) == 1500.0

    def test_sd_conversion(self):
        assert model.elo_sd_to_latent(100.0) == pytest.approx(
            100.0 / model.ELO_SCALE
        )
        with pytest.raises(ValueError):
            model.elo_sd_to_latent(0.0)

    def test_winning_expectancy(self):
        assert model.elo_winning_expectancy(1500, 1500) == 0.5
        assert model.elo_winning_expectancy(1550, 1500) == pytest.approx(
            1.0 / (1.0 + 10.0 ** (-50.0 / 400.0)), abs=1e-15
        )

    @given(st.floats(min_value=-400, max_value=400))
    def test_winning_expectancy_symmetry(self, gap):
        assert model.elo_winning_expectancy(1500 + gap, 1500) + \
            model.elo_winning_expectancy(1500, 1500 + gap) == pytest.approx(1.0)
