"""Bit-identity of the closed-form three-way kernels against a stacked reference.

The reference functions below are the stacked formulation the package used
before its kernels were written per column: a log-sum-exp over a
materialised (win, draw, loss) axis (``np.stack``, ``max``, ``sum``), the
derivative sums by ``einsum`` with the observed outcome picked by
``np.take_along_axis``, and predictive scoring that integrates all three
outcomes on a (..., order, order, 3) grid before indexing one.  Every
comparison is exact (``np.array_equal``): the per-column kernels must add
and multiply in the same order, not merely agree to rounding.
"""

import math

import numpy as np
import pytest

from drawrating import engine, hyperopt, model, oracle
from drawrating.model import Hyperparameters

HYPERS = [
    Hyperparameters(),
    Hyperparameters(alpha0=0.1, alpha1=0.05, beta0=0.8, beta1=0.3, tau=0.25),
    Hyperparameters(alpha0=-0.4, alpha1=0.3, beta0=-1.5, beta1=-0.6, tau=0.1),
]
# strengths where exp underflows (+/-800) or nearly does (+/-40)
EXTREMES = np.array([-800.0, -40.0, -3.0, -0.5, 0.0, 0.7, 2.0, 40.0, 800.0])
ORDERS = [1, 3, 9, 20, 50]


def ref_log_probability_array(theta_i, theta_j, color, h):
    theta_i = np.asarray(theta_i, dtype=float)
    theta_j = np.asarray(theta_j, dtype=float)
    color = np.asarray(color, dtype=float)
    avg = 0.5 * (theta_i + theta_j)
    advantage = color * (h.alpha0 + h.alpha1 * avg) / 4.0
    logits = np.stack(
        np.broadcast_arrays(
            theta_i + advantage,
            h.beta0 + (1.0 + h.beta1) * avg,
            theta_j - advantage,
        ),
        axis=-1,
    )
    shifted = logits - logits.max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def ref_probability_array(theta_i, theta_j, color, h):
    return np.exp(ref_log_probability_array(theta_i, theta_j, color, h))


def ref_derivative_arrays(p, a, columns):
    s1 = np.einsum("...j,...j->...", p, a)[..., None]
    s2 = np.einsum("...j,...j->...", p, a * a)[..., None]
    p_c = np.take_along_axis(p, columns, axis=-1)
    a_c = np.take_along_axis(a, columns, axis=-1)
    return p_c, p_c * (a_c - s1), p_c * (a_c * a_c - s2 - 2.0 * s1 * (a_c - s1))


def ref_delta_arrays(focal_mu, opp_mu, opp_sigma, outcome, color, h, draw_score_override):
    focal_mu, opp_mu, opp_sigma, outcome, color = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float))
          for x in (focal_mu, opp_mu, opp_sigma, outcome, color))
    )
    a = model.score_coefficient_array(color, h, draw_score_override)
    observed = (2.0 - 2.0 * outcome).astype(int)[:, None]
    p_obs = num1 = num2 = 0.0
    for node in (-1.0, 1.0):
        p = ref_probability_array(focal_mu, opp_mu + node * opp_sigma, color, h)
        p_y, d1, d2 = ref_derivative_arrays(p, a, observed)
        p_obs = p_obs + p_y[:, 0]
        num1 = num1 + d1[:, 0]
        num2 = num2 + d2[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        delta1 = num1 / p_obs
        delta2 = num2 / p_obs - delta1**2
    return delta1, delta2, p_obs


def ref_predictive_probability_array(white_mu, white_sigma, black_mu, black_sigma, h, order):
    rule = oracle.gh_rule(order)
    nodes, weights = rule.nodes, rule.weights / math.sqrt(math.pi)
    white_mu = np.asarray(white_mu, dtype=float)[..., None, None]
    white_sigma = np.asarray(white_sigma, dtype=float)[..., None, None]
    black_mu = np.asarray(black_mu, dtype=float)[..., None, None]
    black_sigma = np.asarray(black_sigma, dtype=float)[..., None, None]
    theta_w = white_mu + math.sqrt(2.0) * white_sigma * nodes[:, None]
    theta_b = black_mu + math.sqrt(2.0) * black_sigma * nodes[None, :]
    p = ref_probability_array(theta_w, theta_b, 1.0, h)
    w2 = weights[:, None, None] * weights[None, :, None]
    return (p * w2).sum(axis=(-3, -2))


def ref_observed_probability(white_mu, white_sigma, black_mu, black_sigma, observed, h, order):
    p = ref_predictive_probability_array(white_mu, white_sigma, black_mu, black_sigma, h, order)
    return p[np.arange(len(observed)), observed]


def assert_identical(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)


def _game_count(n, order):
    """At most ``n`` games, fewer at high order to keep the stacked
    reference's (games, order, order, 3) grid small."""
    return min(n, 270_000 // order**2)


def _games(n, seed, scale=3.0):
    """Random (white_mu, white_sigma, black_mu, black_sigma, observed) rows."""
    rng = np.random.default_rng(seed)
    return (
        rng.normal(0.0, scale, n), rng.uniform(0.05, 1.5, n),
        rng.normal(0.0, scale, n), rng.uniform(0.05, 1.5, n),
        rng.integers(0, 3, n),
    )


class TestLogProbability:
    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("color", [1, -1, 1.0, -1.0])
    def test_scalar_inputs(self, h, color):
        for ti in EXTREMES:
            for tj in EXTREMES:
                got = model.log_probability_array(float(ti), float(tj), color, h)
                want = ref_log_probability_array(float(ti), float(tj), color, h)
                assert got.shape == want.shape == (3,)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("h", HYPERS)
    def test_one_dimensional_inputs(self, h):
        rng = np.random.default_rng(1)
        ti = np.concatenate([EXTREMES, rng.normal(0.0, 4.0, 5000)])
        tj = np.concatenate([EXTREMES[::-1], rng.normal(0.0, 4.0, 5000)])
        color = rng.choice([1.0, -1.0], len(ti))
        assert np.array_equal(
            model.log_probability_array(ti, tj, color, h),
            ref_log_probability_array(ti, tj, color, h),
        )
        assert np.array_equal(
            model.probability_array(ti, tj, color, h),
            ref_probability_array(ti, tj, color, h),
        )

    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("color", [1.0, -1.0])
    def test_broadcast_inputs(self, h, color):
        ti, tj = EXTREMES[:, None], np.linspace(-50.0, 50.0, 41)[None, :]
        got = model.log_probability_array(ti, tj, color, h)
        want = ref_log_probability_array(ti, tj, color, h)
        assert got.shape == want.shape == (len(EXTREMES), 41, 3)
        assert np.array_equal(got, want)
        columns = model.log_probability_columns(ti, tj, color, h)
        for k, column in enumerate(columns):
            assert np.array_equal(np.broadcast_to(column, got.shape[:-1]), want[..., k])


class TestProbabilityDerivatives:
    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("override", [True, False])
    @pytest.mark.parametrize("color", [1, -1])
    def test_scalar_derivatives(self, h, override, color):
        for ti in EXTREMES:
            for tj in EXTREMES:
                p = ref_probability_array(float(ti), float(tj), color, h)
                a = model.score_coefficient_array(color, h, override)
                _, first, second = ref_derivative_arrays(p, a, np.arange(3))
                got = model.probability_derivatives(
                    float(ti), float(tj), color, h, draw_score_override=override
                )
                assert got == (tuple(first.tolist()), tuple(second.tolist()))


class TestDeltaArrays:
    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("override", [True, False])
    def test_one_dimensional_terms(self, h, override):
        rng = np.random.default_rng(2)
        n = 6000
        focal = np.concatenate([np.repeat(EXTREMES, len(EXTREMES)), rng.normal(0.0, 3.0, n)])
        opp = np.concatenate([np.tile(EXTREMES, len(EXTREMES)), rng.normal(0.0, 3.0, n)])
        sigma = rng.uniform(0.05, 1.5, len(focal))
        outcome = rng.choice([1.0, 0.5, 0.0], len(focal))
        color = rng.choice([1.0, -1.0], len(focal))
        args = (focal, opp, sigma, outcome, color, h, override)
        assert_identical(engine._delta_arrays(*args), ref_delta_arrays(*args))

    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("override", [True, False])
    @pytest.mark.parametrize("outcome", [1.0, 0.5, 0.0])
    @pytest.mark.parametrize("color", [1, -1])
    def test_scalar_and_broadcast_terms(self, h, override, outcome, color):
        for focal in (0.3, -40.0, 800.0):
            args = (focal, EXTREMES, 0.6, outcome, color, h, override)
            assert_identical(engine._delta_arrays(*args), ref_delta_arrays(*args))
            args = (focal, 1.2, 0.4, outcome, color, h, override)
            assert_identical(engine._delta_arrays(*args), ref_delta_arrays(*args))


class TestObservedScoring:
    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("order", ORDERS)
    def test_matches_indexing_the_stacked_integral(self, h, order):
        n = _game_count(3000, order)
        wmu, wsd, bmu, bsd, observed = _games(n, order)
        wmu[:len(EXTREMES)], bmu[:len(EXTREMES)] = EXTREMES, EXTREMES[::-1]
        got = hyperopt._observed_probability(wmu, wsd, bmu, bsd, observed, h, order)
        want = ref_observed_probability(wmu, wsd, bmu, bsd, observed, h, order)
        assert got.shape == want.shape == (n,)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_periods(self, order, n):
        """A one-game period must not fall back to a pairwise node sum."""
        for seed in range(40):
            games = _games(n, 100 * order + seed)
            got = hyperopt._observed_probability(*games, HYPERS[1], order)
            want = ref_observed_probability(*games, HYPERS[1], order)
            assert got.shape == want.shape == (n,)
            assert np.array_equal(got, want)


class TestPredictiveProbability:
    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("order", ORDERS)
    def test_scalar_beliefs(self, h, order):
        rng = np.random.default_rng(order)
        for wmu, bmu in zip(
            np.concatenate([EXTREMES, rng.normal(0.0, 3.0, 40)]),
            np.concatenate([EXTREMES[::-1], rng.normal(0.0, 3.0, 40)]),
        ):
            wsd, bsd = rng.uniform(0.05, 1.5, 2)
            got = hyperopt.predictive_probability_array(wmu, wsd, bmu, bsd, h, order)
            want = ref_predictive_probability_array(wmu, wsd, bmu, bsd, h, order)
            assert got.shape == want.shape == (3,)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("order", ORDERS)
    def test_array_beliefs(self, h, order, monkeypatch):
        """The broadcast form on many games, one game and a broadcast grid;
        the chunked n-game form ``predictive_probability_rows`` at the default
        chunk size and at one game per chunk."""
        games = _games(_game_count(500, order), 10 + order)[:4]
        one_game = tuple(x[:1] for x in games)
        for args in [
            games,
            one_game,
            (EXTREMES[:, None], 0.5, EXTREMES[None, :], np.array([[0.2], [0.9]])[:, :, None]),
        ]:
            got = hyperopt.predictive_probability_array(*args, h, order)
            want = ref_predictive_probability_array(*args, h, order)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        want = ref_predictive_probability_array(*games, h, order)
        assert np.array_equal(hyperopt.predictive_probability_rows(*games, h, order), want)
        monkeypatch.setattr(oracle, "GRID_CHUNK", order * order)
        assert np.array_equal(hyperopt.predictive_probability_rows(*games, h, order), want)
