"""Bit-identity of the closed-form three-way kernels against a stacked reference.

The reference functions below are the stacked formulation the package used
before its kernels were written per column: a log-sum-exp over a
materialised (win, draw, loss) axis (``np.stack``, ``max``, ``sum``), the
derivative sums by ``einsum`` with the observed outcome picked by
``np.take_along_axis``, and predictive scoring that integrates all three
outcomes on a (..., order, order, 3) grid before indexing one.  Every
comparison is exact (``np.array_equal``): the per-column kernels must add
and multiply in the same order, not merely agree to rounding.

A second set of references is the per-column form the package used before
it compiled outcome indices: the game-term kernel decoding float outcomes and
picking columns with ``np.choose``, one opponent node at a time, the
scoring form picking its column with ``np.choose``, and the period compiler
and filter step built on them.  A third is the nested ``np.where`` over
boolean win and draw masks that picked the observed column before
``model.observed_column`` took it from a stacked block by index.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drawrating import engine, hyperopt, model, oracle, simulate, store
from drawrating.model import Hyperparameters

HYPERS = [
    Hyperparameters(),
    Hyperparameters(alpha0=0.1, alpha1=0.05, beta0=0.8, beta1=0.3, tau=0.25),
    Hyperparameters(alpha0=-0.4, alpha1=0.3, beta0=-1.5, beta1=-0.6, tau=0.1),
    # a white advantage without a slope: colour-dependent logits, constant coefficients
    Hyperparameters(alpha0=0.3, alpha1=0.0, beta0=0.5, beta1=0.4, tau=0.2),
]
# strengths and deviations at the edges of float64: signed zeros, subnormals,
# exp underflow (+/-800) and far beyond it (+/-1e5)
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, 0.3, -1.7,
                  40.0, -40.0, 800.0, -800.0, 1e5, -1e5])
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
    a = np.stack(model.score_coefficient_columns(color, h, draw_score_override), axis=-1)
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


def choose_delta_arrays(focal_mu, opp_mu, opp_sigma, outcome, color, h, draw_score_override):
    focal_mu, opp_mu, opp_sigma, outcome, color = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float))
          for x in (focal_mu, opp_mu, opp_sigma, outcome, color))
    )
    a = model.score_coefficient_columns(color, h, draw_score_override)
    observed = (2.0 - 2.0 * outcome).astype(np.intp)  # 1, 0.5, 0 -> 0, 1, 2
    a_y = np.choose(observed, a)
    p_obs = num1 = num2 = 0.0
    for node in (-1.0, 1.0):
        p = tuple(map(np.exp, model.log_probability_columns(
            focal_mu, opp_mu + node * opp_sigma, color, h
        )))
        p_y = np.choose(observed, p)
        d1, d2 = model.derivative_arrays(p, a, p_y, a_y)
        p_obs = p_obs + p_y
        num1 = num1 + d1
        num2 = num2 + d2
    with np.errstate(divide="ignore", invalid="ignore"):
        delta1 = num1 / p_obs
        delta2 = num2 / p_obs - delta1**2
    return delta1, delta2, p_obs


def choose_compile_period(games, index):
    """(focal, opp, outcome, color) directed terms with float outcomes."""
    white = np.array([index[g.white_id] for g in games], dtype=np.intp)
    black = np.array([index[g.black_id] for g in games], dtype=np.intp)
    y = np.array([float(g.outcome) for g in games])
    focal = np.concatenate([white, black])
    opp = np.concatenate([black, white])
    outcome = np.concatenate([y, 1.0 - y])
    color = np.repeat([1.0, -1.0], len(games))
    order = np.lexsort((color, outcome, opp, focal))
    return focal[order], opp[order], outcome[order], color[order]


def choose_filter_period(terms, ids, mu, sigma, tracked, h, cfg):
    focal, opp, outcome, color = terms
    counts = np.bincount(focal, minlength=len(mu))
    if focal.size:
        tracked[focal] = True
        d1, d2, _ = choose_delta_arrays(
            mu[focal], mu[opp], sigma[opp], outcome, color, h, cfg.draw_score_override
        )
        active = counts > 0
        sum1 = np.bincount(focal, weights=d1, minlength=len(mu))
        sum2 = np.bincount(focal, weights=d2, minlength=len(mu))
        mu[active], sigma[active] = engine._newton_step(
            ids[active], mu[active], sigma[active], sum1[active], sum2[active]
        )
    sigma_post = sigma.copy()
    grow = tracked & (sigma < cfg.sigma_cap)
    sigma[grow] = np.sqrt(np.float_power(sigma[grow], 2.0) + h.tau**2)
    return counts, sigma_post


def choose_observed_probability(white_mu, white_sigma, black_mu, black_sigma, observed, h,
                                order):
    _, logits, log_total, w2 = hyperopt._node_grid(white_mu, white_sigma, black_mu, black_sigma,
                                                   h, order, engine.Workspace())
    terms = np.exp(np.choose(observed, logits - log_total)) * w2
    return hyperopt._pair_sum(terms, order, len(observed), np.empty(len(observed)))


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


def indices(outcome):
    """Outcome indices (0 win, 1 draw, 2 loss) of float outcomes."""
    return (2.0 - 2.0 * np.asarray(outcome, dtype=float)).astype(np.intp)


def where_column(win, draw, columns):
    """The (win, draw, loss) ``columns``' entry picked by the boolean masks
    ``win`` and ``draw`` (neither: the loss entry); broadcasts."""
    return np.where(win, columns[0], np.where(draw, columns[1], columns[2]))


def assert_identical(actual, expected):
    """Equal shapes and values, NaNs in the same places, and zeros of the
    same sign."""
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)
        zeros = np.asarray(want) == 0
        assert np.array_equal(np.signbit(got)[zeros], np.signbit(want)[zeros])


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
                a = model.score_coefficients(color, h, override)
                _, first, second = ref_derivative_arrays(p, a, np.arange(3))
                got = model.probability_derivatives(
                    float(ti), float(tj), color, h, draw_score_override=override
                )
                assert got == (tuple(first.tolist()), tuple(second.tolist()))


def coefficient_delta_arrays(focal_mu, opp_mu, opp_sigma, win, draw, color, h,
                             draw_score_override):
    """``engine._delta_arrays`` through the score coefficient columns for
    every ``h``: the form the kernel takes when the coefficients depend on colour."""
    a = model.score_coefficient_columns(color, h, draw_score_override)
    p = tuple(map(np.exp, model.log_probability_columns(
        focal_mu, opp_mu + np.array([[-1.0], [1.0]]) * opp_sigma, color, h
    )))
    p_y = where_column(win, draw, p)
    d1, d2 = model.derivative_arrays(p, a, p_y, where_column(win, draw, a))
    p_obs, num1, num2 = ((0.0 + rows[0]) + rows[1] for rows in (p_y, d1, d2))
    with np.errstate(all="ignore"):
        delta1 = num1 / p_obs
        return delta1, num2 / p_obs - delta1**2, p_obs


def delta_arrays(focal_mu, opp_mu, opp_sigma, outcome, color, h, draw_score_override):
    """``engine._delta_arrays`` of float outcomes."""
    return engine._delta_arrays(
        focal_mu, opp_mu, opp_sigma, indices(outcome), color, h, draw_score_override
    )


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
        assert_identical(delta_arrays(*args), ref_delta_arrays(*args))
        assert_identical(delta_arrays(*args), choose_delta_arrays(*args))

    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("override", [True, False])
    @pytest.mark.parametrize("outcome", [1.0, 0.5, 0.0])
    @pytest.mark.parametrize("color", [1, -1])
    def test_scalar_and_broadcast_terms(self, h, override, outcome, color):
        for focal in (0.3, -40.0, -800.0, 800.0):
            args = (focal, EXTREMES, 0.6, outcome, color, h, override)
            assert_identical(delta_arrays(*args), ref_delta_arrays(*args))
            assert_identical(delta_arrays(*args), choose_delta_arrays(*args))
            args = (focal, 1.2, 0.4, outcome, color, h, override)
            assert_identical(delta_arrays(*args), ref_delta_arrays(*args))
            assert_identical(delta_arrays(*args), choose_delta_arrays(*args))

    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("override", [True, False])
    def test_edge_terms_match_the_coefficient_columns_byte_for_byte(self, h, override):
        """Every combination of edge strengths, deviations, outcomes and
        colours; bytes compare, so the sign of a zero and a NaN's bits count."""
        grid = np.meshgrid(EDGES, EDGES, np.abs(EDGES[2:]), [0, 1, 2], [1.0, -1.0],
                           indexing="ij")
        focal, opp, sigma, observed, color = (x.ravel() for x in grid)
        with np.errstate(all="ignore"):
            want = coefficient_delta_arrays(
                focal, opp, sigma, observed == 0, observed == 1, color, h, override
            )
        got = engine._delta_arrays(focal, opp, sigma, observed, color, h, override)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    @pytest.mark.parametrize("override", [True, False])
    def test_one_term_and_no_terms(self, override):
        for n in (1, 0):
            args = (np.full(n, 0.4), np.full(n, -0.2), np.full(n, 0.7), np.full(n, 0.5),
                    np.full(n, -1.0), HYPERS[1], override)
            got = delta_arrays(*args)
            assert [x.shape for x in got] == [(n,)] * 3
            assert_identical(got, choose_delta_arrays(*args))


class TestObservedColumn:
    """``model.observed_column`` against the nested ``np.where`` over masks,
    byte for byte, in the layouts its callers use."""

    @staticmethod
    def _block(shape, rng):
        """Random entries, a fifth of them (and at least one of each where
        there is room) NaN, +/-inf, +0.0 or -0.0."""
        block = rng.normal(0.0, 3.0, shape)
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
        picked = rng.permutation(block.size)[:max(block.size // 5, min(block.size, 5))]
        block.flat[picked] = np.resize(special, len(picked))
        return block

    @pytest.mark.parametrize("m", [0, 1, 3, 7, 3000])
    @pytest.mark.parametrize("layout", ["filter", "scoring", "oracle", "table"])
    def test_matches_the_nested_where(self, layout, m):
        rng = np.random.default_rng(m)
        order = 3
        outcome = rng.permutation(np.arange(m) % 3)
        shape, selector = {
            # (3, nodes, terms); (3, order, order, games); (3, games, order, order);
            # the score coefficients (3,) of one colour
            "filter": ((3, 2, m), outcome),
            "scoring": ((3, order, order, m), outcome),
            "oracle": ((3, m, order, order), outcome[:, None, None]),
            "table": ((3,), outcome),
        }[layout]
        for _ in range(4):
            block = self._block(shape, rng)
            got = model.observed_column(selector, block)
            want = where_column(selector == 0, selector == 1, block)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            outcome[:] = rng.permutation(outcome)
        assert outcome.dtype == np.intp
        if block.size >= 5:
            assert np.isnan(block).any() and np.isposinf(block).any()
            assert np.isneginf(block).any() and np.signbit(block[block == 0]).any()


class TestObservedScoring:
    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("order", ORDERS)
    def test_matches_indexing_the_stacked_integral(self, h, order):
        n = _game_count(3000, order)
        wmu, wsd, bmu, bsd, observed = _games(n, order)
        wmu[:len(EXTREMES)], bmu[:len(EXTREMES)] = EXTREMES, EXTREMES[::-1]
        got = hyperopt._observed_probability(
            wmu, wsd, bmu, bsd, observed, h, order
        )
        want = ref_observed_probability(wmu, wsd, bmu, bsd, observed, h, order)
        assert got.shape == want.shape == (n,)
        assert np.array_equal(got, want)
        assert np.array_equal(
            got, choose_observed_probability(wmu, wsd, bmu, bsd, observed, h, order)
        )

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_periods(self, order, n):
        """A one-game period must not fall back to a pairwise node sum."""
        for seed in range(40):
            *beliefs, observed = _games(n, 100 * order + seed)
            got = hyperopt._observed_probability(
                *beliefs, observed, HYPERS[1], order
            )
            want = ref_observed_probability(*beliefs, observed, HYPERS[1], order)
            assert got.shape == want.shape == (n,)
            assert np.array_equal(got, want)
            assert np.array_equal(
                got, choose_observed_probability(*beliefs, observed, HYPERS[1], order)
            )


def _league(seed):
    """Valid games by period and the starting priors of a bench-size league."""
    league = simulate.simulate_league(
        simulate.LeagueConfig(150, 8, 1500, "uniform-random", 2.0, 1.5, seed=seed),
        model.DEFAULT_HYPERPARAMETERS,
    )
    state = store.initialize_priors(simulate.initial_ratings(league), engine.EngineConfig())
    return league.games, state


def _all_outcomes_period():
    """Every ordered pair of six players once, cycling through the outcomes."""
    players = [f"q{k}" for k in range(6)]
    pairs = [(w, b) for w in players for b in players if w != b]
    return [store.GameRecord(1, w, b, (1.0, 0.5, 0.0)[k % 3]) for k, (w, b) in enumerate(pairs)]


def _filter_both(games, ids, mu, sigma, h, cfg):
    """``engine.filter_period`` and the ``np.choose`` reference on one period:
    each gives (mu, sigma, tracked, counts, sigma_post) or its error message."""
    index = {pid: k for k, pid in enumerate(ids)}
    results = []
    for step, period in ((engine.filter_period, engine._compile_period(games, index)),
                         (choose_filter_period, choose_compile_period(games, index))):
        m, s, tracked = mu.copy(), sigma.copy(), np.zeros(len(mu), dtype=bool)
        try:
            counts, sigma_post = step(period, ids, m, s, tracked, h, cfg)
        except engine.DegenerateUpdateError as error:
            results.append(str(error))
        else:
            results.append((m, s, tracked, counts, sigma_post))
    return results


def assert_same_filter(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert_identical(got, want)


class TestCompiledPeriods:
    def test_indices_match_the_outcome_index(self):
        """Every game's and every directed term's outcome index, all three
        outcomes from both colours."""
        games = _all_outcomes_period()
        ids = sorted({g.white_id for g in games})
        period = engine._compile_period(games, {pid: k for k, pid in enumerate(ids)})
        observed = np.array([model.outcome_index(g.outcome) for g in games])
        assert np.array_equal(period.observed, observed)
        assert period.observed.dtype == period.outcome.dtype == np.intp
        by_pair = {(g.white_id, g.black_id): g.outcome for g in games}
        expected = [
            model.outcome_index(
                by_pair[ids[f], ids[o]] if c == 1.0 else 1.0 - by_pair[ids[o], ids[f]]
            )
            for f, o, c in zip(period.focal.tolist(), period.opp.tolist(), period.color.tolist())
        ]
        assert sorted(zip(period.color.tolist(), expected)) == sorted(
            [(1.0, k) for k in observed.tolist()] + [(-1.0, 2 - k) for k in observed.tolist()]
        )
        assert set(zip(period.color.tolist(), expected)) == {
            (c, k) for c in (1.0, -1.0) for k in (0, 1, 2)
        }
        assert np.array_equal(period.outcome, expected)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_players_and_games_count_the_directed_terms(self, seed):
        games, state = _league(seed)
        history = engine.compile_history(games, state, engine.EngineConfig())
        for period in history.periods:
            counts = np.bincount(period.focal, minlength=len(history.ids))
            assert np.array_equal(period.players, np.flatnonzero(counts))
            assert np.array_equal(period.games, counts[counts > 0])

    def test_an_empty_period_has_no_players(self):
        period = engine._compile_period([], {"a": 0, "b": 1})
        assert period.players.shape == period.games.shape == (0,)
        assert period.players.dtype == np.intp

    @pytest.mark.parametrize("seed", [1, 2])
    def test_terms_keep_the_float_outcome_order(self, seed):
        games, state = _league(seed)
        history = engine.compile_history(games, state, engine.EngineConfig())
        index = {pid: k for k, pid in enumerate(history.ids)}
        for number, period in enumerate(history.periods, start=1):
            focal, opp, outcome, color = choose_compile_period(
                [g for g in games if g.period == number], index
            )
            assert np.array_equal(period.focal, focal)
            assert np.array_equal(period.opp, opp)
            assert np.array_equal(period.color, color)
            assert np.array_equal(period.outcome, indices(outcome))

    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("override", [True, False])
    def test_filter_matches_the_choose_kernel(self, h, override):
        """Every period of a bench-size league, filtered in turn."""
        cfg = engine.EngineConfig(draw_score_override=override)
        games, state = _league(1)
        history = engine.compile_history(games, state, cfg)
        index = {pid: k for k, pid in enumerate(history.ids)}
        mu, sigma, tracked = history.mu.copy(), history.sigma.copy(), history.tracked.copy()
        ref_mu, ref_sigma, ref_tracked = mu.copy(), sigma.copy(), tracked.copy()
        for number, period in enumerate(history.periods, start=1):
            got = engine.filter_period(period, history.ids, mu, sigma, tracked, h, cfg)
            want = choose_filter_period(
                choose_compile_period([g for g in games if g.period == number], index),
                history.ids, ref_mu, ref_sigma, ref_tracked, h, cfg,
            )
            assert_identical((mu, sigma, tracked, *got),
                             (ref_mu, ref_sigma, ref_tracked, *want))

    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("override", [True, False])
    def test_small_and_extreme_periods(self, h, override):
        """A one-game period, an empty period, a period of every outcome and
        colour, and strengths where exp underflows (+/-800); a degenerate step
        names the same players."""
        cfg = engine.EngineConfig(draw_score_override=override)
        ids = np.array([f"q{k}" for k in range(len(EXTREMES))], dtype=object)
        sigma = np.linspace(0.1, 0.69, len(EXTREMES))
        favourites_win = [
            store.GameRecord(1, ids[k], ids[4], 1.0 if EXTREMES[k] > 0 else 0.0)
            for k in range(len(EXTREMES)) if k != 4
        ]
        raised = []
        for games, mu in [
            ([store.GameRecord(1, "q2", "q6", 0.5)], np.linspace(-1.0, 1.0, len(EXTREMES))),
            ([], np.linspace(-1.0, 1.0, len(EXTREMES))),
            (_all_outcomes_period(), np.linspace(-2.0, 2.0, len(EXTREMES))),
            (favourites_win, EXTREMES),
            (_all_outcomes_period(), EXTREMES),
        ]:
            got, want = _filter_both(games, ids, mu, sigma, h, cfg)
            assert_same_filter(got, want)
            raised.append(isinstance(got, str))
        # every period steps but the last, whose losing favourites underflow
        assert raised == [False, False, False, False, True]


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
    def test_array_beliefs(self, h, order, chunk_bound):
        """The broadcast form on many games, one game and a broadcast grid;
        the games at the default chunk size and at one game per chunk."""
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
        assert np.array_equal(hyperopt.predictive_probability_array(*games, h, order), want)
        counts = chunk_bound(order * order)
        assert np.array_equal(hyperopt.predictive_probability_array(*games, h, order), want)
        assert counts == [len(want)] and len(want) > 1

    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize("order", ORDERS)
    def test_broadcast_grid_in_chunks(self, h, order, chunk_bound):
        """A (2, 9, 9) broadcast grid of 162 games, integrated seven games
        per chunk, gives the one-block result byte for byte."""
        grid = (EXTREMES[:, None], 0.5, EXTREMES[None, :], np.array([[0.2], [0.9]])[:, :, None])
        whole = hyperopt.predictive_probability_array(*grid, h, order)
        counts = chunk_bound(7 * 5 * order * order)
        got = hyperopt.predictive_probability_array(*grid, h, order)
        assert got.shape == whole.shape == (2, 9, 9, 3)
        assert got.tobytes() == whole.tobytes()
        assert np.array_equal(got, ref_predictive_probability_array(*grid, h, order))
        assert counts == [math.ceil(162 / 7)]


def _row_loop(rows):
    """The node pairs of (pairs, width) ``rows`` added one row at a time."""
    total = rows[0].copy()
    for row in rows[1:]:
        np.add(total, row, out=total)
    return total


class TestPairSum:
    @pytest.mark.parametrize("order", [1, 2, 3, 9])
    @pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 9, 64, 1638, 4000])
    def test_the_leading_axis_reduction_is_the_row_loop(self, order, width):
        """Weighted terms spread over many magnitudes, so that a change of the
        summation order would show in the last bits."""
        rng = np.random.default_rng(order * 10_000 + width)
        terms = np.exp(rng.uniform(-40.0, 0.0, (order, order, width)))
        rows = terms.reshape(order * order, width)
        want = _row_loop(rows)
        got = hyperopt._pair_sum(terms, order, width, np.empty(width))
        assert got.tobytes() == want.tobytes()
        if width >= 2:
            assert np.add.reduce(rows, axis=0).tobytes() == want.tobytes()

    def test_one_game_is_not_summed_pairwise(self):
        """numpy sums the 81 pairs of a single order-9 game pairwise, which
        differs from the row loop; ``_pair_sum`` keeps the loop there."""
        rng = np.random.default_rng(9)
        terms = np.exp(rng.uniform(-40.0, 0.0, (20, 9, 9, 1)))
        got = [hyperopt._pair_sum(t, 9, 1, np.empty(1)) for t in terms]
        want = [_row_loop(t.reshape(81, 1)) for t in terms]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        pairwise = [np.add.reduce(t.reshape(81, 1), axis=0) for t in terms]
        assert [p.tobytes() for p in pairwise] != [w.tobytes() for w in want]


_NON_ZERO = st.floats(-1.0, 1.0).filter(bool)


class TestFiveRowPasses:
    """The scoring and predictive passes on the five-row grid block against
    the stacked (..., order, order, 3) references, bit for bit: one game, a
    chunk boundary and one game either side of it, or a few thousand games;
    strengths up to +/-700 and a white advantage with a slope."""

    @given(order=st.integers(1, 9),
           width=st.sampled_from(["one", "below", "at", "above"]) | st.integers(2000, 4000),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 30.0, 700.0]),
           alpha=st.tuples(_NON_ZERO, _NON_ZERO),
           beta=st.tuples(st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)))
    @example(order=9, width="one", seed=1, scale=1.0, alpha=(0.3, 0.2), beta=(1.0, 0.2))
    @example(order=3, width="above", seed=2, scale=700.0, alpha=(-0.5, 0.9), beta=(0.5, -0.4))
    @settings(max_examples=40, deadline=None)
    def test_match_the_stacked_references(self, order, width, seed, scale, alpha, beta):
        step = engine.GRID_CHUNK // (5 * order * order)
        width = {"one": 1, "below": step - 1, "at": step, "above": step + 1}.get(width, width)
        width = _game_count(width, order)
        rng = np.random.default_rng(seed)
        mu = rng.uniform(-scale, scale, (2, width))
        mu.flat[rng.integers(0, mu.size, 4)] = rng.choice([700.0, -700.0], 4)
        beliefs = mu[0], rng.uniform(0.01, 3.0, width), mu[1], rng.uniform(0.01, 3.0, width)
        observed = rng.integers(0, 3, width)
        h = Hyperparameters(*alpha, *beta, 0.1)
        assert_identical(hyperopt.predictive_probability_array(*beliefs, h, order),
                         ref_predictive_probability_array(*beliefs, h, order))
        assert_identical(hyperopt._observed_probability(*beliefs, observed, h, order),
                         ref_observed_probability(*beliefs, observed, h, order))
