"""Tests for predictive scoring and hyperparameter search.

Frozen predictive probabilities come from independent dense trapezoid
integration over both players' beliefs (4001-point grids, +/- 8 sd).
"""

import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from drawrating import engine, hyperopt, model, simulate, store
from drawrating.engine import EngineConfig, PlayerBelief
from drawrating.model import Hyperparameters
from drawrating.store import GameRecord

H2 = Hyperparameters()
CFG = EngineConfig()


def belief(mu, sigma, pid="x"):
    return PlayerBelief(pid, mu, sigma)


def predicted(white, black, outcome, h):
    """Belief-integrated probability of one game's realized outcome."""
    p = hyperopt.predictive_probability_array(white.mu, white.sigma, black.mu, black.sigma, h)
    return float(p[model.outcome_index(outcome)])


class TestPredictiveProbability:
    # (white_mu, white_sd, black_mu, black_sd) -> (p_win, p_draw, p_loss)
    FROZEN = [
        ((0.4, 0.8, 1.1, 0.6),
         (0.14003963913644246, 0.5907372361329505, 0.2692231247306051)),
        ((2.0, 0.5756, 1.4, 0.5756),
         (0.22974694152685096, 0.6401501502679289, 0.1301029082052178)),
    ]

    @pytest.mark.parametrize("args,expected", FROZEN)
    def test_high_order_matches_grid_integration(self, args, expected):
        p = hyperopt.predictive_probability_array(*args, H2, order=9)
        np.testing.assert_allclose(p, expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("args,expected", FROZEN)
    def test_default_order_is_close(self, args, expected):
        p = hyperopt.predictive_probability_array(*args, H2, order=3)
        np.testing.assert_allclose(p, expected, rtol=0, atol=1e-4)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        wmu, bmu = rng.uniform(-2, 8, 50), rng.uniform(-2, 8, 50)
        wsd, bsd = rng.uniform(0.2, 1.5, 50), rng.uniform(0.2, 1.5, 50)
        p = hyperopt.predictive_probability_array(wmu, wsd, bmu, bsd, H2)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)

    def test_certain_beliefs_reduce_to_point_model(self):
        tiny = 1e-9
        p = hyperopt.predictive_probability_array(1.2, tiny, 0.3, tiny, H2)
        point = model.probability_array(1.2, 0.3, 1.0, H2)
        np.testing.assert_allclose(p, point, atol=1e-8)


class TestGamesByPeriod:
    def test_grouping_preserves_order(self):
        games = [
            GameRecord(2, "a", "b", 1.0),
            GameRecord(1, "c", "d", 0.5),
            GameRecord(2, "e", "f", 0.0),
        ]
        grouped = hyperopt.games_by_period(games)
        assert sorted(grouped) == [1, 2]
        assert [g.white_id for g in grouped[2]] == ["a", "e"]


def _league_games(periods=4, games_per_period=30, seed=0):
    rng = np.random.default_rng(seed)
    players = [f"p{i}" for i in range(8)]
    games = []
    for t in range(1, periods + 1):
        for _ in range(games_per_period):
            w, b = rng.choice(len(players), 2, replace=False)
            y = float(rng.choice([1.0, 0.5, 0.0]))
            games.append(GameRecord(t, players[w], players[b], y))
    return games


class TestEvaluateHyperparameters:
    def test_period_accounting(self):
        games = _league_games(periods=5)
        ev = hyperopt.evaluate_hyperparameters(games, H2, CFG, train_until=2)
        assert len(ev.per_period_loglik) == 3  # periods 3, 4, 5 scored
        assert ev.games_evaluated == 3 * 30
        assert ev.total == pytest.approx(math.fsum(ev.per_period_loglik))
        assert ev.total < 0.0

    def test_train_until_must_precede_last_period(self):
        games = _league_games(periods=3)
        with pytest.raises(ValueError):
            hyperopt.evaluate_hyperparameters(games, H2, CFG, train_until=3)

    def test_empty_games_rejected(self):
        with pytest.raises(ValueError):
            hyperopt.evaluate_hyperparameters([], H2, CFG, train_until=1)

    def test_scoring_never_peeks_at_later_periods(self):
        """Per-period scores depend only on strictly earlier outcomes."""
        games = _league_games(periods=4)
        flipped = [
            GameRecord(g.period, g.white_id, g.black_id,
                       1.0 - g.outcome if g.period == 4 else g.outcome)
            for g in games
        ]
        base = hyperopt.evaluate_hyperparameters(games, H2, CFG, train_until=1)
        changed = hyperopt.evaluate_hyperparameters(flipped, H2, CFG, train_until=1)
        assert changed.per_period_loglik[0] == base.per_period_loglik[0]
        assert changed.per_period_loglik[1] == base.per_period_loglik[1]
        assert changed.per_period_loglik[2] != base.per_period_loglik[2]

    def test_scores_period_before_folding_it_in(self):
        """A single validation game is scored against the pre-game priors."""
        games = [
            GameRecord(1, "a", "b", 1.0),
            GameRecord(2, "a", "b", 0.5),
        ]
        state = {"a": belief(0.3, 0.5, "a"), "b": belief(-0.1, 0.6, "b")}
        ev = hyperopt.evaluate_hyperparameters(
            games, H2, CFG, train_until=1, initial_state=state
        )
        trained = engine.run_period(state, games[:1], H2, CFG).state
        expected = math.log(predicted(trained["a"], trained["b"], 0.5, H2))
        assert ev.per_period_loglik[0] == pytest.approx(expected, abs=1e-12)

    def test_unknown_players_use_default_prior(self):
        games = [GameRecord(1, "a", "b", 1.0), GameRecord(2, "new", "b", 0.0)]
        ev = hyperopt.evaluate_hyperparameters(games, H2, CFG, train_until=1)
        assert math.isfinite(ev.total)
        assert ev.games_evaluated == 1

    def test_last_period_is_scored_but_not_folded_in(self):
        """Nothing reads the beliefs after the last period, so a candidate
        whose last update would be degenerate still scores that period."""
        state = {"w": belief(0.0, 600.0, "w"), "b": belief(800.0, 0.1, "b")}
        games = [GameRecord(1, "x", "y", 1.0), GameRecord(2, "w", "b", 1.0)]
        trained = engine.run_period(state, games[:1], H2, CFG).state
        with pytest.raises(engine.DegenerateUpdateError):
            engine.run_period(trained, games[1:], H2, CFG)
        ev = hyperopt.evaluate_hyperparameters(
            games, H2, CFG, train_until=1, initial_state=state
        )
        expected = math.log(predicted(trained["w"], trained["b"], 1.0, H2))
        assert math.isfinite(ev.total)
        assert ev.per_period_loglik[0] == pytest.approx(expected, abs=1e-12)

    def test_invalid_games_skipped(self):
        games = [
            GameRecord(1, "a", "b", 1.0),
            GameRecord(2, "a", "a", 1.0),
            GameRecord(2, "a", "b", 0.5),
        ]
        ev = hyperopt.evaluate_hyperparameters(games, H2, CFG, train_until=1)
        assert ev.games_evaluated == 1


class TestVectorMapping:
    def test_round_trip_fixed_alpha(self):
        h = Hyperparameters(beta0=0.4, beta1=0.6, tau=0.3)
        v = hyperopt._to_vector(h, fix_alpha=True)
        assert len(v) == 3
        back = hyperopt._from_vector(v, fix_alpha=True)
        assert back.beta0 == pytest.approx(0.4)
        assert back.tau == pytest.approx(0.3)
        assert (back.alpha0, back.alpha1) == (0.0, 0.0)

    def test_round_trip_free_alpha(self):
        h = Hyperparameters(0.1, -0.2, 0.4, 0.6, 0.3)
        back = hyperopt._from_vector(hyperopt._to_vector(h, False), False)
        assert back.alpha0 == pytest.approx(0.1)
        assert back.alpha1 == pytest.approx(-0.2)
        assert back.tau == pytest.approx(0.3)

    def test_tau_searched_on_log_scale(self):
        v = hyperopt._to_vector(Hyperparameters(tau=0.5), True)
        assert v[2] == pytest.approx(math.log(0.5))


class TestOptimize:
    @staticmethod
    def quadratic_objective(target):
        def objective(h):
            return -(
                (h.beta0 - target.beta0) ** 2
                + (h.beta1 - target.beta1) ** 2
                + (math.log(h.tau) - math.log(target.tau)) ** 2
            )
        return objective

    def test_recovers_quadratic_maximum(self):
        target = Hyperparameters(beta0=0.8, beta1=0.25, tau=0.3)
        result = hyperopt.optimize(
            [], CFG, train_until=1,
            starts=[Hyperparameters(beta0=0.2, beta1=0.6, tau=0.15)],
            objective_fn=self.quadratic_objective(target),
        )
        assert result.converged
        assert result.best.beta0 == pytest.approx(0.8, abs=1e-3)
        assert result.best.beta1 == pytest.approx(0.25, abs=1e-3)
        assert result.best.tau == pytest.approx(0.3, abs=1e-3)
        assert result.evaluations > 0

    def test_multi_start_picks_best(self):
        target = Hyperparameters(beta0=1.0, beta1=0.1, tau=0.2)
        result = hyperopt.optimize(
            [], CFG, train_until=1,
            starts=[
                Hyperparameters(beta0=0.0, beta1=0.0, tau=0.1),
                Hyperparameters(beta0=2.0, beta1=1.0, tau=0.5),
            ],
            objective_fn=self.quadratic_objective(target),
        )
        assert len(result.starts) == 2
        assert result.objective == pytest.approx(
            max(s.objective for s in result.starts)
        )

    def test_free_alpha_search_space(self):
        target = Hyperparameters(0.15, -0.05, 0.8, 0.25, 0.3)

        def objective(h):
            return -(
                (h.alpha0 - 0.15) ** 2 + (h.alpha1 + 0.05) ** 2
                + (h.beta0 - 0.8) ** 2 + (h.beta1 - 0.25) ** 2
                + (math.log(h.tau) - math.log(0.3)) ** 2
            )

        result = hyperopt.optimize(
            [], CFG, train_until=1, fix_alpha=False,
            starts=[Hyperparameters(tau=0.2)], objective_fn=objective,
        )
        assert result.best.alpha0 == pytest.approx(0.15, abs=1e-2)
        assert result.best.alpha1 == pytest.approx(-0.05, abs=1e-2)

    def test_degenerate_candidates_are_penalized_not_fatal(self):
        """Candidates that break the filter score -inf and the search goes on."""
        target = Hyperparameters(beta0=0.8, beta1=0.25, tau=0.3)
        base = self.quadratic_objective(target)

        def fragile(h):
            if h.beta0 > 0.9:
                raise engine.DegenerateUpdateError("synthetic blow-up")
            return base(h)

        result = hyperopt.optimize(
            [], CFG, train_until=1,
            starts=[Hyperparameters(beta0=0.2, beta1=0.6, tau=0.15)],
            objective_fn=fragile,
        )
        assert result.best.beta0 == pytest.approx(0.8, abs=1e-2)

    def test_trace_records_every_evaluation(self):
        trace = hyperopt.TraceRecorder()
        result = hyperopt.optimize(
            [], CFG, train_until=1,
            starts=[Hyperparameters(beta0=0.2, beta1=0.6, tau=0.15)],
            objective_fn=self.quadratic_objective(Hyperparameters()),
            trace=trace,
        )
        assert len(trace.rows) == result.evaluations
        text = trace.to_delimited()
        assert text.startswith("evaluation,alpha0,alpha1,beta0,beta1,tau,objective\n")
        assert len(text.strip().split("\n")) == result.evaluations + 1

    def test_every_objective_call_is_counted_and_traced(self):
        """Each start's value comes from one counted, traced evaluation;
        nothing is evaluated after the search."""
        calls = []
        objective = self.quadratic_objective(Hyperparameters(beta0=0.8, beta1=0.25, tau=0.3))

        def counted(h):
            calls.append(h)
            return objective(h)

        trace = hyperopt.TraceRecorder()
        result = hyperopt.optimize(
            [], CFG, train_until=1,
            starts=[Hyperparameters(beta0=0.2, beta1=0.6, tau=0.15),
                    Hyperparameters(beta0=1.5, beta1=0.1, tau=0.5)],
            objective_fn=counted, trace=trace,
        )
        assert len(calls) == result.evaluations == len(trace.rows)

    def test_minus_infinity_simplex_raises_no_warnings(self):
        """A start whose whole simplex scores -inf makes Nelder-Mead subtract
        inf from inf; the search stays silent and counts every call."""
        calls = []
        base = self.quadratic_objective(Hyperparameters(beta0=0.8, beta1=0.25, tau=0.3))

        def half_space(h):
            calls.append(h)
            if h.beta0 < 0.5:
                raise engine.DegenerateUpdateError("synthetic blow-up")
            return base(h)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = hyperopt.optimize(
                [], CFG, train_until=1,
                starts=[Hyperparameters(beta0=0.2, beta1=0.6, tau=0.15),
                        Hyperparameters(beta0=1.0, beta1=0.6, tau=0.15)],
                objective_fn=half_space,
            )
        assert len(calls) == result.evaluations
        assert result.starts[0].objective == -math.inf
        assert result.converged
        assert result.best.beta0 == pytest.approx(0.8, abs=1e-2)

    @pytest.mark.parametrize("fix_alpha,tau,simplex,traced", [
        (True, 0.15, 4, 4),
        (False, 0.15, 6, 6),
        # the log-tau vertex overflows: counted, but maps to no hyperparameters
        (True, 1e300, 4, 3),
    ])
    def test_all_minus_infinity_simplex_stops_the_start(self, fix_alpha, tau, simplex,
                                                        traced):
        """A start whose initial simplex (the start and one vertex per
        coordinate) scores -inf everywhere is stopped after those n + 1
        evaluations instead of shrinking the simplex to the budget."""
        calls = []

        def degenerate(h):
            calls.append(h)
            raise engine.DegenerateUpdateError("synthetic blow-up")

        trace = hyperopt.TraceRecorder()
        start = Hyperparameters(beta0=0.2, beta1=0.6, tau=tau)
        result = hyperopt.optimize(
            [], CFG, train_until=1, starts=[start], fix_alpha=fix_alpha,
            objective_fn=degenerate, trace=trace,
        )
        assert result.evaluations == simplex
        assert len(calls) == len(trace.rows) == traced
        assert not result.converged
        assert result.objective == -math.inf
        assert result.best == start
        assert result.starts[0].objective == -math.inf

    def test_degenerate_start_scores_minus_infinity(self):
        start = Hyperparameters(beta0=0.2, beta1=0.6, tau=0.15)
        base = self.quadratic_objective(Hyperparameters(beta0=0.8, beta1=0.25, tau=0.3))

        def fragile(h):
            if h == start:
                raise engine.DegenerateUpdateError("synthetic blow-up at the start")
            return base(h)

        trace = hyperopt.TraceRecorder()
        result = hyperopt.optimize(
            [], CFG, train_until=1, starts=[start], objective_fn=fragile, trace=trace,
        )
        assert trace.rows[0][1:] == (start, -math.inf)
        assert result.converged
        assert math.isfinite(result.objective)

    def test_unrepresentable_candidates_score_minus_infinity(self):
        """Simplex steps that push log tau past exp's range are counted, not fatal."""
        calls = []
        objective = self.quadratic_objective(Hyperparameters(beta0=0.8, beta1=0.25, tau=0.3))

        def counted(h):
            calls.append(h)
            return objective(h)

        trace = hyperopt.TraceRecorder()
        result = hyperopt.optimize(
            [], CFG, train_until=1,
            starts=[Hyperparameters(beta0=0.0, beta1=0.0, tau=1e300)],
            objective_fn=counted, trace=trace,
        )
        assert result.evaluations > len(calls) == len(trace.rows)
        assert math.isfinite(result.objective)
        assert type(result.objective) is float
        assert all(type(s.objective) is float for s in result.starts)

    def test_a_tau_whose_square_overflows_scores_minus_infinity(self):
        """The simplex around tau = 1e153 steps log tau to about 1e160, whose
        square overflows in the engine's time advance."""
        trace = hyperopt.TraceRecorder()
        result = hyperopt.optimize(
            _league_games(), CFG, train_until=1,
            starts=[Hyperparameters(tau=1e153)], trace=trace,
        )
        overflowed = [obj for _, h, obj in trace.rows if h.tau > 1.4e154]
        assert overflowed and set(overflowed) == {-math.inf}
        assert result.evaluations == len(trace.rows)

    def test_non_improving_search_flags_non_convergence(self):
        result = hyperopt.optimize(
            [], CFG, train_until=1,
            starts=[Hyperparameters()],
            objective_fn=lambda h: 0.0,
        )
        assert not result.converged
        assert result.objective == 0.0

    def test_requires_a_start(self):
        with pytest.raises(ValueError):
            hyperopt.optimize([], CFG, train_until=1, starts=[],
                              objective_fn=lambda h: 0.0)

    def test_default_starts(self):
        starts = hyperopt.default_starts()
        assert len(starts) == 3
        assert any(s.beta0 == pytest.approx(1.09861) for s in starts)

    def test_end_to_end_on_tiny_league(self):
        """The real predictive objective runs and returns finite results."""
        rng = np.random.default_rng(11)
        games = []
        for t in range(1, 5):
            for _ in range(40):
                w, b = rng.choice(6, 2, replace=False)
                p = model.probability_array(float(w) * 0.4, float(b) * 0.4, 1.0, H2)
                y = [1.0, 0.5, 0.0][int((rng.random() < p.cumsum()).argmax())]
                games.append(GameRecord(t, f"p{w}", f"p{b}", y))
        result = hyperopt.optimize(
            games, CFG, train_until=2,
            starts=[Hyperparameters(beta0=0.8, beta1=0.2, tau=0.2)],
        )
        assert math.isfinite(result.objective)
        assert result.best.tau > 0


def _guard_league():
    """30 players over 5 periods, trained through period 2.

    Players p00-p19 start rated; p18 never plays and p19 sits at the sigma
    cap until it plays in period 5.  p20-p29 debut in period 3, period 4 has
    no games and period 5 holds a self-play row.
    """
    players = [f"p{k:02d}" for k in range(30)]
    state = {pid: belief(0.1 * k - 0.5, 0.3 + 0.02 * k, pid)
             for k, pid in enumerate(players[:18])}
    state["p18"] = belief(0.4, 0.35, "p18")
    state["p19"] = belief(1.2, CFG.sigma_cap, "p19")
    games = []

    def add(period, pool):
        for i in range(40):
            white = pool[(7 * i) % len(pool)]
            black = pool[(7 * i + 1 + i % 5) % len(pool)]
            games.append(GameRecord(period, white, black, (1.0, 0.5, 0.0)[(i * i + period) % 3]))

    add(1, players[:18])
    add(2, players[:18])
    add(3, players[:18:2] + players[20:])
    add(5, players[:18] + players[19:])
    games.insert(len(games) - 7, GameRecord(5, "p03", "p03", 1.0))
    return games, state


GUARD_POINTS = [
    Hyperparameters(),
    Hyperparameters(beta0=0.35338, beta1=0.57041, tau=0.4604),
    Hyperparameters(0.1, 0.05, 0.8, 0.3, 0.25),
]


class TestReplayGuard:
    """The predictive objective on a league with every bookkeeping case."""

    # repr of (total, per_period_loglik) at GUARD_POINTS, computed by the
    # per-period dict filter that preceded the compiled replay
    FROZEN = [
        ("-103.43086215812299", "(-38.09644069618419, 0.0, -65.3344214619388)"),
        ("-94.99919048064402", "(-39.82371954706921, 0.0, -55.175470933574815)"),
        ("-98.18495219617823", "(-38.13619847832156, 0.0, -60.04875371785667)"),
    ]

    @pytest.mark.parametrize("h,expected", list(zip(GUARD_POINTS, FROZEN)))
    def test_frozen_objective(self, h, expected):
        games, state = _guard_league()
        ev = hyperopt.evaluate_hyperparameters(games, h, CFG, 2, state)
        assert (repr(ev.total), repr(ev.per_period_loglik)) == expected
        assert ev.games_evaluated == 80

    @pytest.mark.parametrize("h", GUARD_POINTS)
    def test_matches_run_period_hand_loop(self, h):
        games, state = _guard_league()
        ev = hyperopt.evaluate_hyperparameters(games, h, CFG, 2, state)
        grouped = hyperopt.games_by_period(games)
        expected = []
        for period in range(1, 6):
            period_games = grouped.get(period, [])
            if period > 2:
                expected.append(math.fsum(
                    math.log(predicted(
                        state.get(g.white_id) or CFG.default_belief(g.white_id),
                        state.get(g.black_id) or CFG.default_belief(g.black_id),
                        g.outcome, h,
                    ))
                    for g in period_games if g.white_id != g.black_id
                ))
            state = engine.run_period(state, period_games, h, CFG).state
        assert expected[1] == 0.0
        np.testing.assert_allclose(ev.per_period_loglik, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h", GUARD_POINTS)
    def test_compiled_history_gives_identical_results(self, h):
        games, state = _guard_league()
        history = engine.compile_history(games, state, CFG)
        assert list(history.ids) == sorted(history.ids)
        assert "p03" in history.ids and history.tracked.sum() == 20
        from_list = hyperopt.evaluate_hyperparameters(games, h, CFG, 2, state)
        compiled = hyperopt.evaluate_hyperparameters(history, h, CFG, 2)
        assert compiled == from_list
        assert repr(compiled.total) == repr(from_list.total)

    def test_compiled_history_refuses_a_second_initial_state(self):
        games, state = _guard_league()
        history = engine.compile_history(games, state, CFG)
        with pytest.raises(ValueError):
            hyperopt.evaluate_hyperparameters(history, H2, CFG, 2, initial_state=state)
        with pytest.raises(ValueError):
            hyperopt.evaluate_hyperparameters(
                history, H2, EngineConfig(default_prior_elo=1500.0), 2
            )


def _replay(history, h, train_until):
    """The objective's repr and, after each period of a plain filter replay,
    (mu, sigma, tracked, counts, posterior sd)."""
    ev = hyperopt.evaluate_hyperparameters(history, h, CFG, train_until)
    states = []
    mu, sigma, tracked = history.mu.copy(), history.sigma.copy(), history.tracked.copy()
    for period in history.periods:
        got = engine.filter_period(period, history.ids, mu, sigma, tracked, h, CFG)
        states.append((mu.copy(), sigma.copy(), tracked.copy(), *got))
    return repr((ev.total, ev.per_period_loglik)), states


class TestEmptyPeriods:
    """Periods without games share one compiled empty period; the filter
    still advances sigma once per empty period."""

    def test_a_far_period_compiles_one_empty_period(self):
        games = [GameRecord(1, "a", "b", 1.0), GameRecord(1, "b", "c", 0.5),
                 GameRecord(2, "a", "c", 0.0), GameRecord(100_000, "a", "b", 0.5)]
        tracemalloc.start()
        try:
            history = engine.compile_history(games, None, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(history.periods) == 100_000
        empty = [period for period in history.periods if period.white.size == 0]
        assert len(empty) == 99_997
        assert len({id(period) for period in empty}) == 1
        assert peak < 20_000_000

    @pytest.mark.parametrize("h", GUARD_POINTS)
    def test_a_shared_empty_period_filters_as_separate_ones(self, h):
        """Periods 4 to 7 of the guard league without games: the evaluation and
        every filtered state equal those of a history whose empty periods are
        compiled one by one."""
        games, state = _guard_league()
        games = [dataclasses.replace(g, period=8) if g.period == 5 else g for g in games]
        shared = engine.compile_history(games, state, CFG)
        separate = dataclasses.replace(shared, periods=tuple(
            engine._compile_period([], {}) if period.white.size == 0 else period
            for period in shared.periods
        ))
        assert len({id(p) for p in shared.periods[3:7]}) == 1
        assert len({id(p) for p in separate.periods[3:7]}) == 4

        want, want_states = _replay(separate, h, 2)
        got, got_states = _replay(shared, h, 2)
        assert got == want
        for got_arrays, want_arrays in zip(got_states, want_states):
            assert all(map(np.array_equal, got_arrays, want_arrays))
        # each empty period advances sigma of exactly the tracked players
        # below the cap, and keeps every mean
        for before, after in zip(got_states[2:6], got_states[3:7]):
            grows = before[2] & (before[1] < CFG.sigma_cap)
            assert np.array_equal(after[1] > before[1], grows)
            assert np.array_equal(after[0], before[0])


def _per_period_objective(history, h, train_until):
    """repr((total, per_period_loglik)) of a plain replay that scores and
    filters every period, empty or not."""
    mu, sigma, tracked = history.mu.copy(), history.sigma.copy(), history.tracked.copy()
    per_period = []
    filter_period = engine.filter_period
    for number, period in enumerate(history.periods, start=1):
        if number > train_until:
            white, black = period.white, period.black
            p = hyperopt._observed_probability(
                mu[white], sigma[white], mu[black], sigma[black], period.observed, h, 3
            )
            with np.errstate(divide="ignore"):
                per_period.append(float(np.log(p).sum()))
        if number < len(history.periods):
            filter_period(period, history.ids, mu, sigma, tracked, h, CFG)
    return repr((math.fsum(per_period), tuple(per_period)))


class TestSettledEmptyPeriods:
    """A run of empty periods is filtered only until an advance leaves
    sigma unchanged; the objective keeps every bit."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        filter_period = engine.filter_period

        def counted(*args):
            calls.append(args[0])
            return filter_period(*args)

        monkeypatch.setattr(engine, "filter_period", counted)
        return calls

    def test_a_far_period_filters_few_periods(self, monkeypatch):
        games = [GameRecord(1, "a", "b", 1.0), GameRecord(1, "b", "c", 0.5),
                 GameRecord(2, "a", "c", 0.0), GameRecord(100_000, "a", "b", 0.5)]
        history = engine.compile_history(games, None, CFG)
        want = _per_period_objective(history, H2, 1)
        calls = self._counted(monkeypatch)
        ev = hyperopt.evaluate_hyperparameters(history, H2, CFG, 1)
        assert repr((ev.total, ev.per_period_loglik)) == want
        assert len(ev.per_period_loglik) == 99_999
        assert len(calls) < 100

    @pytest.mark.parametrize("tau,settles", [(0.0, True), (0.01, False), (0.14391, True)])
    def test_a_gap_between_rated_players_keeps_the_objective(self, monkeypatch, tau, settles):
        """The guard league with its last period moved 3 000 periods on:
        rated players below the cap sit through 3 001 empty periods.  At
        tau = 0.01 some of them are still below the cap when the gap ends,
        so every period is filtered."""
        games, state = _guard_league()
        games = [dataclasses.replace(g, period=3005) if g.period == 5 else g for g in games]
        history = engine.compile_history(games, state, CFG)
        h = dataclasses.replace(H2, tau=tau)
        want = _per_period_objective(history, h, 2)
        calls = self._counted(monkeypatch)
        ev = hyperopt.evaluate_hyperparameters(history, h, CFG, 2)
        assert repr((ev.total, ev.per_period_loglik)) == want
        assert len(ev.per_period_loglik) == 3003
        assert (len(calls) < 100) == settles
        if not settles:
            assert len(calls) == len(history.periods) - 1


def _chunked_league(players, periods, games_per_period):
    league = simulate.simulate_league(
        simulate.LeagueConfig(players, periods, games_per_period, "uniform-random", seed=5),
        H2,
    )
    return engine.compile_history(league.games, None, CFG)


class TestChunkedPasses:
    """The array passes run in ``engine.chunks`` of at most ``GRID_CHUNK`` cells."""

    @pytest.mark.parametrize("h,bound,counts", [
        # one directed term and one scored game per chunk
        (H2, 1, {5000, 2500}),
        # 31 terms (ten cells each) and 7 games (45 cells each) per chunk,
        # each pass with a last partial chunk
        (H2, 315, {162, 358}),
        (GUARD_POINTS[2], 315, {162, 358}),
        # every pass in one chunk
        (GUARD_POINTS[2], 1 << 30, {1}),
    ])
    def test_fit_is_independent_of_the_chunk_size(self, chunk_bound, h, bound, counts):
        """Periods of 2 500 games; at the default bound a period's 5 000
        terms take one chunk and its 2 500 scored games two."""
        history = _chunked_league(200, 3, 2500)
        default = chunk_bound(engine.GRID_CHUNK)
        want, want_states = _replay(history, h, 1)
        assert set(default) == {1, 2}
        chunks = chunk_bound(bound)
        got, got_states = _replay(history, h, 1)
        assert got == want
        for got_arrays, want_arrays in zip(got_states, want_states):
            assert all(map(np.array_equal, got_arrays, want_arrays))
        assert set(chunks) == counts

    def test_a_scored_period_keeps_its_temporaries_small(self):
        """Peak memory an evaluation allocates over what it holds at the start,
        on a league whose scored periods have 5 000 games each: about 1.2 MB
        in chunks of 64 KiB, about 4 MB as whole-period passes."""
        history = _chunked_league(500, 3, 5000)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            hyperopt.evaluate_hyperparameters(history, H2, CFG, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 2_000_000

    @pytest.mark.skipif(sys.platform != "linux", reason="minor page faults as Linux counts them")
    def test_a_warm_fit_evaluation_takes_no_page_faults(self):
        """On the benchmark's fit league (150 players, 8 periods of 1 500
        games) a warm evaluation reuses the heap: none of its temporaries
        makes glibc trim the heap top and fault it back in."""
        import resource

        league = simulate.simulate_league(
            simulate.LeagueConfig(150, 8, 1500, "uniform-random", 2.0, 1.5, seed=1), H2,
        )
        state = store.initialize_priors(simulate.initial_ratings(league), CFG)
        history = engine.compile_history(league.games, state, CFG)
        for _ in range(5):
            hyperopt.evaluate_hyperparameters(history, H2, CFG, 4)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            hyperopt.evaluate_hyperparameters(history, H2, CFG, 4)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 50

    @pytest.mark.skipif(sys.platform != "linux", reason="minor page faults as Linux counts them")
    def test_a_warm_fit_evaluation_in_a_fresh_interpreter_takes_no_page_faults(
            self, fresh_python):
        """The same in a process that never loads scipy, so that nothing grew
        its heap beforehand: the passes keep their work blocks."""
        got = fresh_python("""
            import json, resource, sys
            from drawrating import engine, hyperopt, simulate, store
            from drawrating.model import Hyperparameters

            h, cfg = Hyperparameters(), engine.EngineConfig()
            league = simulate.simulate_league(
                simulate.LeagueConfig(150, 8, 1500, "uniform-random", 2.0, 1.5, seed=1), h)
            state = store.initialize_priors(simulate.initial_ratings(league), cfg)
            history = engine.compile_history(league.games, state, cfg)
            for _ in range(5):
                hyperopt.evaluate_hyperparameters(history, h, cfg, 4)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(50):
                hyperopt.evaluate_hyperparameters(history, h, cfg, 4)
            print(json.dumps({
                "faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
                "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
            }))
        """)
        assert got["scipy"] == []
        assert got["faults"] < 50


class TestNoScipyIsLoaded:
    """The search runs its own Nelder-Mead, so importing the package or its
    command line, or running a search, loads no scipy module."""

    def test_in_a_fresh_interpreter(self, fresh_python):
        got = fresh_python("""
            import json, sys

            def scipy_modules():
                return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

            import drawrating
            after_package = scipy_modules()
            import drawrating.cli
            after_cli = scipy_modules()
            from drawrating import engine, hyperopt
            from drawrating.model import Hyperparameters

            def objective(h):
                return -((h.beta0 - 0.8) ** 2 + (h.beta1 - 0.25) ** 2 + (h.tau - 0.3) ** 2)

            result = hyperopt.optimize(
                [], engine.EngineConfig(), 1,
                starts=[Hyperparameters(beta0=0.2, beta1=0.6, tau=0.15)],
                objective_fn=objective,
            )
            print(json.dumps({
                "package": after_package, "cli": after_cli,
                "converged": result.converged,
                "best": [result.best.beta0, result.best.beta1, result.best.tau],
                "after_search": scipy_modules(),
            }))
        """)
        assert got["package"] == [] and got["cli"] == []
        assert got["converged"] and got["after_search"] == []
        np.testing.assert_allclose(got["best"], [0.8, 0.25, 0.3], atol=1e-3)


def _bench_fit_history(seed=1):
    """The benchmark's fit league (150 players, 8 periods of 1 500 games)."""
    league = simulate.simulate_league(
        simulate.LeagueConfig(150, 8, 1500, "uniform-random", 2.0, 1.5, seed=seed), H2,
    )
    state = store.initialize_priors(simulate.initial_ratings(league), CFG)
    return engine.compile_history(league.games, state, CFG)


class TestNelderMeadPort:
    """``hyperopt._nelder_mead`` against ``scipy.optimize.minimize`` with the
    options the search used with scipy: the same vectors, byte for byte and
    in the same order, the same best vertex and value, the same count."""

    @staticmethod
    def assert_same_search(func, x0):
        minimize = pytest.importorskip("scipy.optimize").minimize
        maxfev = hyperopt.MAX_EVALUATIONS

        def run(search):
            calls = []

            def recorded(v):
                calls.append(v.tobytes())
                return func(v)

            with np.errstate(invalid="ignore"):  # inf - inf in the stopping test
                x, fun, count = search(recorded, calls)
            return calls, x.tobytes(), repr(float(fun)), count

        def with_scipy(f, calls):
            res = minimize(f, x0, method="Nelder-Mead", options={
                "fatol": hyperopt.SPREAD_TOL, "xatol": 1e-6, "maxfev": maxfev})
            return res.x, res.fun, res.nfev

        ported = run(lambda f, calls: (*hyperopt._nelder_mead(
            f, x0, xatol=1e-6, fatol=hyperopt.SPREAD_TOL, maxfev=maxfev), len(calls)))
        assert ported == run(with_scipy)
        return ported[3]

    @staticmethod
    def negative_objective(history, fix_alpha, train_until):
        def negative(v):
            try:
                h = hyperopt._from_vector(v, fix_alpha)
                return -hyperopt.evaluate_hyperparameters(history, h, CFG, train_until).total
            except (OverflowError, ValueError, engine.DegenerateUpdateError):
                return math.inf
        return negative

    def test_the_bench_fit_league_from_the_deployed_values(self):
        func = self.negative_objective(_bench_fit_history(), True, 4)
        assert self.assert_same_search(func, hyperopt._to_vector(H2, True)) > 100

    def test_the_default_starts(self):
        """The third start has zero coordinates, which the initial simplex
        steps by a fixed amount instead of 5 %."""
        history = _chunked_league(40, 4, 200)
        func = self.negative_objective(history, True, 2)
        for start in hyperopt.default_starts():
            self.assert_same_search(func, hyperopt._to_vector(start, True))

    def test_a_five_dimensional_search(self):
        history = _chunked_league(40, 4, 200)
        func = self.negative_objective(history, False, 2)
        self.assert_same_search(func, hyperopt._to_vector(Hyperparameters(tau=0.2), False))

    @pytest.mark.parametrize("budget", [1, 3, 4, 6, 10, 40])
    def test_a_budget_cut_short(self, monkeypatch, budget):
        """A quadratic on a staircase: its flat steps fail the contractions,
        so the simplex shrinks (evaluations 9-11 are the first shrink).  The
        budgets end inside the initial simplex, at its end, inside a step and
        inside a shrink."""
        monkeypatch.setattr(hyperopt, "MAX_EVALUATIONS", budget)

        def func(v):
            return float(np.floor(np.sum((v - np.array([0.8, 0.25, -1.2])) ** 2) * 2) / 2)

        assert self.assert_same_search(func, np.array([0.2, 0.6, -1.9])) == budget

    def test_a_partly_minus_infinity_initial_simplex(self):
        """Two of the four initial vertices score -inf, as degenerate candidates do."""
        def func(v):
            if v[0] > 0.205 or v[2] < -1.95:
                return math.inf
            return float(np.sum((v - np.array([0.1, 0.3, -1.5])) ** 2))

        self.assert_same_search(func, np.array([0.2, 0.6, -1.9]))
