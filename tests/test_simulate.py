"""Tests for the synthetic league simulator."""

import math

import numpy as np
import pytest

from drawrating import engine, hyperopt, model, simulate, store
from drawrating.engine import EngineConfig
from drawrating.model import Hyperparameters
from drawrating.simulate import LeagueConfig

H2 = Hyperparameters()


class TestLeagueConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LeagueConfig(players=1, periods=2, games_per_period=10)
        with pytest.raises(ValueError):
            LeagueConfig(players=4, periods=0, games_per_period=10)
        with pytest.raises(ValueError):
            LeagueConfig(players=4, periods=2, games_per_period=10,
                         pairing="swiss")


class TestStrengths:
    def test_shape_and_initial_distribution(self):
        cfg = LeagueConfig(players=2000, periods=3, games_per_period=10,
                           initial_mean=2.0, initial_sd=1.5, seed=1)
        theta = simulate.simulate_strengths(cfg, H2)
        assert theta.shape == (2000, 3)
        assert theta[:, 0].mean() == pytest.approx(2.0, abs=0.1)
        assert theta[:, 0].std() == pytest.approx(1.5, abs=0.1)

    def test_increments_have_innovation_scale(self):
        cfg = LeagueConfig(players=5000, periods=4, games_per_period=10, seed=2)
        h = Hyperparameters(tau=0.3)
        theta = simulate.simulate_strengths(cfg, h)
        increments = np.diff(theta, axis=1).ravel()
        assert increments.mean() == pytest.approx(0.0, abs=0.01)
        assert increments.std() == pytest.approx(0.3, abs=0.01)

    def test_zero_tau_freezes_strengths(self):
        cfg = LeagueConfig(players=10, periods=5, games_per_period=10, seed=3)
        theta = simulate.simulate_strengths(cfg, Hyperparameters(tau=0.0))
        assert np.all(theta == theta[:, :1])


class TestPairing:
    def test_no_self_pairs(self):
        rng = np.random.default_rng(4)
        theta = rng.normal(0, 2, 50)
        for pairing in ("rating-banded", "uniform-random"):
            pairs = simulate._pair_players(theta, 500, pairing, rng)
            assert np.all(pairs[:, 0] != pairs[:, 1])

    def test_banded_pairs_stay_within_band(self):
        """With a dense field every banded pair is within the band width."""
        rng = np.random.default_rng(5)
        theta = np.linspace(0.0, 5.0, 200)  # gaps of 0.025, nobody isolated
        pairs = simulate._pair_players(theta, 1000, "rating-banded", rng)
        gaps = np.abs(theta[pairs[:, 0]] - theta[pairs[:, 1]])
        assert gaps.max() <= simulate.BAND_WIDTH

    def test_isolated_player_falls_back_to_nearest_neighbor(self):
        rng = np.random.default_rng(6)
        theta = np.array([0.0, 10.0, 10.1])
        pairs = simulate._pair_players(theta, 200, "rating-banded", rng)
        from_isolated = pairs[pairs[:, 0] == 0]
        assert np.all(from_isolated[:, 1] == 1)

    def test_uniform_covers_all_opponents(self):
        rng = np.random.default_rng(7)
        theta = np.zeros(6)
        pairs = simulate._pair_players(theta, 2000, "uniform-random", rng)
        assert set(np.unique(pairs)) == set(range(6))


class TestSimulateGames:
    def test_determinism_and_seed_sensitivity(self):
        cfg = LeagueConfig(players=20, periods=3, games_per_period=50, seed=8)
        a = simulate.simulate_league(cfg, H2)
        b = simulate.simulate_league(cfg, H2)
        assert a.games == b.games
        assert np.array_equal(a.true_strengths, b.true_strengths)
        other = simulate.simulate_league(
            LeagueConfig(players=20, periods=3, games_per_period=50, seed=9), H2
        )
        assert other.games != a.games

    def test_game_record_fields(self):
        cfg = LeagueConfig(players=5, periods=2, games_per_period=30, seed=10)
        league = simulate.simulate_league(cfg, H2)
        assert len(league.games) == 60
        for g in league.games:
            assert 1 <= g.period <= 2
            assert g.white_id != g.black_id
            assert g.outcome in (1.0, 0.5, 0.0)
            assert isinstance(g.outcome, float)

    def test_outcome_frequencies_match_model(self):
        """Two frozen-strength players: empirical frequencies match the
        outcome model within Monte Carlo error."""
        cfg = LeagueConfig(players=2, periods=1, games_per_period=40000, seed=11)
        h = Hyperparameters(beta0=1.09861, beta1=0.17037, tau=0.0)
        league = simulate.simulate_league(cfg, h)
        t0, t1 = league.true_strengths[:, 0]
        counts = {1.0: 0, 0.5: 0, 0.0: 0}
        for g in league.games:
            y = g.outcome if g.white_id == "p00000" else 1.0 - g.outcome
            counts[y] += 1
        expected = model.probability_array(t0, t1, 1.0, h)
        n = len(league.games)
        for y, idx in [(1.0, 0), (0.5, 1), (0.0, 2)]:
            se = math.sqrt(expected[idx] * (1 - expected[idx]) / n)
            assert counts[y] / n == pytest.approx(float(expected[idx]),
                                                  abs=5 * se + 1e-4)

    def test_shape_mismatch_rejected(self):
        cfg = LeagueConfig(players=5, periods=2, games_per_period=10)
        with pytest.raises(ValueError):
            simulate.simulate_games(np.zeros((4, 2)), cfg, H2)

    def test_strength_and_game_streams_are_independent(self):
        """Changing tau perturbs trajectories but not the pairing draws."""
        cfg = LeagueConfig(players=10, periods=1, games_per_period=40, seed=12)
        a = simulate.simulate_league(cfg, Hyperparameters(tau=0.1))
        b = simulate.simulate_league(cfg, Hyperparameters(tau=0.9))
        assert np.array_equal(a.true_strengths[:, 0], b.true_strengths[:, 0])


class TestInitialRatings:
    def test_deterministic_and_complete(self):
        cfg = LeagueConfig(players=30, periods=2, games_per_period=10, seed=13)
        league = simulate.simulate_league(cfg, H2)
        a = simulate.initial_ratings(league)
        b = simulate.initial_ratings(league)
        assert a == b
        assert len(a) == 30
        assert [pid for pid, _ in a] == [simulate.player_name(i) for i in range(30)]

    def test_noise_scale(self):
        cfg = LeagueConfig(players=3000, periods=1, games_per_period=10, seed=14)
        league = simulate.simulate_league(cfg, H2)
        ratings = simulate.initial_ratings(league, noise_sd_elo=100.0)
        truth = model.ELO_CENTER + model.ELO_SCALE * league.true_strengths[:, 0]
        errors = np.array([r for _, r in ratings]) - truth
        assert errors.std() == pytest.approx(100.0, rel=0.1)


class TestRecoveryExperiment:
    def test_smoke_at_small_scale(self):
        cfg = LeagueConfig(players=40, periods=4, games_per_period=300,
                           pairing="uniform-random",
                           initial_mean=1.5, initial_sd=1.2, seed=15)
        report = simulate.recovery_experiment(
            cfg, H2, EngineConfig(), train_until=2,
            starts=[Hyperparameters(beta0=0.9, beta1=0.1, tau=0.2)],
        )
        assert report.true_h == H2
        assert len(report.tracking_mae) == 4
        assert all(math.isfinite(v) for v in report.tracking_mae)
        assert math.isfinite(report.objective)
        assert report.recovered.tau > 0

    @pytest.mark.parametrize("pairing", ["rating-banded", "uniform-random"])
    @pytest.mark.parametrize("seed", [3, 16])
    def test_tracking_matches_a_run_period_loop(self, monkeypatch, pairing, seed):
        """The tracking errors equal those of replaying the league one
        ``engine.run_period`` call per period, bit for bit."""
        cfg = LeagueConfig(players=30, periods=5, games_per_period=40, pairing=pairing,
                           seed=seed)
        h, engine_cfg = Hyperparameters(beta0=0.4, beta1=0.3, tau=0.45), EngineConfig()
        monkeypatch.setattr(hyperopt, "optimize", lambda *args, **kwargs:
                            hyperopt.OptimizationResult(h, 0.0, [], 0))
        report = simulate.recovery_experiment(cfg, h, engine_cfg, train_until=2)

        league = simulate.simulate_league(cfg, h)
        state = store.initialize_priors(simulate.initial_ratings(league), engine_cfg)
        grouped = engine.games_by_period(league.games)
        tracking = []
        for t in range(1, cfg.periods + 1):
            result = engine.run_period(state, grouped.get(t, []), h, engine_cfg)
            errors = [
                abs(u.mu_post - league.true_strengths[int(u.player_id[1:]), t - 1])
                for u in result.updates
            ]
            tracking.append(float(np.mean(errors)))
            state = result.state
        assert report.tracking_mae == tracking
