"""Tests for the per-period filtering engine.

Frozen game-term and posterior values come from an independent 40-digit
implementation of the two-node update formulas.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawrating import engine, model
from drawrating.engine import (
    DegenerateUpdateError,
    EngineConfig,
    GameTerm,
    PlayerBelief,
)
from drawrating.model import Hyperparameters
from drawrating.store import GameRecord

H2 = Hyperparameters()
CFG = EngineConfig()

mus = st.floats(min_value=-4.0, max_value=8.0)
sigmas = st.floats(min_value=0.1, max_value=1.5)
outcomes = st.sampled_from([1.0, 0.5, 0.0])
colors = st.sampled_from([1, -1])


def belief(mu, sigma, pid="x"):
    return PlayerBelief(pid, mu, sigma)


class TestPlayerBelief:
    def test_elo_properties(self):
        b = belief(0.0, 100.0 / model.ELO_SCALE)
        assert b.elo == 1500.0
        assert b.elo_sd == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            belief(0.0, 0.0)
        with pytest.raises(ValueError):
            belief(math.nan, 1.0)


class TestEngineConfig:
    def test_defaults(self):
        assert CFG.sigma_cap == 0.691
        assert CFG.draw_score_override is True
        assert (CFG.default_prior_elo, CFG.default_prior_sd_elo) == (1800.0, 250.0)

    def test_default_belief(self):
        b = CFG.default_belief("new")
        assert b.elo == pytest.approx(1800.0)
        assert b.elo_sd == pytest.approx(250.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(sigma_cap=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("default_prior_elo", math.nan), ("default_prior_elo", math.inf),
        ("default_prior_sd_elo", 0.0), ("default_prior_sd_elo", math.nan),
        ("rated_prior_sd_elo", -100.0), ("rated_prior_sd_elo", math.nan),
    ])
    def test_every_prior_setting_is_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineConfig(**{field: value})

    @pytest.mark.parametrize("field", ["default_prior_sd_elo", "rated_prior_sd_elo"])
    @pytest.mark.parametrize("value", [5e-324, 5.501846484000506e-181, 1.2956e-152])
    def test_a_prior_sd_whose_precision_overflows_is_refused(self, field, value):
        """Its latent sd is 0.0 or so small that ``_newton_step``'s sigma**-2
        overflows; the error names the setting, not a player."""
        with pytest.raises(ValueError, match=rf"^{field} {value!r} is too small"):
            EngineConfig(**{field: value})

    def test_the_smallest_prior_sds_with_a_finite_precision_are_kept(self):
        sd = 1.3e-152
        cfg = EngineConfig(default_prior_sd_elo=sd, rated_prior_sd_elo=sd)
        assert math.isfinite(cfg.default_belief("a").sigma ** -2)


class TestGameTerm:
    # Frozen from the independent implementation:
    # (focal_mu, opp_mu, opp_sigma, outcome, color, h, override) -> d1, d2, p
    FROZEN = [
        ((0.4, 1.1, 0.6, 1.0, 1, H2, True),
         (0.54382753362578255, -0.090485454806448225, 0.26812217661842564)),
        ((0.4, 1.1, 0.6, 0.5, 1, H2, True),
         (0.061606186632805768, -0.08885217366585495, 1.2133930792108389)),
        ((0.4, 1.1, 0.6, 0.0, -1, H2, True),
         (-0.42540256969443516, -0.088058439275876283, 0.5184847441707355)),
        ((2.0, 2.0, 0.5756, 0.5, 1, H2, True),
         (-0.00076871000489196583, -0.078345192267352251, 1.3385645807829162)),
        ((1.5, 0.8, 0.9, 1.0, -1,
          Hyperparameters(alpha0=0.1, alpha1=0.05, beta0=0.35338, beta1=0.57041,
                          tau=0.46040), False),
         (0.22788722566807087, -0.084234003163035224, 0.60938955930764131)),
    ]

    @pytest.mark.parametrize("args,expected", FROZEN)
    def test_frozen_values(self, args, expected):
        mu_i, mu_j, sig_j, y, color, h, override = args
        cfg = EngineConfig(draw_score_override=override)
        term = engine.game_term(belief(mu_i, 0.8), belief(mu_j, sig_j), y, color, h, cfg)
        assert term.delta1 == pytest.approx(expected[0], abs=1e-14)
        assert term.delta2 == pytest.approx(expected[1], abs=1e-14)
        assert term.p_observed == pytest.approx(expected[2], abs=1e-14)

    @given(mus, mus, sigmas, outcomes, colors)
    @settings(max_examples=200)
    def test_matches_log_evidence_derivatives(self, mu_i, mu_j, sig_j, y, color):
        """delta1/delta2 are the derivatives of the log two-node evidence.

        This holds exactly when the draw score is the model's own
        coefficient, so the override is disabled here.
        """
        cfg = EngineConfig(draw_score_override=False)
        h = Hyperparameters(beta0=0.5, beta1=0.3, tau=0.2)

        def log_u(theta):
            p = 0.0
            for node in (-1.0, 1.0):
                dist = model.outcome_probabilities(theta, mu_j + node * sig_j, color, h)
                p += dist[model.outcome_index(y)]
            return math.log(p)

        eps1, eps2 = 1e-5, 1e-4
        fd1 = (log_u(mu_i + eps1) - log_u(mu_i - eps1)) / (2 * eps1)
        fd2 = (log_u(mu_i + eps2) - 2 * log_u(mu_i) + log_u(mu_i - eps2)) / eps2**2
        term = engine.game_term(belief(mu_i, 0.8), belief(mu_j, sig_j), y, color, h, cfg)
        assert term.delta1 == pytest.approx(fd1, abs=1e-6)
        assert term.delta2 == pytest.approx(fd2, abs=1e-6)

    @given(mus, mus, sigmas, outcomes, colors)
    def test_delta2_never_positive(self, mu_i, mu_j, sig_j, y, color):
        term = engine.game_term(belief(mu_i, 0.8), belief(mu_j, sig_j), y, color, H2, CFG)
        assert term.delta2 <= 1e-15

    def test_zero_probability_outcome_raises(self):
        # A draw propensity this large floors decisive probabilities to 0.
        h = Hyperparameters(beta0=800.0)
        with pytest.raises(DegenerateUpdateError):
            engine.game_term(belief(0.0, 0.5), belief(0.0, 0.2), 1.0, 1, h, CFG)

    def test_equal_prior_draw_exact_zero_when_slope_absent(self):
        """A draw between identical priors is exactly uninformative at
        beta1 = 0. With beta1 != 0 a draw is likelier at the stronger of the
        opponent's two nodes, mu - sigma and mu + sigma, so the nodes' score
        residuals no longer cancel; the frozen equal-mean draw in FROZEN
        (2.0 vs 2.0, opponent sigma 0.5756) records that residual."""
        h = Hyperparameters(beta0=1.09861, beta1=0.0, tau=0.14391)
        term = engine.game_term(belief(2.0, 0.5), belief(2.0, 0.5), 0.5, 1, h, CFG)
        assert term.delta1 == pytest.approx(0.0, abs=1e-15)


class TestPeriodUpdate:
    def test_frozen_two_game_posterior(self):
        focal = belief(0.4, 0.8)
        t1 = engine.game_term(focal, belief(1.1, 0.6), 1.0, 1, H2, CFG)
        t2 = engine.game_term(focal, belief(-0.2, 1.0), 0.5, -1, H2, CFG)
        update = engine.period_update(focal, [t1, t2])
        assert update.mu_post == pytest.approx(0.68257977609520872, abs=1e-14)
        assert update.sigma_post == pytest.approx(0.75858800378538007, abs=1e-14)
        assert update.games_count == 2

    def test_no_games_returns_prior(self):
        focal = belief(1.0, 0.4)
        update = engine.period_update(focal, [])
        assert (update.mu_post, update.sigma_post) == (1.0, 0.4)
        assert update.games_count == 0

    @given(mus, sigmas, mus, sigmas, outcomes, colors)
    def test_posterior_sd_shrinks(self, mu_i, sig_i, mu_j, sig_j, y, color):
        focal = belief(mu_i, sig_i)
        term = engine.game_term(focal, belief(mu_j, sig_j), y, color, H2, CFG)
        update = engine.period_update(focal, [term])
        assert update.sigma_post <= sig_i + 1e-12

    def test_degenerate_precision_raises(self):
        focal = belief(0.0, 1.0)
        with pytest.raises(DegenerateUpdateError):
            engine.period_update(focal, [GameTerm(0.0, 2.0, 1.0)])

    def test_win_moves_mean_up_loss_down(self):
        focal = belief(1.0, 0.5)
        opp = belief(1.0, 0.5, "o")
        win = engine.period_update(focal, [engine.game_term(focal, opp, 1.0, 1, H2, CFG)])
        loss = engine.period_update(focal, [engine.game_term(focal, opp, 0.0, 1, H2, CFG)])
        assert win.mu_post > 1.0 > loss.mu_post


class TestAdvanceTime:
    def test_below_cap_adds_innovation(self):
        prior = engine.advance_time(belief(0.0, 0.3), H2, CFG)
        assert prior.sigma == math.sqrt(0.3**2 + H2.tau**2)

    def test_at_or_above_cap_carries_forward(self):
        for sigma in (0.691, 0.75, 2.0):
            prior = engine.advance_time(belief(0.0, sigma), H2, CFG)
            assert prior.sigma == sigma

    def test_mean_never_changes(self):
        prior = engine.advance_time(belief(1.23, 0.3), H2, CFG)
        assert prior.mu == 1.23

    def test_growth_can_cross_cap_once(self):
        # 0.69 is below the cap so it grows, possibly past the cap; the next
        # advance then freezes it.
        once = engine.advance_time(belief(0.0, 0.690), H2, CFG)
        assert once.sigma > 0.691
        twice = engine.advance_time(once, H2, CFG)
        assert twice.sigma == once.sigma


def _games(*rows):
    return [GameRecord(1, w, b, y) for w, b, y in rows]


class TestRunPeriod:
    def test_debut_players_get_default_prior(self):
        result = engine.run_period({}, _games(("a", "b", 1.0)), H2, CFG)
        update = {u.player_id: u for u in result.updates}
        assert update["a"].mu_prior == pytest.approx(model.elo_to_latent(1800.0))
        assert update["a"].sigma_prior == pytest.approx(
            model.elo_sd_to_latent(250.0)
        )

    def test_matches_scalar_composition(self):
        """The vectorized period path equals per-player game_term sums."""
        state = {
            "a": belief(0.2, 0.5, "a"),
            "b": belief(1.0, 0.7, "b"),
            "c": belief(-0.4, 1.1, "c"),
        }
        games = _games(("a", "b", 1.0), ("c", "a", 0.5), ("b", "c", 0.0))
        result = engine.run_period(state, games, H2, CFG)
        updates = {u.player_id: u for u in result.updates}

        directed = {
            "a": [(state["b"], 1.0, 1), (state["c"], 0.5, -1)],
            "b": [(state["a"], 0.0, -1), (state["c"], 0.0, 1)],
            "c": [(state["a"], 0.5, 1), (state["b"], 1.0, -1)],
        }
        for pid, rows in directed.items():
            terms = [
                engine.game_term(state[pid], opp, y, color, H2, CFG)
                for opp, y, color in rows
            ]
            expected = engine.period_update(state[pid], terms)
            assert updates[pid].mu_post == pytest.approx(expected.mu_post, abs=1e-12)
            assert updates[pid].sigma_post == pytest.approx(
                expected.sigma_post, abs=1e-12
            )

    def test_updates_read_prior_beliefs_only(self):
        """Player a's update ignores games played between other players."""
        state = {
            "a": belief(0.0, 0.5, "a"),
            "b": belief(0.5, 0.5, "b"),
            "c": belief(1.0, 0.5, "c"),
        }
        only = engine.run_period(state, _games(("a", "b", 1.0)), H2, CFG)
        extra = engine.run_period(
            state, _games(("a", "b", 1.0), ("b", "c", 1.0), ("c", "b", 0.0)), H2, CFG
        )
        a_only = next(u for u in only.updates if u.player_id == "a")
        a_extra = next(u for u in extra.updates if u.player_id == "a")
        assert a_extra.mu_post == a_only.mu_post
        assert a_extra.sigma_post == a_only.sigma_post

    def test_permutation_invariance_bit_identical(self):
        rng = np.random.default_rng(7)
        state = {
            f"p{i}": belief(rng.normal(), 0.3 + rng.random(), f"p{i}")
            for i in range(12)
        }
        games = [
            GameRecord(1, f"p{i}", f"p{j}", y)
            for i, j, y in zip(
                rng.integers(0, 12, 60), rng.integers(0, 12, 60),
                rng.choice([1.0, 0.5, 0.0], 60),
            )
            if i != j
        ]
        base = engine.run_period(state, games, H2, CFG)
        shuffled = list(games)
        rng.shuffle(shuffled)
        again = engine.run_period(state, shuffled, H2, CFG)
        for pid in state:
            assert again.state[pid].mu == base.state[pid].mu
            assert again.state[pid].sigma == base.state[pid].sigma

    def test_inactive_players_keep_mean_but_age(self):
        state = {"idle": belief(0.7, 0.3, "idle"), "a": belief(0, 0.5, "a"),
                 "b": belief(0, 0.5, "b")}
        result = engine.run_period(state, _games(("a", "b", 0.5)), H2, CFG)
        idle = result.state["idle"]
        assert idle.mu == 0.7
        assert idle.sigma == math.sqrt(0.3**2 + H2.tau**2)
        update = next(u for u in result.updates if u.player_id == "idle")
        assert update.games_count == 0
        assert update.mu_post == update.mu_prior

    def test_rejects_invalid_games(self):
        state = {"a": belief(0, 0.5, "a"), "b": belief(0, 0.5, "b")}
        games = [
            GameRecord(1, "a", "a", 1.0),
            GameRecord(1, "a", "b", 0.7),
            GameRecord(1, "a", "b", 1.0),
        ]
        result = engine.run_period(state, games, H2, CFG)
        assert len(result.rejected) == 2
        assert {line for line, _ in result.rejected} == {0, 1}
        assert next(u for u in result.updates if u.player_id == "a").games_count == 1

    def test_empty_period_ages_everyone(self):
        state = {"a": belief(0.1, 0.2, "a")}
        result = engine.run_period(state, [], H2, CFG)
        assert result.state["a"].sigma == math.sqrt(0.2**2 + H2.tau**2)
        assert result.updates[0].games_count == 0

    def test_vector_advance_is_bit_equal_to_advance_time(self):
        """The array advance rounds exactly as the scalar x**2 of advance_time."""
        sigma = np.random.default_rng(3).uniform(0.01, 0.69, 100_000)
        sigma[:3] = CFG.sigma_cap, 0.8, 0.690
        advanced = sigma.copy()
        engine.filter_period(
            engine._compile_period([], {}), np.array([f"p{k}" for k in range(sigma.size)]),
            np.zeros(sigma.size), advanced, np.ones(sigma.size, dtype=bool), H2, CFG,
        )
        expected = [engine.advance_time(belief(0.0, s), H2, CFG).sigma for s in sigma.tolist()]
        assert advanced.tolist() == expected

    def test_original_state_not_mutated(self):
        state = {"a": belief(0, 0.5, "a"), "b": belief(0, 0.5, "b")}
        engine.run_period(state, _games(("a", "b", 1.0)), H2, CFG)
        assert state["a"].sigma == 0.5
        assert "c" not in state
