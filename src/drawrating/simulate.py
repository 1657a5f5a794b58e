"""Synthetic league generation from the generative model.

Strength trajectories follow the same random walk the engine assumes, and
game outcomes are sampled from the outcome model at the true strengths.
Everything is a pure function of (config, hyperparameters, seed), which is
what makes parameter-recovery and calibration experiments reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, hyperopt, model
from .engine import EngineConfig
from .model import Hyperparameters
from .store import GameRecord, initialize_priors

#: Maximum latent-strength gap for rating-banded pairing.
BAND_WIDTH = 1.0


@dataclass(frozen=True)
class LeagueConfig:
    players: int
    periods: int
    games_per_period: int
    pairing: str = "rating-banded"  # or "uniform-random"
    initial_mean: float = 0.0
    initial_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.players < 2:
            raise ValueError(f"need at least 2 players, got {self.players}")
        if self.periods < 1 or self.games_per_period < 1:
            raise ValueError("periods and games_per_period must be positive")
        if self.pairing not in ("rating-banded", "uniform-random"):
            raise ValueError(f"unknown pairing policy {self.pairing!r}")
        if not (math.isfinite(self.initial_mean) and math.isfinite(self.initial_sd)
                and self.initial_sd >= 0):
            raise ValueError("initial mean must be finite and initial sd finite and "
                             f">= 0, got {self.initial_mean!r} and {self.initial_sd!r}")


@dataclass
class SimulatedLeague:
    config: LeagueConfig
    true_strengths: np.ndarray  # (players, periods)
    games: list


@dataclass
class RecoveryReport:
    true_h: Hyperparameters
    recovered: Hyperparameters
    objective: float
    converged: bool
    tracking_mae: list  # per-period mean |posterior mean - true strength|


def player_name(i: int) -> str:
    return f"p{i:05d}"


def _streams(seed: int):
    strengths_ss, games_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(strengths_ss), np.random.default_rng(games_ss)


def simulate_strengths(cfg: LeagueConfig, h: Hyperparameters) -> np.ndarray:
    """Latent strengths per player and period under the random walk."""
    rng, _ = _streams(cfg.seed)
    theta = np.empty((cfg.players, cfg.periods))
    theta[:, 0] = rng.normal(cfg.initial_mean, cfg.initial_sd, cfg.players)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for t in range(1, cfg.periods):
            theta[:, t] = theta[:, t - 1] + rng.normal(0.0, h.tau, cfg.players)
    if not np.isfinite(theta).all():
        raise ValueError("simulated strengths overflow: the initial mean, initial sd "
                         "or tau is too large")
    return theta


def _pair_players(theta_t: np.ndarray, n_games: int, pairing: str, rng) -> np.ndarray:
    """Return an (n_games, 2) array of distinct player indices."""
    n = len(theta_t)
    first = rng.integers(n, size=n_games)
    if pairing == "uniform-random":
        shift = rng.integers(1, n, size=n_games)
        return np.column_stack([first, (first + shift) % n])
    # rating-banded: opponent drawn among players within BAND_WIDTH, falling
    # back to the nearest neighbor when a player is isolated
    order = np.argsort(theta_t, kind="stable")
    sorted_theta = theta_t[order]
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    lo = np.searchsorted(sorted_theta, theta_t[first] - BAND_WIDTH, side="left")
    hi = np.searchsorted(sorted_theta, theta_t[first] + BAND_WIDTH, side="right")
    picks = []
    for low, high, r in zip(lo.tolist(), hi.tolist(), rank[first].tolist()):
        if high - low > 1:
            # the candidates are the band's ranks without the player's own
            pick = low + int(rng.integers(high - low - 1))
            picks.append(pick + (pick >= r))
        else:
            picks.append(r - 1 if r > 0 else r + 1)
    return np.column_stack([first, order[np.array(picks, dtype=int)]])


def simulate_games(
    strengths: np.ndarray, cfg: LeagueConfig, h: Hyperparameters
) -> list[GameRecord]:
    """Sample one league's games from the outcome model at true strengths."""
    if strengths.shape != (cfg.players, cfg.periods):
        raise ValueError(
            f"strengths shape {strengths.shape} does not match config "
            f"({cfg.players}, {cfg.periods})"
        )
    _, rng = _streams(cfg.seed)
    games = []
    # one id string per player and one float per outcome, shared by every record
    names = [player_name(i) for i in range(cfg.players)]
    outcomes = (model.WIN, model.DRAW, model.LOSS)
    for t in range(cfg.periods):
        period = t + 1
        theta_t = strengths[:, t]
        pairs = _pair_players(theta_t, cfg.games_per_period, cfg.pairing, rng)
        swap = rng.random(cfg.games_per_period) < 0.5
        white = np.where(swap, pairs[:, 1], pairs[:, 0])
        black = np.where(swap, pairs[:, 0], pairs[:, 1])
        p = model.probability_array(theta_t[white], theta_t[black], 1.0, h)
        bad = np.flatnonzero(~np.isfinite(p).all(axis=1))
        if bad.size:
            raise ValueError(f"period {period}: non-finite outcome probabilities "
                             f"{p[bad[0]].tolist()}")
        u = rng.random(cfg.games_per_period)
        sampled = (u[:, None] < p.cumsum(axis=1)).argmax(axis=1)
        games.extend(
            GameRecord(period, names[w], names[b], outcomes[o])
            for w, b, o in zip(white.tolist(), black.tolist(), sampled.tolist())
        )
    return games


def simulate_league(cfg: LeagueConfig, h: Hyperparameters) -> SimulatedLeague:
    strengths = simulate_strengths(cfg, h)
    return SimulatedLeague(cfg, strengths, simulate_games(strengths, cfg, h))


def initial_ratings(league: SimulatedLeague) -> list[tuple[str, float]]:
    """Elo-scale ratings of the first-period strengths, with normal noise of
    sd 100 Elo drawn from the league's seed plus one.

    Stands in for the pre-existing rating list a real federation would seed
    the engine with.
    """
    cfg = league.config
    rng = np.random.default_rng(cfg.seed + 1)
    elo = model.ELO_CENTER + model.ELO_SCALE * league.true_strengths[:, 0]
    elo = elo + rng.normal(0.0, 100.0, cfg.players)
    return [(player_name(i), float(elo[i])) for i in range(cfg.players)]


def recovery_experiment(
    cfg: LeagueConfig,
    true_h: Hyperparameters,
    engine_cfg: EngineConfig,
    train_until: int,
    starts: list[Hyperparameters] | None = None,
) -> RecoveryReport:
    """Simulate a league under known hyperparameters and fit them back.

    Also tracks, per period, the mean absolute error between the filter's
    posterior means (run at the *true* hyperparameters) and the true
    strengths.
    """
    league = simulate_league(cfg, true_h)
    state = initialize_priors(initial_ratings(league), engine_cfg)
    history = engine.compile_history(league.games, state, engine_cfg)
    mu, sigma, tracked = history.mu.copy(), history.sigma.copy(), history.source >= 0
    truth = league.true_strengths[[int(pid[1:]) for pid in history.ids]]
    tracking = []
    for number, period in zip(history.numbers, history.periods):
        engine.filter_period(period, history.ids, mu, sigma, tracked, true_h, engine_cfg)
        tracking.append(float(np.mean(np.abs(mu[tracked] - truth[tracked, number - 1]))))

    fit = hyperopt.optimize(
        league.games,
        engine_cfg,
        train_until,
        starts=starts,
        fix_alpha=True,
        initial_state=state,
    )
    return RecoveryReport(true_h, fit.best, fit.objective, fit.converged, tracking)
