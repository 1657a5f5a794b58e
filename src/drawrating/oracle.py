"""High-accuracy single-game posterior via Gauss-Hermite quadrature.

This is the ground-truth path used to validate the fast closed-form update:
the exact posterior mean and variance of the focal player's strength after
one game are ratios of two-dimensional Gaussian-weighted integrals, which an
R-point tensor rule evaluates essentially exactly.  It is deliberately not a
production update path.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from . import engine, model
from .engine import EngineConfig, PlayerBelief
from .model import Hyperparameters

MAX_ORDER = 50


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for the weight function exp(-z^2)."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class OraclePosterior:
    mean: float
    variance: float


class DegenerateEvidenceError(ArithmeticError):
    """The realized outcome has zero probability at every quadrature node."""


@functools.cache
def gh_rule(order: int) -> QuadratureRule:
    """Gauss-Hermite rule of the given order (1..50), computed once per order.

    Nodes and weights come from the eigen-decomposition of the Jacobi matrix
    (numpy's Hermite module), so any supported order is available without tables.
    The cached arrays are shared by every caller, so they are read-only.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(order, nodes, weights)


def _log_joint(focal, opponent, outcome, color, h, order):
    """Log integrand on the tensor grid, plus focal node locations.

    Returns (log weights + log outcome probability) as an (order, order)
    array with the focal player on the first axis, and the focal node
    values.  Everything is kept in log space so extreme nodes cannot
    overflow.
    """
    rule = gh_rule(order)
    theta_i = focal.mu + math.sqrt(2.0) * focal.sigma * rule.nodes
    theta_j = opponent.mu + math.sqrt(2.0) * opponent.sigma * rule.nodes
    logp = model.log_probability_columns(
        theta_i[:, None], theta_j[None, :], color, h
    )[model.outcome_index(outcome)]
    logw = np.log(rule.weights)
    return logw[:, None] + logw[None, :] + logp, theta_i


def oracle_posterior(
    focal: PlayerBelief,
    opponent: PlayerBelief,
    outcome: float,
    color: int,
    h: Hyperparameters,
    order: int = 9,
) -> OraclePosterior:
    """Posterior mean and variance of the focal strength after one game."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    log_terms, theta_i = _log_joint(focal, opponent, outcome, color, h, order)
    shift = log_terms.max()
    if not np.isfinite(shift):
        raise DegenerateEvidenceError(
            "realized outcome has zero probability at every node pair"
        )
    weights = np.exp(log_terms - shift).sum(axis=1)
    total = weights.sum()
    mean = float((weights * theta_i).sum() / total)
    second = float((weights * theta_i**2).sum() / total)
    variance = second - mean**2
    if variance <= 0:
        raise DegenerateEvidenceError(f"non-positive posterior variance {variance}")
    return OraclePosterior(mean, variance)


@dataclass(frozen=True)
class ComparisonRow:
    """One stratum of the approximate-vs-oracle update comparison."""

    label: str
    n: int
    mean_abs_approx: float
    mean_abs_oracle: float
    r2_mean: float
    mean_abs_diff: float
    r2_log_sd: float


@dataclass
class ComparisonReport:
    rows: list
    excluded: int

    COLUMNS = (
        "subset", "n", "mean_abs_approx", "mean_abs_oracle",
        "r2_mean", "mean_abs_diff", "r2_log_sd",
    )

    def to_delimited(self, sep: str = ",") -> str:
        out = io.StringIO()
        out.write(sep.join(self.COLUMNS) + "\n")
        for r in self.rows:
            out.write(sep.join([
                r.label, str(r.n),
                repr(r.mean_abs_approx), repr(r.mean_abs_oracle),
                repr(r.r2_mean), repr(r.mean_abs_diff), repr(r.r2_log_sd),
            ]) + "\n")
        return out.getvalue()


def _r2_identity(approx: np.ndarray, reference: np.ndarray) -> float:
    """R^2 of approx against reference relative to the line y = x."""
    resid = np.sum((approx - reference) ** 2)
    total = np.sum((approx - approx.mean()) ** 2)
    if total == 0:
        return 1.0 if resid == 0 else 0.0
    return float(1.0 - resid / total)


def _summarize(label, approx_dmu, oracle_dmu, approx_dlogsd, oracle_dlogsd):
    return ComparisonRow(
        label=label,
        n=len(approx_dmu),
        mean_abs_approx=float(np.mean(np.abs(approx_dmu))),
        mean_abs_oracle=float(np.mean(np.abs(oracle_dmu))),
        r2_mean=_r2_identity(approx_dmu, oracle_dmu),
        mean_abs_diff=float(np.mean(np.abs(approx_dmu - oracle_dmu))),
        r2_log_sd=_r2_identity(approx_dlogsd, oracle_dlogsd),
    )


def compare_updates(
    games: list,
    h: Hyperparameters,
    cfg: EngineConfig,
    order: int = 9,
    stratify: bool = False,
) -> ComparisonReport:
    """Compare fast single-game updates against the quadrature oracle.

    ``games`` holds (focal, opponent, outcome, color) tuples.  Per-game
    failures are excluded and counted rather than aborting the run.  With
    ``stratify`` the report additionally splits by outcome type and focal
    prior-mean terciles.
    """
    if not games:
        raise ValueError("game list must be nonempty")
    approx_dmu, oracle_dmu = [], []
    approx_dlogsd, oracle_dlogsd = [], []
    mus, draws = [], []
    excluded = 0
    for focal, opponent, outcome, color in games:
        try:
            term = engine.game_term(focal, opponent, outcome, color, h, cfg)
            update = engine.period_update(focal, [term])
            exact = oracle_posterior(focal, opponent, outcome, color, h, order)
        except (ArithmeticError, ValueError):
            excluded += 1
            continue
        approx_dmu.append(update.mu_post - focal.mu)
        oracle_dmu.append(exact.mean - focal.mu)
        approx_dlogsd.append(math.log(update.sigma_post) - math.log(focal.sigma))
        oracle_dlogsd.append(0.5 * math.log(exact.variance) - math.log(focal.sigma))
        mus.append(focal.mu)
        draws.append(float(outcome) == model.DRAW)

    approx_dmu = np.array(approx_dmu)
    oracle_dmu = np.array(oracle_dmu)
    approx_dlogsd = np.array(approx_dlogsd)
    oracle_dlogsd = np.array(oracle_dlogsd)
    mus = np.array(mus)
    draws = np.array(draws, dtype=bool)

    def select(label, mask):
        if not np.any(mask):
            return None
        return _summarize(
            label, approx_dmu[mask], oracle_dmu[mask],
            approx_dlogsd[mask], oracle_dlogsd[mask],
        )

    rows = [select("all", np.ones(len(approx_dmu), dtype=bool))]
    if stratify and len(mus):
        lo, hi = np.quantile(mus, [1 / 3, 2 / 3])
        strata = [
            ("decisive", ~draws),
            ("drawn", draws),
            (f"mu<={lo:.2f}", mus <= lo),
            (f"{lo:.2f}<mu<={hi:.2f}", (mus > lo) & (mus <= hi)),
            (f"mu>{hi:.2f}", mus > hi),
        ]
        rows.extend(select(label, mask) for label, mask in strata)
    return ComparisonReport([r for r in rows if r is not None], excluded)
