"""High-accuracy single-game posterior via Gauss-Hermite quadrature.

This is the ground-truth path used to validate the fast closed-form update:
the exact posterior mean and variance of the focal player's strength after
one game are ratios of two-dimensional Gaussian-weighted integrals, which an
R-point tensor rule evaluates essentially exactly.  It is deliberately not a
production update path.  ``posterior_moments`` evaluates many games in one
array pass; ``oracle_posterior`` is its one-game call, and
``compare_updates`` runs the fast update and the oracle over all games at
once.
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


def posterior_moments(focal_mu, focal_sigma, opp_mu, opp_sigma, outcome, color,
                      h: Hyperparameters, order: int):
    """Posterior mean and second moment of the focal strength, one game per element.

    Takes 1-D arrays; ``outcome`` is the observed outcome's index from the
    focal player's side (0 win, 1 draw, 2 loss).
    Each game's (order, order) tensor grid, focal player on the first axis,
    is kept in log space so extreme nodes cannot overflow.  A game whose
    realized outcome has zero probability at every node pair gets a NaN
    mean.  Games run in ``engine.chunks`` of the (5, order, order) grid
    cells each takes, with their temporaries in the blocks of one workspace.
    """
    rule = gh_rule(order)
    logw = np.log(rule.weights)
    log_w2 = logw[:, None] + logw[None, :]
    mean, second = np.empty(len(focal_mu)), np.empty(len(focal_mu))
    work = engine.Workspace()
    for part in engine.chunks(len(focal_mu), 5 * order * order):
        width = part.stop - part.start
        shape = (width, order, order)
        # rows of the grid: 0-4 the log-probability block; then 4 the
        # observed log terms, then their exponentials
        grid = work.block("grid", (5, *shape))
        theta_i, theta_j, weights, product = work.block("nodes", (4, width, order))
        shift, total = work.block("games", (2, width))
        # mu + (sqrt(2) sigma) node, for the focal player and the opponent
        for theta, mu, sigma in ((theta_i, focal_mu, focal_sigma), (theta_j, opp_mu, opp_sigma)):
            np.multiply(math.sqrt(2.0), sigma[part, None], out=theta)
            np.multiply(theta, rule.nodes, out=theta)
            np.add(mu[part, None], theta, out=theta)
        # the strengths are copied across the grid into rows 0 and 2, where the
        # kernel reads them, which takes no broadcast buffer as a ufunc would
        np.copyto(grid[0], theta_i[:, :, None])
        np.copyto(grid[2], theta_j[:, None, :])
        columns = model.log_probability_columns(grid[0], grid[2], color[part, None, None], h, grid)
        # each game's observed (order, order) grid is one row of the stacked
        # (3 * width, order**2) block, so the index has one entry per game
        index = model.observed_index(outcome[part], work.positions((width,)))
        # the indices are in range by construction: "wrap" writes straight to out
        log_terms = columns.reshape(3 * width, order * order).take(
            index, axis=0, out=grid[4].reshape(width, order * order), mode="wrap"
        ).reshape(shape)
        np.add(log_w2, log_terms, out=log_terms)
        log_terms.max(axis=(1, 2), out=shift)
        with np.errstate(invalid="ignore"):  # a non-finite shift gives NaN moments
            terms = np.subtract(log_terms, shift[:, None, None], out=log_terms)
            np.exp(terms, out=terms)
            terms.sum(axis=2, out=weights)
            weights.sum(axis=1, out=total)
            np.multiply(weights, theta_i, out=product)
            product.sum(axis=1, out=mean[part])
            np.divide(mean[part], total, out=mean[part])
            np.multiply(weights, np.square(theta_i, out=product), out=product)
            product.sum(axis=1, out=second[part])
            np.divide(second[part], total, out=second[part])
        mean[part][~np.isfinite(shift)] = np.nan
    return mean, second


def _check_order(order: int) -> None:
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")


def oracle_posterior(
    focal: PlayerBelief,
    opponent: PlayerBelief,
    outcome: float,
    color: int,
    h: Hyperparameters,
    order: int = 9,
) -> OraclePosterior:
    """Posterior mean and variance of the focal strength after one game.

    The one-game call of ``posterior_moments``, refusing degenerate evidence.
    """
    _check_order(order)
    mean, second = posterior_moments(
        *(np.array([v], dtype=float) for v in
          (focal.mu, focal.sigma, opponent.mu, opponent.sigma)),
        np.array([model.outcome_index(outcome)], dtype=np.intp), np.array([color], dtype=float),
        h, order,
    )
    mean, second = float(mean[0]), float(second[0])
    if math.isnan(mean):
        raise DegenerateEvidenceError(
            "realized outcome has zero probability at every node pair"
        )
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

    def to_delimited(self) -> str:
        out = io.StringIO()
        out.write(",".join(self.COLUMNS) + "\n")
        for r in self.rows:
            out.write(",".join([
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


#: ``math.log`` of each element; ``np.log`` differs from it in the last bit
_log = np.vectorize(math.log, otypes=[float])


def _outcome_index_or_none(outcome):
    try:
        return model.outcome_index(outcome)
    except ValueError:
        return None


def compare_updates(
    games: list,
    h: Hyperparameters,
    cfg: EngineConfig,
    order: int = 9,
    stratify: bool = False,
) -> ComparisonReport:
    """Compare fast single-game updates against the quadrature oracle.

    ``games`` holds (focal, opponent, outcome, color) tuples.  A game is
    excluded and counted, not fatal, where its outcome is invalid, a sigma
    is not positive, the observed outcome has zero probability, the Newton
    precision is not finite and positive, or the oracle mean is NaN, its
    square overflows or the variance is not positive.  With ``stratify`` the
    report additionally splits by outcome type and focal prior-mean terciles.
    """
    if not games:
        raise ValueError("game list must be nonempty")
    _check_order(order)
    focal, opponent, outcome, color = zip(*games)
    index = [_outcome_index_or_none(y) for y in outcome]
    observed = np.array([k or 0 for k in index], dtype=np.intp)  # a stand-in win where invalid
    focal_mu, focal_sigma, opp_mu, opp_sigma = (
        np.array([getattr(b, field) for b in beliefs])
        for beliefs, field in ((focal, "mu"), (focal, "sigma"),
                               (opponent, "mu"), (opponent, "sigma"))
    )
    color = np.array(color, dtype=float)
    d1, d2, p_obs = np.empty((3, len(games)))
    work = engine.Workspace()
    # each game's terms are computed alone, as in engine.filter_period
    for part in engine.chunks(len(games), 10):
        d1[part], d2[part], p_obs[part] = engine._delta_arrays(
            focal_mu[part], opp_mu[part], opp_sigma[part], observed[part], color[part], h,
            cfg.draw_score_override, work,
        )
    mean, second = posterior_moments(
        focal_mu, focal_sigma, opp_mu, opp_sigma, observed, color, h, order
    )
    # float_power calls libm pow per element, as Python's float ** does (np.power
    # differs in the last bit); where ** would overflow, the game is excluded
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        precision = np.float_power(focal_sigma, -2.0) - d2  # as engine._newton_step
        squared = np.float_power(mean, 2.0)
        variance = second - squared  # a NaN variance is kept
        keep = (np.array([k is not None for k in index]) & (focal_sigma > 0) & (opp_sigma > 0)
                & (p_obs > 0) & np.isfinite(precision) & (precision > 0) & ~np.isnan(mean)
                & (np.isfinite(squared) | np.isinf(mean)) & ~(variance <= 0))
    mus, precision = focal_mu[keep], precision[keep]
    log_sigma = _log(focal_sigma[keep])
    approx_dmu = (mus + d1[keep] / precision) - mus
    oracle_dmu = mean[keep] - mus
    approx_dlogsd = _log(np.float_power(precision, -0.5)) - log_sigma
    oracle_dlogsd = 0.5 * _log(variance[keep]) - log_sigma
    draws = observed[keep] == 1

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
    return ComparisonReport([r for r in rows if r is not None], len(games) - int(keep.sum()))
