"""Hyperparameter selection by one-step-ahead predictive likelihood.

The engine is run through a training span, then each later period is scored
*before* its games are folded in: the probability of every observed outcome
is integrated over both players' current priors (3-point tensor quadrature),
summed in log, and only then does the period update the state.  The total
over all validation periods is maximized with Nelder-Mead from several
starting points, with tau searched on the log scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import engine, model, oracle
from .engine import EngineConfig, games_by_period
from .model import Hyperparameters

#: Simplex stops when the objective spread falls below this.
SPREAD_TOL = 1e-6
#: Hard budget of objective evaluations per start.
MAX_EVALUATIONS = 2000


@dataclass(frozen=True)
class PredictiveEvaluation:
    per_period_loglik: tuple
    total: float
    games_evaluated: int


@dataclass(frozen=True)
class OptimizationStart:
    initial: Hyperparameters
    converged: Hyperparameters
    objective: float


@dataclass
class OptimizationResult:
    best: Hyperparameters
    objective: float
    starts: list
    evaluations: int
    converged: bool = True


@dataclass
class TraceRecorder:
    """Collects (evaluation index, parameters, objective) audit rows."""

    rows: list = field(default_factory=list)

    def record(self, h: Hyperparameters, objective: float):
        self.rows.append((len(self.rows), h, objective))

    def to_delimited(self) -> str:
        lines = ["evaluation,alpha0,alpha1,beta0,beta1,tau,objective"]
        for i, h, obj in self.rows:
            lines.append(",".join([
                str(i), repr(h.alpha0), repr(h.alpha1),
                repr(h.beta0), repr(h.beta1), repr(h.tau), repr(obj),
            ]))
        return "\n".join(lines) + "\n"


def _node_grid(white_mu, white_sigma, black_mu, black_sigma, h: Hyperparameters, order: int,
               kernel=model.log_probability_columns):
    """Log outcome columns (win, draw, loss) of n games on the quadrature grid.

    The belief-integrated outcome probability sums these columns, exponentiated
    and times the returned node-pair weights, over both players' nodes.  The
    nodes lead the layout, (order, order, n), so the node pairs are its rows.
    ``kernel`` forms the columns, as ``model.log_probability_columns`` does.
    """
    rule = oracle.gh_rule(order)
    nodes, weights = rule.nodes, rule.weights / math.sqrt(math.pi)
    theta_w = white_mu + math.sqrt(2.0) * white_sigma * nodes[:, None, None]
    theta_b = black_mu + math.sqrt(2.0) * black_sigma * nodes[None, :, None]
    w2 = weights[:, None, None] * weights[None, :, None]
    return kernel(theta_w, theta_b, 1.0, h), w2


def _pair_sum(terms: np.ndarray, order: int, width: int) -> np.ndarray:
    """Sum of weighted (order, order, width) terms over the node pairs: (width,).

    The pairs are added one at a time in C order, as numpy sums the node
    axes of a stacked (..., order, order, 3) grid, so every form agrees to
    the bit; numpy's own reduction over a leading axis would sum a single
    game pairwise.  ``width`` is passed in rather than inferred, so an
    input of no games still reshapes.
    """
    return functools.reduce(np.add, terms.reshape(order * order, width))


def predictive_probability_array(
    white_mu, white_sigma, black_mu, black_sigma, h: Hyperparameters, order: int = 3
) -> np.ndarray:
    """Belief-integrated outcome probabilities, (win, draw, loss) last axis.

    Integrates the outcome model over both players' independent normal
    beliefs using an order^2 tensor grid; broadcasts over leading axes.
    The broadcast games are integrated in ``engine.chunks`` of ``order**2``
    node pairs each, so memory stays bounded at any size and order.
    """
    beliefs = np.broadcast_arrays(*(
        np.asarray(x, dtype=float) for x in (white_mu, white_sigma, black_mu, black_sigma)
    ))
    shape, n = beliefs[0].shape, beliefs[0].size
    beliefs = [b.reshape(n) for b in beliefs]
    out = np.empty((n, 3))
    for part in engine.chunks(n, order * order):
        width = part.stop - part.start
        columns, w2 = _node_grid(*(b[part] for b in beliefs), h, order)
        terms = np.exp(np.concatenate(columns, axis=-1)) * w2
        out[part] = _pair_sum(terms, order, 3 * width).reshape(3, width).T
    return out.reshape(*shape, 3)


def _observed_probability(
    white_mu, white_sigma, black_mu, black_sigma, white_won, drawn, h: Hyperparameters,
    order: int,
) -> np.ndarray:
    """Belief-integrated probability of each game's observed outcome.

    The scoring form of ``predictive_probability_array``: only the observed
    outcome's shifted logit, picked by the masks ``white_won`` and ``drawn``,
    is normalised and exponentiated, in ``engine.chunks`` of ``order**2`` node
    pairs per game.
    """
    p = np.empty(len(white_won))
    for part in engine.chunks(len(white_won), order * order):
        beliefs = (x[part] for x in (white_mu, white_sigma, black_mu, black_sigma))
        (logits, log_total), w2 = _node_grid(*beliefs, h, order, model.shifted_logit_columns)
        # in place, the logits freed: no temporary outlives its chunk, and the
        # heap is not grown and trimmed at every call
        terms = model.observed_column(white_won[part], drawn[part], logits)
        terms -= log_total
        del logits, log_total
        np.exp(terms, out=terms)
        terms *= w2
        p[part] = _pair_sum(terms, order, part.stop - part.start)
    return p


def evaluate_hyperparameters(
    games: list | engine.CompiledHistory,
    h: Hyperparameters,
    cfg: EngineConfig,
    train_until: int,
    initial_state: dict | None = None,
    order: int = 3,
) -> PredictiveEvaluation:
    """Cumulative one-step-ahead predictive log-likelihood.

    Runs the filter over periods 1..train_until, then alternates scoring a
    period's games against the current priors with folding them in, exactly
    once per validation period; the last period is scored only, since
    nothing reads the beliefs after it.  Future outcomes are never read
    before their period is scored.  ``games`` is a game list or a history
    compiled by ``engine.compile_history``, which already holds the initial
    state.
    """
    if isinstance(games, engine.CompiledHistory):
        if initial_state is not None:
            raise ValueError("a compiled history already holds its initial state")
        if games.cfg != cfg:
            raise ValueError("the history was compiled under another EngineConfig")
        history = games
    else:
        history = engine.compile_history(games, initial_state, cfg)
    last = len(history.periods)
    if train_until >= last:
        raise ValueError(
            f"train_until ({train_until}) must precede the last period ({last})"
        )
    mu, sigma, tracked = history.mu.copy(), history.sigma.copy(), history.tracked.copy()
    per_period = []
    evaluated = 0
    for number, period in enumerate(history.periods, start=1):
        if number > train_until:
            n = len(period.white)
            loglik = 0.0
            if n:
                white, black = period.white, period.black
                p = _observed_probability(
                    mu[white], sigma[white], mu[black], sigma[black], period.white_won,
                    period.drawn, h, order,
                )
                with np.errstate(divide="ignore"):  # an underflown outcome scores -inf
                    loglik = float(np.log(p).sum())
            per_period.append(loglik)
            evaluated += n
        if number < last:
            engine.filter_period(period, history.ids, mu, sigma, tracked, h, cfg)
    return PredictiveEvaluation(tuple(per_period), math.fsum(per_period), evaluated)


def default_starts() -> list[Hyperparameters]:
    """Three standard starting points spanning low and high draw slopes."""
    return [
        Hyperparameters(beta0=0.35338, beta1=0.57041, tau=0.46040),
        Hyperparameters(beta0=1.09861, beta1=0.17037, tau=0.14391),
        Hyperparameters(beta0=0.0, beta1=0.0, tau=0.2),
    ]


def _to_vector(h: Hyperparameters, fix_alpha: bool) -> np.ndarray:
    core = [h.beta0, h.beta1, math.log(max(h.tau, 1e-8))]
    if fix_alpha:
        return np.array(core)
    return np.array([h.alpha0, h.alpha1] + core)


def _from_vector(v: np.ndarray, fix_alpha: bool) -> Hyperparameters:
    if fix_alpha:
        beta0, beta1, log_tau = v
        return Hyperparameters(0.0, 0.0, float(beta0), float(beta1), math.exp(log_tau))
    alpha0, alpha1, beta0, beta1, log_tau = v
    return Hyperparameters(
        float(alpha0), float(alpha1), float(beta0), float(beta1), math.exp(log_tau)
    )


class _DegenerateSimplex(Exception):
    """Every vertex of a start's initial simplex scored -inf."""


def optimize(
    games: list,
    cfg: EngineConfig,
    train_until: int,
    starts: list[Hyperparameters] | None = None,
    fix_alpha: bool = True,
    initial_state: dict | None = None,
    trace: TraceRecorder | None = None,
    objective_fn=None,
) -> OptimizationResult:
    """Maximize predictive log-likelihood with multi-start Nelder-Mead.

    ``objective_fn`` (Hyperparameters -> float, larger is better) replaces
    the predictive evaluation when given; used for testing the search.
    Otherwise the history is compiled once and every evaluation replays it.
    A candidate that raises ``DegenerateUpdateError`` or ``InnovationOverflowError``,
    or whose vector maps to no valid hyperparameters, scores -inf; all count
    as evaluations, and only the first two kinds are traced.  A start whose whole initial simplex
    scores -inf is stopped there and keeps its start point at -inf.
    """
    starts = default_starts() if starts is None else list(starts)
    if not starts:
        raise ValueError("at least one start is required")
    if objective_fn is None:
        history = engine.compile_history(games, initial_state, cfg)

        def objective_fn(h):
            return evaluate_hyperparameters(history, h, cfg, train_until).total

    def negative(v):
        try:
            h = _from_vector(v, fix_alpha)
        except (OverflowError, ValueError):
            # no valid hyperparameters (tau overflows or a value is not
            # finite): as bad as a degenerate candidate, with nothing to trace
            return math.inf
        try:
            value = objective_fn(h)
        except (engine.DegenerateUpdateError, engine.InnovationOverflowError):
            # pathological candidate (probabilities underflow or tau**2 overflows);
            # score it as arbitrarily bad so the simplex backs off instead of aborting
            value = -math.inf
        if trace is not None:
            trace.record(h, value)
        return -value

    def search(start):
        """Nelder-Mead from one start; returns (every value it took, result)."""
        x0 = _to_vector(start, fix_alpha)
        values = []

        def recorded(v):
            # Nelder-Mead's first call is at x0, so values[0] is the start's value
            values.append(negative(v))
            # the first len(x0) + 1 calls are the initial simplex; if all of
            # it scores -inf the search can only shrink it until the budget ends
            if len(values) == len(x0) + 1 and min(values) == math.inf:
                raise _DegenerateSimplex
            return values[-1]

        try:
            # scipy's stopping test subtracts vertex values: inf - inf when
            # every vertex scores -inf
            with np.errstate(invalid="ignore"):
                res = minimize(
                    recorded,
                    x0,
                    method="Nelder-Mead",
                    options={
                        "fatol": SPREAD_TOL,
                        "xatol": 1e-6,
                        "maxfev": MAX_EVALUATIONS,
                    },
                )
        except _DegenerateSimplex:
            return values, OptimizationStart(start, start, -math.inf)
        return values, OptimizationStart(
            start, _from_vector(res.x, fix_alpha), float(-res.fun)
        )

    searched, results = zip(*(search(start) for start in starts))
    start_values = [-values[0] for values in searched]
    evaluations = sum(map(len, searched))
    best = max(results, key=lambda r: r.objective)
    initial_best = max(start_values)
    if best.objective > initial_best:
        return OptimizationResult(
            best.converged, best.objective, list(results), evaluations, converged=True
        )
    # no start improved on its initial point; report the best initial
    best_start = starts[start_values.index(initial_best)]
    return OptimizationResult(
        best_start, initial_best, list(results), evaluations, converged=False
    )
