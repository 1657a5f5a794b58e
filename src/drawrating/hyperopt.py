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
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import engine, model, oracle
from .engine import EngineConfig, games_by_period
from .model import Hyperparameters

#: Simplex stops when the objective spread falls below this.
SPREAD_TOL = 1e-6
#: Hard budget of objective evaluations per start.
MAX_EVALUATIONS = 2000
#: Gauss-Hermite order per player of the predictive score's tensor grid.
SCORE_ORDER = 3


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
        """The rows under an ``evaluation,<hyperparameters>,objective`` header,
        the hyperparameters in field order."""
        lines = [",".join(["evaluation", *(f.name for f in fields(Hyperparameters)),
                           "objective"])]
        for i, h, obj in self.rows:
            lines.append(",".join([str(i), *map(repr, astuple(h)), repr(obj)]))
        return "\n".join(lines) + "\n"


@functools.cache
def _node_columns(order: int):
    """The rule's nodes as an (order, 1) column, and the node-pair weights of
    the normalised rule, (order, order, 1)."""
    rule = oracle.gh_rule(order)
    nodes, weights = rule.nodes, rule.weights / math.sqrt(math.pi)
    w2 = weights[:, None, None] * weights[None, :, None]
    w2.flags.writeable = False
    return nodes[:, None], w2


def _node_rows(order: int, width: int, work: engine.Workspace) -> np.ndarray:
    """A (2, order, width) view for White's and Black's node strengths of
    ``width`` games, in rows 3-4 of the (5, order, order, width) block
    ``"grid"`` of ``work``, which ``_node_grid`` reads before it writes them."""
    grid = work.block("grid", (5, order, order, width))
    return grid[3:].reshape(-1)[:2 * order * width].reshape(2, order, width)


def _node_grid(nodes: np.ndarray, h: Hyperparameters, work: engine.Workspace):
    """``model.shifted_logit_columns`` of n games on the quadrature grid, the
    node pairs leading, (order, order, n): (grid, logits, log total, weights).

    ``nodes`` holds White's and Black's node strengths, (2, order, n), as
    ``_node_rows`` places them.  ``grid`` is the kernel's (5, order, order,
    n) block ``"grid"`` of ``work``, with White's strengths copied across
    Black's nodes into row 0 and Black's across White's into row 2, which
    takes no broadcast buffer as a ufunc would, so that no operand of the
    kernel broadcasts; row 4 is free once the logits are formed.  The
    weights are the pairs' (order, order, 1).
    """
    order, width = nodes.shape[1:]
    grid = work.block("grid", (5, order, order, width))
    np.copyto(grid[0], nodes[0, :, None])
    np.copyto(grid[2], nodes[1, None])
    logits, log_total = model.shifted_logit_columns(grid[0], grid[2], 1.0, h, grid)
    return grid, logits, log_total, _node_columns(order)[1]


def _pair_sum(terms: np.ndarray, order: int, width: int, out: np.ndarray) -> np.ndarray:
    """Sum of weighted (order, order, width) terms over the node pairs, in ``out``.

    The pairs are added one at a time in C order, as numpy sums the node
    axes of a stacked (..., order, order, 3) grid, so every form agrees to
    the bit: ``np.add.reduce`` over the leading axis does so at any width
    but one, where numpy would sum pairwise, so a single game takes a loop.
    """
    rows = terms.reshape(order * order, width)
    if width != 1:
        return np.add.reduce(rows, axis=0, out=out)
    np.copyto(out, rows[0])
    for row in rows[1:]:
        np.add(out, row, out=out)
    return out


def predictive_probability_array(
    white_mu, white_sigma, black_mu, black_sigma, h: Hyperparameters, order: int = 3
) -> np.ndarray:
    """Belief-integrated outcome probabilities, (win, draw, loss) last axis.

    Integrates the outcome model over both players' independent normal
    beliefs using an order^2 tensor grid; broadcasts over leading axes.
    The broadcast games are integrated in ``engine.chunks`` of their
    (5, order, order) grid cells, in one workspace, so memory stays bounded.
    """
    beliefs = np.broadcast_arrays(*(
        np.asarray(x, dtype=float) for x in (white_mu, white_sigma, black_mu, black_sigma)
    ))
    shape, n = beliefs[0].shape, beliefs[0].size
    beliefs = [b.reshape(n) for b in beliefs]
    out = np.empty((n, 3))
    work = engine.Workspace()
    x, _ = _node_columns(order)
    for part in engine.chunks(n, 5 * order * order):
        nodes = _node_rows(order, part.stop - part.start, work)
        # mu + (sqrt(2) sigma) node, for White's nodes and Black's
        for row, mu, sigma in zip(nodes, beliefs[::2], beliefs[1::2]):
            engine.node_strengths(mu[part], sigma[part], x, row, math.sqrt(2.0))
        _, logits, log_total, w2 = _node_grid(nodes, h, work)
        logits -= log_total
        np.exp(logits, out=logits)
        logits *= w2
        for k, column in enumerate(logits):
            _pair_sum(column, order, part.stop - part.start, out=out[part, k])
    return out.reshape(*shape, 3)


def _observed_probability(
    table, white, black, observed, h: Hyperparameters, order: int,
    work: engine.Workspace | None = None,
) -> np.ndarray:
    """Belief-integrated probability of each game's observed outcome.

    The scoring form of ``predictive_probability_array``: each chunk
    gathers its games' node strengths from ``table``, the players'
    (order, players) mu + (sqrt(2) sigma) node, by the White and Black
    player positions ``white`` and ``black``.  Only the observed outcome's
    shifted logit, picked by the outcome index ``observed`` (0 win, 1 draw,
    2 loss, from White's side), is normalised and exponentiated, in
    ``engine.chunks`` of the (5, order, order) grid cells per game.  The
    temporaries are written in ``work`` (a new workspace if not given), and
    so is the result.
    """
    if work is None:
        work = engine.Workspace()
    p = work.block("terms", (len(observed),))
    for part in engine.chunks(len(observed), 5 * order * order):
        width = part.stop - part.start
        nodes = _node_rows(order, width, work)
        # player positions are in range by construction: "wrap" writes straight to out
        table.take(white[part], axis=1, out=nodes[0], mode="wrap")
        table.take(black[part], axis=1, out=nodes[1], mode="wrap")
        grid, logits, log_total, w2 = _node_grid(nodes, h, work)
        # grid row 4: the take index, then the observed terms over it; take
        # reads each index before it writes that element
        index = model.observed_index(observed[part], work.positions((order, order, width)),
                                     grid[4].view(np.intp))
        # the indices are in range by construction: "wrap" writes straight to out
        terms = logits.take(index, out=grid[4], mode="wrap")
        terms -= log_total
        np.exp(terms, out=terms)
        terms *= w2
        _pair_sum(terms, order, width, out=p[part])
    return p


def evaluate_hyperparameters(
    games: list | engine.CompiledHistory,
    h: Hyperparameters,
    cfg: EngineConfig,
    train_until: int,
    initial_state: dict | None = None,
) -> PredictiveEvaluation:
    """Cumulative one-step-ahead predictive log-likelihood.

    Runs the filter over periods 1..train_until, then alternates scoring a
    period's games against the current priors with folding them in, exactly
    once per validation period; the last period is scored only, since
    nothing reads the beliefs after it.  A gap of periods without games
    only advances sigma (``engine.advance_sigma``: a vector step per period
    until sigma settles, at a tiny tau the whole gap), and each validation
    period in it scores 0.0.  Future outcomes are never read before their
    period is scored.  ``games`` is a game list or a history compiled by
    ``engine.compile_history``, which already holds the initial state.
    """
    if isinstance(games, engine.CompiledHistory):
        if initial_state is not None:
            raise ValueError("a compiled history already holds its initial state")
        if games.cfg != cfg:
            raise ValueError("the history was compiled under another EngineConfig")
        history = games
    else:
        history = engine.compile_history(games, initial_state, cfg)
    last = history.numbers[-1] if history.numbers else 0
    if train_until >= last:
        raise ValueError(
            f"train_until ({train_until}) must precede the last period ({last})"
        )
    mu, sigma, tracked = history.mu.copy(), history.sigma.copy(), history.source >= 0
    work = history.work
    per_period, evaluated = [], 0
    for previous, number, period in zip((0, *history.numbers), history.numbers, history.periods):
        engine.advance_sigma(sigma, tracked, h, cfg, number - previous - 1)
        # a 0.0 for each validation period of the gap (none for a negative count)
        per_period += [0.0] * (number - 1 - max(previous, train_until))
        n = len(period.white)
        if number > train_until:
            loglik = 0.0
            if n:
                # mu + (sqrt(2) sigma) node of each of the period's players
                table = engine.node_strengths(
                    *engine.period_priors(period, mu, sigma, work), _node_columns(SCORE_ORDER)[0],
                    work.block("table", (SCORE_ORDER, period.players.size)), math.sqrt(2.0),
                )
                p = _observed_probability(table, period.white, period.black, period.observed,
                                          h, SCORE_ORDER, work)
                with np.errstate(divide="ignore"):  # an underflown outcome scores -inf
                    loglik = float(np.log(p, out=p).sum())
            per_period.append(loglik)
            evaluated += n
        if number < last:
            engine.filter_period(period, history.ids, mu, sigma, tracked, h, cfg, work)
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


class _BudgetSpent(Exception):
    """The search asked for an evaluation past its budget."""


def _nelder_mead(func, x0, xatol: float, fatol: float, maxfev: int):
    """Minimize ``func`` from ``x0`` by Nelder-Mead (Nelder and Mead 1965):
    the best vertex and its value.

    A line-for-line port of the path that ``scipy.optimize.minimize(...,
    method="Nelder-Mead")`` takes in scipy 1.17.1 (``_minimize_neldermead``)
    with the standard coefficients, no bounds and only ``maxfev`` set, so it
    evaluates the same vectors in the same order and returns the same
    result.  The search stops once the simplex is within ``xatol`` of its
    best vertex in every coordinate and ``fatol`` of its best value, or
    after ``maxfev`` evaluations.
    Ported from SciPy (Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy
    Developers; BSD 3-Clause License).
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.asarray(x0, dtype=float)
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y
    one2np1 = list(range(1, N + 1))
    fsim = np.full((N + 1,), np.inf, dtype=float)
    calls = 0

    def evaluate(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        # func gets a copy, which it may keep
        return func(np.copy(x))

    try:
        for k in range(N + 1):
            fsim[k] = evaluate(sim[k])
    except _BudgetSpent:
        pass
    finally:
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    # sort so sim[0,:] has the lowest function value
    sim = np.take(sim, ind, 0)

    while calls < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = evaluate(xr)
            doshrink = 0
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = evaluate(xe)
                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
            else:  # fsim[0] <= fxr
                if fxr < fsim[-2]:
                    sim[-1] = xr
                    fsim[-1] = fxr
                else:  # fxr >= fsim[-2]
                    # Perform contraction
                    if fxr < fsim[-1]:
                        xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                        fxc = evaluate(xc)
                        if fxc <= fxr:
                            sim[-1] = xc
                            fsim[-1] = fxc
                        else:
                            doshrink = 1
                    else:
                        # Perform an inside contraction
                        xcc = (1 - psi) * xbar + psi * sim[-1]
                        fxcc = evaluate(xcc)
                        if fxcc < fsim[-1]:
                            sim[-1] = xcc
                            fsim[-1] = fxcc
                        else:
                            doshrink = 1
                    if doshrink:
                        for j in one2np1:
                            sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                            fsim[j] = evaluate(sim[j])
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


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
            # the stopping test subtracts vertex values: inf - inf when every
            # vertex scores -inf
            with np.errstate(invalid="ignore"):
                x, fun = _nelder_mead(recorded, x0, xatol=1e-6, fatol=SPREAD_TOL,
                                      maxfev=MAX_EVALUATIONS)
        except _DegenerateSimplex:
            return values, OptimizationStart(start, start, -math.inf)
        return values, OptimizationStart(start, _from_vector(x, fix_alpha), float(-fun))

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
