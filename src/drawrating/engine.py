"""Per-period Bayesian filtering of player ratings.

Each rating period, every player's normal belief is updated from their game
results via a 2-point quadrature over each opponent's prior and a single
Newton-Raphson step at the focal player's prior mean.  Updates read only the
period's *prior* snapshot, so all players can be processed independently;
afterwards the innovation variance is added (subject to a growth cap) to
form the next period's priors.

Games are validated and compiled once into player-index arrays
(``compile_history``); ``filter_period`` folds one compiled period into
belief arrays in place.  ``rate_columns`` rates one period of games against
belief columns, and ``run_period`` is its dict-in, dict-out form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .model import Hyperparameters

#: float64 cells (576 KiB) of a pass's whole work block; a larger pass runs
#: in chunks, so the heap reuses its blocks instead of faulting in pages.
GRID_CHUNK = 9 << 13


def chunks(n: int, cells: int) -> list:
    """Slices that cut ``n`` items of ``cells`` cells each, counted over every
    row of their pass's work block, into chunks of at most ``GRID_CHUNK``
    cells and at least one item each; ``n`` items that fit stay one chunk."""
    step = max(1, GRID_CHUNK // cells)
    return [slice(k, min(k + step, n)) for k in range(0, n, step)]


class Workspace:
    """Work blocks that the array passes write their temporaries in, kept
    from one call to the next.

    A warm pass then allocates nothing large, so the heap is neither grown
    nor trimmed under it: freed temporaries of tens of KiB let glibc trim the
    heap top, and the next pass faults its pages back in.
    ``block(name, shape)`` is a C-contiguous float64 view of the named
    buffer, which grows to the largest block asked for.  Blocks of one name
    share memory: a pass holds one block of each name at a time, and passes
    that run one after the other (the scoring and the filter of a period)
    use the same names, so that their blocks share memory too: each pass's
    ``"grid"`` block is the five-row block of ``model.shifted_logit_columns``.
    ``positions(shape)`` is ``np.arange`` in that shape, the positions of a
    take index (``model.observed_index``), as a view of one kept ramp.
    A workspace serves one pass at a time, so one thread.
    """

    def __init__(self):
        self._buffers = {}
        self._blocks = {}
        self._ramp, self._positions = np.arange(0), {}

    def block(self, name: str, shape: tuple) -> np.ndarray:
        view = self._blocks.get((name, shape))
        if view is None:
            size = math.prod(shape)
            buffer = self._buffers.get(name)
            if buffer is None or buffer.size < size:
                buffer = self._buffers[name] = np.empty(size)
                # the old buffer's views would keep it alive
                self._blocks = {key: v for key, v in self._blocks.items() if key[0] != name}
            view = self._blocks[name, shape] = buffer[:size].reshape(shape)
        return view

    def positions(self, shape: tuple) -> np.ndarray:
        view = self._positions.get(shape)
        if view is None:
            cells = math.prod(shape)
            if self._ramp.size < cells:
                self._ramp, self._positions = np.arange(cells), {}
            view = self._positions[shape] = self._ramp[:cells].reshape(shape)
        return view


class DegenerateUpdateError(ArithmeticError):
    """Raised when the posterior precision is non-positive.

    Mathematically every game term reduces curvature by a non-positive
    amount, so the precision stays above the prior's.  A non-positive value
    indicates floating-point pathology; we refuse to clamp because a silent
    fixup would corrupt every downstream prior.
    """


class InnovationOverflowError(ValueError):
    """Raised when tau is so large that the innovation variance tau**2 overflows."""


def _innovation_variance(h: Hyperparameters) -> float:
    try:
        return h.tau**2
    except OverflowError:
        raise InnovationOverflowError(f"tau {h.tau!r} is too large: its square overflows")


def finite_precision(sigma: float) -> bool:
    """Whether the prior precision ``sigma**-2`` that ``_newton_step`` takes is finite."""
    try:
        return math.isfinite(sigma**-2)
    except (OverflowError, ZeroDivisionError):
        return False


@dataclass
class PlayerBelief:
    """Normal belief about one player's latent strength."""

    player_id: str
    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError(f"belief for {self.player_id!r} must be finite")
        if self.sigma <= 0:
            raise ValueError(
                f"belief for {self.player_id!r} needs sigma > 0, got {self.sigma}"
            )

    @property
    def elo(self) -> float:
        return model.latent_to_elo(self.mu)

    @property
    def elo_sd(self) -> float:
        return self.sigma * model.ELO_SCALE


@dataclass(frozen=True)
class EngineConfig:
    """Engine policy constants (distinct from the likelihood hyperparameters)."""

    sigma_cap: float = 0.691
    draw_score_override: bool = True
    default_prior_elo: float = 1800.0
    default_prior_sd_elo: float = 250.0
    rated_prior_sd_elo: float = 100.0

    def __post_init__(self):
        for name in ("sigma_cap", "default_prior_sd_elo", "rated_prior_sd_elo"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive, got {value}")
            if name != "sigma_cap" and not finite_precision(model.elo_sd_to_latent(value)):
                raise ValueError(f"{name} {value!r} is too small: the precision "
                                 f"sigma**-2 of its latent sd is not finite")
        if not math.isfinite(self.default_prior_elo):
            raise ValueError(f"default_prior_elo must be finite, got {self.default_prior_elo}")

    def default_belief(self, player_id: str) -> PlayerBelief:
        return PlayerBelief(
            player_id,
            model.elo_to_latent(self.default_prior_elo),
            model.elo_sd_to_latent(self.default_prior_sd_elo),
        )


@dataclass(frozen=True)
class GameTerm:
    """One game's contribution to the focal player's log-posterior derivatives."""

    delta1: float
    delta2: float
    p_observed: float


@dataclass(frozen=True)
class PeriodUpdate:
    player_id: str
    mu_prior: float
    sigma_prior: float
    mu_post: float
    sigma_post: float
    games_count: int


@dataclass
class PeriodResult:
    """Outcome of processing one rating period."""

    state: dict
    updates: list
    rejected: list = field(default_factory=list)


_NODE_SIGNS = np.array([[-1.0], [1.0]])


def _delta_arrays(focal_mu, opp_mu, opp_sigma, outcome, color, h, draw_score_override,
                  work=None):
    """Vectorized game-term computation over inputs that broadcast to 1-D.

    ``outcome`` is the observed outcome's index from the focal player's side
    (0 win, 1 draw, 2 loss).  The outcome model is evaluated at opponent
    nodes mu_j - sigma_j and mu_j + sigma_j, the rows of one (2, n) block,
    with the focal strength fixed at its prior mean.  The equal 1/2 node
    weights cancel between numerator and denominator of the delta terms;
    p_observed keeps the uncancelled two-node sum.
    Given a ``Workspace``, the inputs are 1-D and every temporary is written
    in its block ``"grid"``; the results are then views of that block.
    """
    if work is None:
        focal_mu, opp_mu, opp_sigma, outcome, color = np.broadcast_arrays(
            *map(np.atleast_1d, (focal_mu, opp_mu, opp_sigma, outcome, color)))
        work = Workspace()
    n = len(outcome)
    # (2, n) rows: the kernel's block, with the opponent nodes in row 2; then
    # 0-2 p, 3 p_y, 4 the take index; with alpha1 == 0, 2 s2, 1 s1 and the
    # first half of 0 a_y; then 4 d1, 2 d2 and 1 scratch; last, rows 0-1 the
    # node sums and the deltas
    block = work.block("grid", (5, 2, n))
    # a huge draw coefficient overflows and p_obs can underflow to exactly 0;
    # the resulting NaNs are caught by the precision check downstream
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        nodes = np.multiply(_NODE_SIGNS, opp_sigma, out=block[2])
        np.add(opp_mu, nodes, out=nodes)
        p, log_total = model.shifted_logit_columns(focal_mu, nodes, color, h, block)
        p -= log_total
        np.exp(p, out=p)
        index = model.observed_index(outcome, work.positions((2, n)), block[4].view(np.intp))
        # the indices are in range by construction: "wrap" writes straight to out
        p_y = p.take(index, out=block[3], mode="wrap")
        if h.alpha1:
            a = np.stack(model.score_coefficient_columns(color, h, draw_score_override))
            a_y = model.observed_column(outcome, a)
            s1, s2 = model.score_sums(p, a)
        else:
            # the coefficients are the constants (1, a_draw, +/-0): the observed
            # one comes from a table, and the loss probability drops out of
            # s1 = sum(p a) and s2 = sum(p a^2)
            a_draw = model.draw_coefficient(h, draw_score_override)
            s2 = np.multiply(p[1], a_draw * a_draw, out=p[2])
            np.add(p[0], s2, out=s2)
            s1 = np.multiply(p[1], a_draw, out=p[1])
            np.add(p[0], s1, out=s1)
            a_y = np.array([1.0, a_draw, 0.0]).take(outcome, out=p[0, 0], mode="wrap")
        # d1 in row 4 and d2 in row 2, so that d2, p_y and d1 are rows 2-4
        model.selected_derivatives(p_y, a_y, s1, s2, out=(block[4], block[2], block[1]))
        # each node row is added to 0.0 in turn, so a zero term sums as +0.0
        sums = block[:2].reshape(4, n)
        num2, p_obs, num1, delta1 = sums
        np.add(0.0, block[2:5, 0], out=sums[:3])
        np.add(sums[:3], block[2:5, 1], out=sums[:3])
        np.divide(num1, p_obs, out=delta1)
        delta2 = np.divide(num2, p_obs, out=num2)
        np.subtract(delta2, np.square(delta1, out=block[3, 0]), out=delta2)
    return delta1, delta2, p_obs


def game_term(
    focal: PlayerBelief,
    opponent: PlayerBelief,
    outcome: float,
    color: int,
    h: Hyperparameters,
    cfg: EngineConfig,
) -> GameTerm:
    """Derivative contributions of one game, evaluated at the focal prior mean."""
    observed = model.outcome_index(outcome)
    if opponent.sigma <= 0 or focal.sigma <= 0:
        raise ValueError("beliefs need positive sigma")
    d1, d2, p = _delta_arrays(
        focal.mu, opponent.mu, opponent.sigma, observed, color, h, cfg.draw_score_override,
    )
    if not (p[0] > 0):
        raise DegenerateUpdateError(
            "realized outcome has zero probability at both quadrature nodes"
        )
    return GameTerm(float(d1[0]), float(d2[0]), float(p[0]))


def _newton_step(player_ids, mu, sigma, sum1, sum2):
    """One Newton-Raphson step at the prior mean: (posterior mean, posterior sd).

    Takes floats or matching arrays of summed game terms; ``player_ids``
    lists the players in the same order, for the error message.  It is
    iterated only when a step fails, so it may be a lazy iterator.
    """
    precision = sigma**-2 - sum2
    bad = np.atleast_1d(~(np.isfinite(precision) & (precision > 0)))
    if bad.any():
        named = [pid for pid, b in zip(player_ids, bad) if b]
        raise DegenerateUpdateError(
            f"non-positive posterior precision "
            f"{np.atleast_1d(precision)[bad].tolist()} for {named}"
        )
    return mu + sum1 / precision, precision**-0.5


def period_update(focal: PlayerBelief, terms: list[GameTerm]) -> PeriodUpdate:
    """One-step Newton-Raphson posterior from a player's game terms."""
    if not terms:
        return PeriodUpdate(
            focal.player_id, focal.mu, focal.sigma, focal.mu, focal.sigma, 0
        )
    mu_post, sigma_post = _newton_step(
        [focal.player_id], focal.mu, focal.sigma,
        math.fsum(t.delta1 for t in terms), math.fsum(t.delta2 for t in terms),
    )
    return PeriodUpdate(
        focal.player_id, focal.mu, focal.sigma, mu_post, sigma_post, len(terms)
    )


def advance_time(post: PlayerBelief, h: Hyperparameters, cfg: EngineConfig) -> PlayerBelief:
    """Next-period prior: add innovation variance unless the cap is reached."""
    if post.sigma < cfg.sigma_cap:
        sigma = math.sqrt(post.sigma**2 + _innovation_variance(h))
    else:
        sigma = post.sigma
    return PlayerBelief(post.player_id, post.mu, sigma)


def _validate_game(game) -> str | None:
    if game.white_id == game.black_id:
        return f"self-play: {game.white_id!r}"
    try:
        model.outcome_index(game.outcome)
    except ValueError:
        return f"unknown outcome {game.outcome!r}"
    return None


def games_by_period(games: list) -> dict:
    """Group game records into {period: [games]} preserving input order."""
    grouped = {}
    for g in games:
        grouped.setdefault(g.period, []).append(g)
    return grouped


@dataclass(frozen=True)
class CompiledPeriod:
    """One period's valid games as player-index and outcome-index arrays.

    ``white``, ``black`` and ``observed`` (each game's outcome index from
    White's side: 0 win, 1 draw, 2 loss) keep the input order, for scoring.
    The directed terms ``focal``, ``opp``, ``outcome`` (the index from the
    focal player's side) and ``color``, two per game, are sorted by (focal,
    opp, outcome score, color), the index descending, so every sum over
    them runs in a fixed order whatever the input order.  ``players`` holds the focal players in
    ascending order, and ``games`` the number of games of each.
    """

    white: np.ndarray
    black: np.ndarray
    observed: np.ndarray
    focal: np.ndarray
    opp: np.ndarray
    outcome: np.ndarray
    color: np.ndarray
    players: np.ndarray
    games: np.ndarray


@dataclass(frozen=True)
class CompiledHistory:
    """Valid games of periods 1..len(periods) over players in sorted id order.

    ``mu``, ``sigma`` and ``tracked`` are the starting beliefs: players of
    the initial state are tracked; every other player starts at the default
    prior of ``cfg`` and is tracked from the period of their first valid
    game.  Callers copy the starting arrays before filtering.  ``work`` is
    the workspace of the passes over this history, so the history serves
    one thread at a time.
    """

    ids: np.ndarray  # object array
    mu: np.ndarray
    sigma: np.ndarray
    tracked: np.ndarray
    periods: tuple
    cfg: EngineConfig
    work: Workspace = field(default_factory=Workspace, compare=False, repr=False)


def _compile_period(games: list, index: dict) -> CompiledPeriod:
    """Player-index and outcome-index arrays of already validated games."""
    white = np.array([index[g.white_id] for g in games], dtype=np.intp)
    black = np.array([index[g.black_id] for g in games], dtype=np.intp)
    observed = np.array([model.outcome_index(g.outcome) for g in games], dtype=np.intp)
    focal = np.concatenate([white, black])
    opp = np.concatenate([black, white])
    outcome = np.concatenate([observed, 2 - observed])  # from the focal side
    color = np.repeat([1.0, -1.0], len(games))
    # ascending outcome value (loss, draw, win) is descending index
    order = np.lexsort((color, -outcome, opp, focal))
    counts = np.bincount(focal)
    players = np.flatnonzero(counts)
    return CompiledPeriod(
        white, black, observed, focal[order], opp[order], outcome[order], color[order],
        players, counts[players],
    )


def _state_columns(state: dict):
    """(ids, mu, sigma) columns of a ``{player_id: PlayerBelief}`` dict."""
    beliefs = state.values()
    return list(state), [b.mu for b in beliefs], [b.sigma for b in beliefs]


def _prior_columns(all_ids: list, ids, mu, sigma, cfg: EngineConfig):
    """(source, mu, sigma) over ``all_ids``: each player's row in the columns
    ``ids``/``mu``/``sigma``, or -1 and the default prior of ``cfg`` for a
    player not in them."""
    row = {pid: k for k, pid in enumerate(ids)}
    source = np.array([row.get(pid, -1) for pid in all_ids], dtype=np.intp)
    default = cfg.default_belief("")
    # row -1 of each extended column is the default prior
    return (source, np.append(np.asarray(mu, dtype=float), default.mu)[source],
            np.append(np.asarray(sigma, dtype=float), default.sigma)[source])


def compile_history(games: list, initial_state: dict | None, cfg: EngineConfig) -> CompiledHistory:
    """Validate and index a multi-period game history once.

    Invalid games are dropped, and so are games of periods below 1.
    Periods without games share one compiled empty period, so a far period
    number costs a tuple slot per period below it, not a compile.
    """
    grouped = games_by_period(games)
    if not grouped:
        raise ValueError("no games supplied")
    state = initial_state or {}
    valid = [
        [g for g in grouped.get(period, []) if _validate_game(g) is None]
        for period in range(1, max(grouped) + 1)
    ]
    players = set(state)
    for period_games in valid:
        for g in period_games:
            players.update((g.white_id, g.black_id))
    ids = sorted(players)
    index = {pid: k for k, pid in enumerate(ids)}
    source, mu, sigma = _prior_columns(ids, *_state_columns(state), cfg)
    empty = _compile_period([], index)
    return CompiledHistory(
        np.array(ids, dtype=object), mu, sigma, source >= 0,
        tuple(_compile_period(period_games, index) if period_games else empty
              for period_games in valid), cfg,
    )


def filter_period(period: CompiledPeriod, ids, mu, sigma, tracked, h: Hyperparameters,
                  cfg: EngineConfig, work: Workspace | None = None):
    """Fold one compiled period into the belief arrays, in place.

    Every directed term is computed against the prior arrays, in ``chunks``
    of two opponent nodes per term, with its temporaries in ``work`` (a new
    workspace if not given); each player with a game takes one Newton step;
    then every tracked player below the cap is advanced in time
    (``advance_time``, vectorized bit for bit).
    Returns the games per player and the posterior sd before the advance.
    """
    if work is None:
        work = Workspace()
    players = period.players
    counts = np.zeros(len(mu), dtype=np.intp)
    counts[players] = period.games
    if players.size:
        tracked[players] = True
        d1, d2 = work.block("terms", (2, period.focal.size))
        # each term (five rows of two nodes) is computed alone, so the
        # chunking leaves every bit as it is
        for part in chunks(period.focal.size, 10):
            n = part.stop - part.start
            beliefs = work.block("beliefs", (3, n))
            focal, opp = period.focal[part], period.opp[part]
            # player indices are in range by construction: "wrap" writes straight to out
            mu.take(focal, out=beliefs[0], mode="wrap")
            mu.take(opp, out=beliefs[1], mode="wrap")
            sigma.take(opp, out=beliefs[2], mode="wrap")
            d1[part], d2[part], _ = _delta_arrays(
                *beliefs, period.outcome[part], period.color[part], h, cfg.draw_score_override,
                work=work,
            )
        mu[players], sigma[players] = _newton_step(
            map(ids.__getitem__, players), mu[players], sigma[players],
            np.bincount(period.focal, weights=d1)[players],
            np.bincount(period.focal, weights=d2)[players],
        )
    sigma_post = sigma.copy()
    grow = tracked & (sigma < cfg.sigma_cap)
    # float_power matches the scalar x**2 of advance_time; np.power does not
    sigma[grow] = np.sqrt(np.float_power(sigma[grow], 2.0) + _innovation_variance(h))
    return counts, sigma_post


@dataclass(frozen=True)
class PeriodColumns:
    """One rated period over players in sorted id order, as parallel columns.

    ``source`` is each player's row in the input columns, or -1 for a player
    first seen in this period.  ``sigma_post`` is the posterior sd and
    ``sigma_next`` the next period's prior sd; the time advance leaves the
    means unchanged, so ``mu_post`` is also the next period's prior mean.
    """

    ids: list
    source: np.ndarray
    mu_prior: np.ndarray
    sigma_prior: np.ndarray
    mu_post: np.ndarray
    sigma_post: np.ndarray
    sigma_next: np.ndarray
    counts: np.ndarray
    rejected: list


def rate_columns(ids, mu, sigma, games: list, h: Hyperparameters,
                 cfg: EngineConfig) -> PeriodColumns:
    """Rate one period of ``games`` against tracked players given as columns.

    ``ids`` (unique), ``mu`` and ``sigma`` hold the tracked players' priors
    in any order.  Players first seen in a valid game get the default prior
    of ``cfg`` and are tracked from then on.  Rejects carry 0-based positions
    in ``games``.
    """
    rejected, valid = [], []
    for position, game in enumerate(games):
        reason = _validate_game(game)
        if reason is None:
            valid.append(game)
        else:
            rejected.append((position, reason))
    new = {pid for g in valid for pid in (g.white_id, g.black_id)}.difference(ids)
    all_ids = sorted([*ids, *new])
    source, mu_prior, sigma_prior = _prior_columns(all_ids, ids, mu, sigma, cfg)
    period = _compile_period(valid, {pid: k for k, pid in enumerate(all_ids)})
    mu, sigma = mu_prior.copy(), sigma_prior.copy()
    counts, sigma_post = filter_period(
        period, np.array(all_ids, dtype=object), mu, sigma, source >= 0, h, cfg
    )
    return PeriodColumns(all_ids, source, mu_prior, sigma_prior, mu, sigma_post, sigma,
                         counts, rejected)


def run_period(
    state: dict,
    games: list,
    h: Hyperparameters,
    cfg: EngineConfig,
) -> PeriodResult:
    """Process one rating period: the dict-in, dict-out form of ``rate_columns``.

    Every game yields two directed terms (one per player); both are computed
    against the opponents' prior beliefs, never their posteriors.  Players
    absent from ``state`` receive the default prior on first appearance.
    Afterwards every tracked player, active or not, is advanced in time.
    Summation order is fixed by sorted term keys so reruns and permuted
    inputs are bit-identical.  Rejects carry 0-based positions in ``games``.
    """
    step = rate_columns(*_state_columns(state), games, h, cfg)
    mu_post = step.mu_post.tolist()
    updates = [
        PeriodUpdate(*row)
        for row in zip(step.ids, step.mu_prior.tolist(), step.sigma_prior.tolist(),
                       mu_post, step.sigma_post.tolist(), step.counts.tolist())
    ]
    new_state = {
        pid: PlayerBelief(pid, m, s)
        for pid, m, s in zip(step.ids, mu_post, step.sigma_next.tolist())
    }
    return PeriodResult(new_state, updates, step.rejected)
