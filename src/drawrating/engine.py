"""Per-period Bayesian filtering of player ratings.

Each rating period, every player's normal belief is updated from their game
results via a 2-point quadrature over each opponent's prior and a single
Newton-Raphson step at the focal player's prior mean.  Updates read only the
period's *prior* snapshot, so all players can be processed independently;
afterwards the innovation variance is added (subject to a growth cap) to
form the next period's priors.

Games are validated and compiled once into player-index arrays, for each
period number with games (``compile_history``); ``filter_period`` folds one
compiled period into belief arrays in place.  ``rate_columns`` compiles and
filters one period against belief columns; ``run_period`` is its dict form.
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
    use the same names, so that their blocks share memory too.  The names:
    ``"grid"``, each pass's five-row block of ``model.shifted_logit_columns``;
    ``"priors"``, the prior means and sds of the period's players
    (``period_priors``); ``"table"``, their node strengths
    (``node_strengths``), which the grid rows gather; and ``"terms"``, the
    pass's results over the whole period.
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


#: the opponent nodes mu - sigma and mu + sigma of the game terms
_NODE_SIGNS = np.array([[-1.0], [1.0]])


def node_strengths(mu, sigma, nodes, out, scale=None):
    """Strengths ``mu + (scale * sigma) * node`` at each of the quadrature
    ``nodes``, or ``mu + sigma * node`` without a ``scale``, written in
    ``out`` of the broadcast shape: per player for a table of a period's
    players (``nodes`` a column), or per game for columns of games."""
    width = sigma if scale is None else np.multiply(scale, sigma, out=out)
    np.multiply(width, nodes, out=out)
    return np.add(mu, out, out=out)


def _delta_arrays(focal_mu, nodes, outcome, color, h, draw_score_override, work=None):
    """Vectorized game-term computation over n directed terms.

    ``nodes`` holds the opponent nodes mu_j - sigma_j and mu_j + sigma_j as
    the rows of one (2, n) block (``node_strengths`` at ``_NODE_SIGNS``), and
    ``focal_mu`` the focal prior means, (n,) or (2, n); ``outcome`` and
    ``color`` are (n,).  ``outcome`` is the observed outcome's index from the
    focal player's side (0 win, 1 draw, 2 loss).  The outcome model is
    evaluated at both nodes with the focal strength fixed at its prior mean.
    The equal 1/2 node weights cancel between numerator and denominator of
    the delta terms; p_observed keeps the uncancelled two-node sum.
    Every temporary is written in the block ``"grid"`` of ``work`` (a new
    workspace if not given), whose rows 0 and 2 may hold ``focal_mu`` and
    ``nodes``; the results are views of that block.
    """
    if work is None:
        work = Workspace()
    n = len(outcome)
    # (2, n) rows: the kernel's block, with the focal strengths possibly in
    # row 0 and the opponent nodes in row 2; then 0-2 p, 3 p_y, 4 the take
    # index; with alpha1 == 0, 2 s2, 1 s1 and the first half of 0 a_y; then
    # 4 d1, 2 d2 and 1 scratch; last, rows 0-1 the node sums and the deltas
    block = work.block("grid", (5, 2, n))
    # a huge draw coefficient overflows and p_obs can underflow to exactly 0;
    # the resulting NaNs are caught by the precision check downstream
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
    observed = np.array([model.outcome_index(outcome)])
    if opponent.sigma <= 0 or focal.sigma <= 0:
        raise ValueError("beliefs need positive sigma")
    with np.errstate(over="ignore", invalid="ignore"):  # as in the kernel
        nodes = node_strengths(opponent.mu, opponent.sigma, _NODE_SIGNS, np.empty((2, 1)))
    d1, d2, p = _delta_arrays(
        np.array([focal.mu]), nodes, observed, np.array([color], dtype=float), h,
        cfg.draw_score_override,
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


def _valid_games(games: list) -> tuple[list, list, list]:
    """(valid games, the outcome index of each, rejects as (0-based position,
    reason)) of ``games``."""
    valid, observed, rejected = [], [], []
    for position, game in enumerate(games):
        if game.white_id == game.black_id:
            rejected.append((position, f"self-play: {game.white_id!r}"))
            continue
        try:
            observed.append(model.outcome_index(game.outcome))
        except ValueError:
            rejected.append((position, f"unknown outcome {game.outcome!r}"))
            continue
        valid.append(game)
    return valid, observed, rejected


def games_by_period(games: list) -> dict:
    """Group game records into {period: [games]} preserving input order."""
    grouped = {}
    for g in games:
        grouped.setdefault(g.period, []).append(g)
    return grouped


@dataclass(frozen=True)
class CompiledPeriod:
    """One period's valid games as player-position and outcome-index arrays.

    ``players`` holds the indices of the period's players in ascending
    order, and ``games`` the number of games of each; ``white``, ``black``,
    ``focal`` and ``opp`` are positions in ``players``, so that a pass over
    the period reads the players' beliefs in a table of the period's size.
    ``white``, ``black`` and ``observed`` (each game's outcome index from
    White's side: 0 win, 1 draw, 2 loss) keep the input order, for scoring.
    The directed terms ``focal``, ``opp``, ``outcome`` (the index from the
    focal player's side) and ``color``, two per game, are sorted by (focal,
    opp, outcome score, color), the index descending, so every sum over
    them runs in a fixed order whatever the input order.
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
    """Valid games over players in sorted id order, one compiled period per
    number in ``numbers``, the ascending period numbers with a game, valid or
    not.  ``mu`` and ``sigma`` are the starting beliefs (callers copy them to
    filter); ``source`` is each player's row in the initial columns, tracked
    from the start, or -1 for one at the default prior, tracked from their
    first valid game.  ``work`` serves the passes, so one thread at a time.
    """

    ids: np.ndarray  # object array
    source: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    numbers: tuple
    periods: tuple
    cfg: EngineConfig
    work: Workspace = field(default_factory=Workspace, compare=False, repr=False)


def _compile_period(games: list, observed: list, index: dict) -> CompiledPeriod:
    """Player-position and outcome-index arrays of validated games and their
    outcome indices (``_valid_games``)."""
    white = np.array([index[g.white_id] for g in games], dtype=np.intp)
    black = np.array([index[g.black_id] for g in games], dtype=np.intp)
    observed = np.array(observed, dtype=np.intp)
    counts = np.bincount(np.concatenate([white, black]))
    players = np.flatnonzero(counts)
    position = np.cumsum(counts > 0, dtype=np.intp) - 1  # each index's place in players
    white, black = position[white], position[black]
    focal = np.concatenate([white, black])
    opp = np.concatenate([black, white])
    outcome = np.concatenate([observed, 2 - observed])  # from the focal side
    color = np.repeat([1.0, -1.0], len(games))
    # one int64 key sorts by (focal, opp, outcome value, color): an ascending
    # outcome value (loss, draw, win) is a descending index.  It stays below
    # players**2 * 6, so it cannot overflow while that is under 2**63.
    key = ((focal * players.size + opp) * 3 + (2 - outcome)) * 2 + (color > 0)
    order = np.argsort(key, kind="stable")
    return CompiledPeriod(
        white, black, observed, focal[order], opp[order], outcome[order], color[order],
        players, counts[players],
    )


def _state_columns(state: dict):
    """(ids, mu, sigma) columns of a ``{player_id: PlayerBelief}`` dict."""
    beliefs = state.values()
    return list(state), [b.mu for b in beliefs], [b.sigma for b in beliefs]


def _compile_groups(groups: dict, ids, mu, sigma, cfg: EngineConfig):
    """(history, 0-based rejects of each group) of ``groups``, ``{number: games}``
    in ascending order, from the columns ``ids`` (unique), ``mu`` and ``sigma``."""
    checked = [_valid_games(games) for games in groups.values()]
    played = {pid for valid, _, _ in checked for g in valid for pid in (g.white_id, g.black_id)}
    all_ids = sorted([*ids, *played.difference(ids)])  # quick on ids already sorted
    row = {pid: k for k, pid in enumerate(ids)}
    source = np.array([row.get(pid, -1) for pid in all_ids], dtype=np.intp)
    default = cfg.default_belief("")
    index = {pid: k for k, pid in enumerate(all_ids)}
    return CompiledHistory(
        # row -1 of each extended column is the default prior
        np.array(all_ids, dtype=object), source,
        np.append(np.asarray(mu, dtype=float), default.mu)[source],
        np.append(np.asarray(sigma, dtype=float), default.sigma)[source], tuple(groups),
        tuple(_compile_period(valid, observed, index) for valid, observed, _ in checked), cfg,
    ), [rejected for _, _, rejected in checked]


def compile_history(games: list, initial_state: dict | None, cfg: EngineConfig) -> CompiledHistory:
    """Validate and index a multi-period game history once.

    Invalid games are dropped, and so are games of periods below 1.  Only
    the period numbers with games are compiled, so a far number costs no
    more than a near one.
    """
    grouped = games_by_period(games)
    if not grouped:
        raise ValueError("no games supplied")
    groups = {number: grouped[number] for number in sorted(grouped) if number >= 1}
    return _compile_groups(groups, *_state_columns(initial_state or {}), cfg)[0]


def period_priors(period: CompiledPeriod, mu, sigma, work: Workspace) -> np.ndarray:
    """The prior means and sds of the period's players, in their order, as
    the rows of the (2, players) block ``"priors"`` of ``work``."""
    priors = work.block("priors", (2, period.players.size))
    # player indices are in range by construction: "wrap" writes straight to out
    mu.take(period.players, out=priors[0], mode="wrap")
    sigma.take(period.players, out=priors[1], mode="wrap")
    return priors


def filter_period(period: CompiledPeriod, ids, mu, sigma, tracked, h: Hyperparameters,
                  cfg: EngineConfig, work: Workspace | None = None):
    """Fold one compiled period into the belief arrays, in place.

    Every directed term is computed against the prior arrays, in ``chunks``
    of two opponent nodes per term, which each chunk gathers from one table
    of the period's players' nodes, with its temporaries in ``work`` (a new
    workspace if not given); each player with a game takes one Newton step;
    then every tracked player below the cap is advanced in time (``advance_sigma``).
    Returns the games per player and the posterior sd before the advance.
    """
    if work is None:
        work = Workspace()
    players = period.players
    counts = np.zeros(len(mu), dtype=np.intp)
    counts[players] = period.games
    if players.size:
        tracked[players] = True
        prior_mu, prior_sigma = period_priors(period, mu, sigma, work)
        # each player's nodes, which an overflow warns of no more than the kernel
        with np.errstate(over="ignore", invalid="ignore"):
            table = node_strengths(prior_mu, prior_sigma, _NODE_SIGNS,
                                   work.block("table", (2, players.size)))
        d1, d2 = work.block("terms", (2, period.focal.size))
        # each term (five rows of two nodes) is computed alone, so the
        # chunking leaves every bit as it is
        for part in chunks(period.focal.size, 10):
            n = part.stop - part.start
            # the focal strengths across both nodes in row 0 of the kernel's
            # block and the opponent nodes in row 2, so that no operand
            # broadcasts; positions are in range: "wrap" writes straight to out
            grid = work.block("grid", (5, 2, n))
            np.copyto(grid[0, 1], prior_mu.take(period.focal[part], out=grid[0, 0], mode="wrap"))
            nodes = table.take(period.opp[part], axis=1, out=grid[2], mode="wrap")
            d1[part], d2[part], _ = _delta_arrays(
                grid[0], nodes, period.outcome[part], period.color[part], h,
                cfg.draw_score_override, work,
            )
        mu[players], sigma[players] = _newton_step(
            map(ids.__getitem__, players), prior_mu, prior_sigma,
            np.bincount(period.focal, weights=d1), np.bincount(period.focal, weights=d2),
        )
    sigma_post = sigma.copy()
    advance_sigma(sigma, tracked, h, cfg)
    return counts, sigma_post


def advance_sigma(sigma, tracked, h: Hyperparameters, cfg: EngineConfig, steps: int = 1):
    """Advance the sds of the tracked players below the cap ``steps`` periods in
    place (``advance_time`` vectorized bit for bit) until a step changes none: a gap
    still costs one vector step per period until then, at a tiny tau all of it."""
    for _ in range(steps):
        grow = tracked & (sigma < cfg.sigma_cap)
        # float_power matches the scalar x**2 of advance_time; np.power does not
        after = np.sqrt(np.float_power(sigma[grow], 2.0) + _innovation_variance(h))
        if steps > 1 and np.array_equal(after, sigma[grow]):
            return
        sigma[grow] = after


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
    history, (rejected,) = _compile_groups({1: games}, ids, mu, sigma, cfg)
    mu, sigma = history.mu.copy(), history.sigma.copy()
    counts, sigma_post = filter_period(history.periods[0], history.ids, mu, sigma,
                                       history.source >= 0, h, cfg, history.work)
    return PeriodColumns(history.ids.tolist(), history.source, history.mu, history.sigma,
                         mu, sigma_post, sigma, counts, rejected)


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
