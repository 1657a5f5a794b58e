"""Core outcome probability model for win/draw/loss games.

The model assigns each game outcome an exponential numerator in the two
players' latent strengths.  The draw numerator grows with the *average*
strength of the pair, so draws become more likely between strong players.
A first-move (white) advantage can be switched on through the alpha
parameters.  All functions here are pure and accept scalars or numpy
arrays of matching shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Elo rating = 1500 + (400 / ln 10) * latent strength.  The scale factor is
# kept in closed form (about 173.72) to avoid rounding drift.
ELO_SCALE = 400.0 / math.log(10.0)
ELO_CENTER = 1500.0

# Outcome encoding used throughout: 1.0 win, 0.5 draw, 0.0 loss, always from
# the focal (or white-listed) player's perspective.
WIN, DRAW, LOSS = 1.0, 0.5, 0.0

# Index of each outcome in probability/coefficient triples (win, draw, loss).
_OUTCOME_INDEX = {1.0: 0, 0.5: 1, 0.0: 2}


@dataclass(frozen=True)
class Hyperparameters:
    """Shared model constants.

    alpha0/alpha1: intercept and strength-slope of the white advantage.
    beta0/beta1:   intercept and strength-slope of the draw propensity.
    tau:           per-period innovation standard deviation (latent units).
    """

    alpha0: float = 0.0
    alpha1: float = 0.0
    beta0: float = 1.09861
    beta1: float = 0.17037
    tau: float = 0.14391

    def __post_init__(self):
        values = (self.alpha0, self.alpha1, self.beta0, self.beta1, self.tau)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"hyperparameters must be finite, got {values}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")


#: Production defaults: moderate draw slope and 25-Elo-per-period volatility.
DEFAULT_HYPERPARAMETERS = Hyperparameters()


def outcome_index(outcome: float) -> int:
    """Position of an outcome in (win, draw, loss) triples."""
    try:
        return _OUTCOME_INDEX[float(outcome)]
    except (KeyError, TypeError):
        raise ValueError(f"outcome must be one of 1, 0.5, 0; got {outcome!r}")


def _check_color(color) -> None:
    if not np.all((np.asarray(color) == 1) | (np.asarray(color) == -1)):
        raise ValueError(f"color must be +1 (white) or -1 (black), got {color!r}")


def shifted_logit_columns(theta_i, theta_j, color, h: Hyperparameters, out=None):
    """Outcome logits (win, draw, loss) less the largest, stacked on a leading
    axis of length 3, and the log of their exponentials' sum, which each log
    probability subtracts.

    A closed-form three-way log-sum-exp: the largest logit is subtracted
    before exponentiating, so extreme strengths stay finite, and the three
    exponentials, one row at a time, are added in the order numpy's length-3
    ``sum`` uses, ``(e0 + e1) + e2``.
    Without a white advantage (``alpha0 == alpha1 == 0``) ``color`` is not
    read; skipping its zero terms changes no value at a finite average strength.
    Overflowing inputs give NaN or infinite columns, without a warning.
    Every temporary is written in ``out``, a (5, *shape) float64 block over
    the broadcast shape of the result, allocated if not given: rows 0-2
    receive the logits, row 3 the log total, and row 4 is scratch.  The
    strengths may be given in rows 0 and 2, so that no operand broadcasts.
    """
    advantage = h.alpha0 or h.alpha1
    if out is None:
        shape = np.broadcast_shapes(np.shape(theta_i), np.shape(theta_j),
                                    np.shape(color) if advantage else ())
        out = np.empty((5, *shape))
    # rows are indexed with ..., so that 0-d rows stay arrays
    logits, log_total, scratch = out[:3], out[3, ...], out[4, ...]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        avg = np.add(theta_i, theta_j, out=log_total)
        np.multiply(0.5, avg, out=avg)
        win, loss = theta_i, theta_j
        if advantage:
            # color * (alpha0 + alpha1 * avg) / 4
            shift = np.multiply(h.alpha1, avg, out=scratch)
            np.add(h.alpha0, shift, out=shift)
            np.multiply(color, shift, out=shift)
            np.divide(shift, 4.0, out=shift)
            win = np.add(win, shift, out=logits[0, ...])
            loss = np.subtract(loss, shift, out=logits[2, ...])
        draw = np.multiply(1.0 + h.beta1, avg, out=logits[1, ...])
        np.add(h.beta0, draw, out=draw)
        top = np.maximum(win, draw, out=scratch)
        np.maximum(top, loss, out=top)
        np.subtract(win, top, out=logits[0, ...])
        np.subtract(draw, top, out=logits[1, ...])
        np.subtract(loss, top, out=logits[2, ...])
        # exact zeros are legal probabilities: log(0) is -inf
        np.exp(logits[0, ...], out=log_total)
        np.add(log_total, np.exp(logits[1, ...], out=scratch), out=log_total)
        np.add(log_total, np.exp(logits[2, ...], out=scratch), out=log_total)
        np.log(log_total, out=log_total)
    return logits, log_total


def log_probability_columns(theta_i, theta_j, color, h: Hyperparameters, out=None):
    """Log outcome probabilities (win, draw, loss), stacked on a leading axis;
    ``out`` is the work block of ``shifted_logit_columns``."""
    logits, log_total = shifted_logit_columns(theta_i, theta_j, color, h, out)
    logits -= log_total
    return logits


def log_probability_array(theta_i, theta_j, color, h: Hyperparameters) -> np.ndarray:
    """Log outcome probabilities, stacked (win, draw, loss) on the last axis.

    Inputs broadcast; the result gains a trailing axis of length 3.
    """
    color = np.asarray(color, dtype=float)
    columns = log_probability_columns(
        np.asarray(theta_i, dtype=float), np.asarray(theta_j, dtype=float), color, h
    )
    return np.stack(np.broadcast_arrays(*columns, color)[:3], axis=-1)


def probability_array(theta_i, theta_j, color, h: Hyperparameters) -> np.ndarray:
    """Outcome probabilities (win, draw, loss) on the last axis; broadcasts."""
    return np.exp(log_probability_array(theta_i, theta_j, color, h))


def outcome_probabilities(
    theta_i: float, theta_j: float, color: int, h: Hyperparameters
) -> np.ndarray:
    """(p_win, p_draw, p_loss) for a single game, from player i's side."""
    if not (math.isfinite(theta_i) and math.isfinite(theta_j)):
        raise ValueError(f"strengths must be finite, got {theta_i}, {theta_j}")
    _check_color(color)
    return probability_array(theta_i, theta_j, color, h)


def draw_coefficient(h: Hyperparameters, draw_score_override: bool) -> float:
    """The draw's score coefficient a_draw: 1/2 under the override, else (1 + beta1) / 2."""
    return 0.5 if draw_score_override else (1.0 + h.beta1) / 2.0


def score_coefficient_columns(color, h: Hyperparameters, draw_score_override: bool):
    """Score coefficients (a_win, a_draw, a_loss) as three arrays of ``color``'s shape."""
    color = np.asarray(color, dtype=float)
    a_win = 1.0 + color * h.alpha1 / 8.0
    a_loss = -color * h.alpha1 / 8.0
    return a_win, np.full_like(a_win, draw_coefficient(h, draw_score_override)), a_loss


def observed_index(outcome, positions, out=None):
    """Flat index of the outcome index ``outcome`` (0 win, 1 draw, 2 loss,
    ``intp``) into a C-contiguous stacked (win, draw, loss) block of shape
    (3, *positions.shape); ``positions`` is ``np.arange(cells)`` in that
    shape, against which ``outcome`` broadcasts.  Written in ``out`` if given."""
    return np.add(outcome * positions.size, positions, out=out)


def observed_column(outcome, block):
    """The entry of the stacked (win, draw, loss) ``block`` at the outcome
    index ``outcome``, which broadcasts against ``block[0]``: one flat
    ``take`` from a C-contiguous block."""
    shape = block.shape[1:]
    return block.take(observed_index(outcome, np.arange(math.prod(shape)).reshape(shape)))


def score_coefficients(
    color: int, h: Hyperparameters, draw_score_override: bool = True
) -> np.ndarray:
    """Outcome scores (a_win, a_draw, a_loss) for one game.

    With the override enabled a draw always scores exactly 1/2, so a draw
    between equal-strength players is treated as fully expected.  Disabled,
    the draw score is the model's own coefficient (1 + beta1) / 2.

    "Fully expected" holds at equal *strengths*.  The engine averages over
    the opponent's prior at the two nodes mu - sigma and mu + sigma, where
    the strengths differ, so a draw between identical priors still moves
    both means by a residual that vanishes at beta1 = 0 and, to leading
    order, scales as beta1 * sigma**4.
    """
    _check_color(color)
    return np.stack(score_coefficient_columns(color, h, draw_score_override), axis=-1)


def score_sums(p, a):
    """s1 = sum(p a) and s2 = sum(p a^2) over (win, draw, loss) probability
    columns ``p`` and score coefficient columns ``a``."""
    (p_w, p_d, p_l), (a_w, a_d, a_l) = p, a
    return ((p_w * a_w + p_l * a_l) + p_d * a_d,
            (p_w * (a_w * a_w) + p_l * (a_l * a_l)) + p_d * (a_d * a_d))


def derivative_arrays(p, a, p_c, a_c):
    """First two theta_i-derivatives of selected outcome probabilities.

    ``p`` and ``a`` are the (win, draw, loss) probability and score
    coefficient columns; ``p_c`` and ``a_c`` are the selected outcomes'
    entries.  With s1 = sum(p a) and s2 = sum(p a^2) the derivatives are
    p_c (a_c - s1) and p_c (a_c^2 - s2 - 2 s1 (a_c - s1)), so only the
    selected outcomes' terms are formed.
    """
    return selected_derivatives(p_c, a_c, *score_sums(p, a))


def selected_derivatives(p_c, a_c, s1, s2, out=None):
    """``derivative_arrays`` from the sums s1 = sum(p a) and s2 = sum(p a^2).

    Written in ``out``, three float64 arrays (first, second, scratch) of the
    broadcast shape of the inputs, allocated if not given: the first two
    receive the derivatives, which are returned.  ``second`` may be ``s2``
    and ``scratch`` may be ``s1``.
    """
    if out is None:
        shape = np.broadcast_shapes(*map(np.shape, (p_c, a_c, s1, s2)))
        out = [np.empty(shape) for _ in range(3)]
    first, second, scratch = out
    # p_c * (a_c - s1) and p_c * (a_c * a_c - s2 - 2.0 * s1 * residual), one
    # operation at a time as Python evaluates them; s2 and s1 are read before
    # second and scratch are written
    np.subtract(np.multiply(a_c, a_c, out=first), s2, out=second)
    residual = np.subtract(a_c, s1, out=first)
    np.multiply(2.0, s1, out=scratch)
    np.multiply(scratch, residual, out=scratch)
    np.subtract(second, scratch, out=second)
    np.multiply(p_c, second, out=second)
    np.multiply(p_c, residual, out=first)
    return first, second


def probability_derivatives(
    theta_i: float,
    theta_j: float,
    color: int,
    h: Hyperparameters,
    draw_score_override: bool = False,
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """First and second derivatives of (p_win, p_draw, p_loss) in theta_i.

    With ``draw_score_override`` off these are the exact derivatives of the
    outcome model.  With it on, the draw coefficient is forced to 1/2
    throughout the algebra, which is the form the rating update consumes.
    """
    if not (math.isfinite(theta_i) and math.isfinite(theta_j)):
        raise ValueError(f"strengths must be finite, got {theta_i}, {theta_j}")
    _check_color(color)
    p = probability_array(theta_i, theta_j, color, h)
    a = score_coefficients(color, h, draw_score_override)
    first, second = derivative_arrays(p, a, p, a)
    return tuple(float(v) for v in first), tuple(float(v) for v in second)


def elo_to_latent(rating: float) -> float:
    """Convert an Elo rating to latent (logit-scale) strength."""
    if not math.isfinite(rating):
        raise ValueError(f"rating must be finite, got {rating}")
    return (rating - ELO_CENTER) / ELO_SCALE


def latent_to_elo(theta):
    """Convert latent strength (a float or an array) to a finite Elo rating."""
    with np.errstate(over="ignore"):
        elo = ELO_CENTER + ELO_SCALE * theta
    finite = np.isfinite(elo)
    if not finite.all():
        bad = float(np.ravel(theta)[~np.ravel(finite)][0])
        raise ValueError(f"strength {bad!r} has no finite Elo rating")
    return elo


def elo_sd_to_latent(sd: float) -> float:
    """Convert a standard deviation in Elo points to latent units."""
    if not (math.isfinite(sd) and sd > 0):
        raise ValueError(f"standard deviation must be positive, got {sd}")
    return sd / ELO_SCALE


def elo_winning_expectancy(rating_i: float, rating_j: float) -> float:
    """Classical expected score for player i given two Elo ratings."""
    if not (math.isfinite(rating_i) and math.isfinite(rating_j)):
        raise ValueError("ratings must be finite")
    return 1.0 / (1.0 + 10.0 ** (-(rating_i - rating_j) / 400.0))
