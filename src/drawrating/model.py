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


def log_probability_array(theta_i, theta_j, color, h: Hyperparameters) -> np.ndarray:
    """Log outcome probabilities, stacked (win, draw, loss) on the last axis.

    Inputs broadcast; the result gains a trailing axis of length 3.  The
    normalization subtracts the max exponent, so extreme strengths stay
    finite.
    """
    theta_i = np.asarray(theta_i, dtype=float)
    theta_j = np.asarray(theta_j, dtype=float)
    color = np.asarray(color, dtype=float)
    avg = 0.5 * (theta_i + theta_j)
    advantage = color * (h.alpha0 + h.alpha1 * avg) / 4.0
    logits = np.stack(
        np.broadcast_arrays(
            theta_i + advantage,
            h.beta0 + (1.0 + h.beta1) * avg,
            theta_j - advantage,
        ),
        axis=-1,
    )
    shifted = logits - logits.max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):  # exact zeros are legal probabilities
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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


def score_coefficient_array(color, h: Hyperparameters, draw_score_override: bool) -> np.ndarray:
    """Score coefficients (a_win, a_draw, a_loss) on the last axis; broadcasts."""
    color = np.asarray(color, dtype=float)
    a_win = 1.0 + color * h.alpha1 / 8.0
    a_loss = -color * h.alpha1 / 8.0
    a_draw_value = 0.5 if draw_score_override else (1.0 + h.beta1) / 2.0
    a_draw = np.full_like(a_win, a_draw_value)
    return np.stack(np.broadcast_arrays(a_win, a_draw, a_loss), axis=-1)


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
    return score_coefficient_array(color, h, draw_score_override)


def derivative_arrays(p, a, columns):
    """Selected outcome probabilities and their first two theta_i-derivatives.

    ``p`` and ``a`` hold probabilities and score coefficients, (win, draw,
    loss) on the last axis; ``columns`` picks entries along that axis as in
    ``np.take_along_axis``.  With s1 = sum(p a) and s2 = sum(p a^2) the
    derivatives are p (a - s1) and p (a^2 - s2 - 2 s1 (a - s1)); only the
    selected columns' terms are formed.
    """
    s1 = np.einsum("...j,...j->...", p, a)[..., None]
    s2 = np.einsum("...j,...j->...", p, a * a)[..., None]
    p_c = np.take_along_axis(p, columns, axis=-1)
    a_c = np.take_along_axis(a, columns, axis=-1)
    return p_c, p_c * (a_c - s1), p_c * (a_c * a_c - s2 - 2.0 * s1 * (a_c - s1))


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
    _, first, second = derivative_arrays(
        probability_array(theta_i, theta_j, color, h),
        score_coefficient_array(color, h, draw_score_override),
        np.arange(3),
    )
    return tuple(float(v) for v in first), tuple(float(v) for v in second)


def elo_to_latent(rating: float) -> float:
    """Convert an Elo rating to latent (logit-scale) strength."""
    if not math.isfinite(rating):
        raise ValueError(f"rating must be finite, got {rating}")
    return (rating - ELO_CENTER) / ELO_SCALE


def latent_to_elo(theta: float) -> float:
    """Convert latent strength back to the Elo scale."""
    if not math.isfinite(theta):
        raise ValueError(f"strength must be finite, got {theta}")
    return ELO_CENTER + ELO_SCALE * theta


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
