"""Rating engine for win/draw/loss games with strength-dependent draws."""

from .engine import (
    DegenerateUpdateError,
    EngineConfig,
    GameTerm,
    PeriodUpdate,
    PlayerBelief,
    advance_time,
    game_term,
    period_update,
    run_period,
)
from .model import (
    DEFAULT_HYPERPARAMETERS,
    Hyperparameters,
    elo_to_latent,
    elo_winning_expectancy,
    latent_to_elo,
    outcome_probabilities,
    probability_derivatives,
    score_coefficients,
)
from .store import GameRecord, RatingSnapshot, initialize_priors, parse_games

__version__ = "0.1.0"
