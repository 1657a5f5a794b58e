"""Command-line pipelines: rate, predict, optimize, validate, simulate.

Every subcommand is deterministic given its inputs and seed, writes
machine-readable delimited output, and exits 0 on success, 1 on input
errors, 2 on numerical degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import sys

import numpy as np

from . import hyperopt, model, oracle, simulate, store
from .engine import DegenerateUpdateError, EngineConfig, rate_columns
from .engine import run_period  # noqa: F401  re-exported; bench/layers.py traces it
from .model import Hyperparameters

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_DEGENERATE = 2

#: ``validate`` draws per game: focal mu, focal sigma, opponent mu, opponent
#: sigma, then two unit uniforms (color and outcome).
_VALIDATE_LOW = np.array([-1.0, 0.2, -1.0, 0.2, 0.0, 0.0])
_VALIDATE_HIGH = np.array([8.0, 1.2, 8.0, 1.2, 1.0, 1.0])


_HYPERPARAMETER_FIELDS = ("alpha0", "alpha1", "beta0", "beta1", "tau")
_CONFIG_FIELDS = ("sigma_cap", "default_prior_elo", "default_prior_sd_elo",
                  "rated_prior_sd_elo")

_RATE_REPORT_HEADER = ("player,games,elo_prior,rd_prior,elo_post,rd_post,elo_change,"
                       "mu_prior,sigma_prior,mu_post,sigma_post\n")


def _add_hyperparameter_flags(parser):
    group = parser.add_argument_group(
        "hyperparameters",
        "a flag not given takes the snapshot's value, or else the deployed value",
    )
    group.add_argument("--alpha0", type=float, help="white-advantage intercept")
    group.add_argument("--alpha1", type=float,
                       help="white-advantage slope in average strength")
    group.add_argument("--beta0", type=float, help="draw intercept")
    group.add_argument("--beta1", type=float, help="draw slope in average strength")
    group.add_argument("--tau", type=float, help="innovation standard deviation per period")


def _add_config_flags(parser):
    group = parser.add_argument_group(
        "engine configuration",
        "a flag not given takes the snapshot's value, or else the engine default",
    )
    group.add_argument("--sigma-cap", type=float,
                       help="rating-deviation growth cap (latent units)")
    group.add_argument("--no-draw-override", action="store_true", default=None,
                       help="use the model's own draw score instead of 1/2")
    group.add_argument("--default-prior-elo", type=float)
    group.add_argument("--default-prior-sd-elo", type=float)
    group.add_argument("--rated-prior-sd-elo", type=float)


def _override(stored, given: dict, from_snapshot: bool):
    """``stored`` with the flag values ``given``; where ``stored`` came from a
    snapshot, each given value that differs from it is reported."""
    for name, value in given.items():
        kept = getattr(stored, name)
        if from_snapshot and value != kept:
            flag = ("--no-draw-override" if name == "draw_score_override"
                    else f"--{name.replace('_', '-')} {value!r}")
            print(f"warning: {flag} overrides snapshot value {kept!r}", file=sys.stderr)
    return dataclasses.replace(stored, **given)


def _hyperparameters(args, snapshot=None) -> Hyperparameters:
    """The flags given, then the snapshot's values, then the deployed values."""
    given = {name: getattr(args, name) for name in _HYPERPARAMETER_FIELDS
             if getattr(args, name) is not None}
    stored = snapshot.hyperparameters if snapshot else model.DEFAULT_HYPERPARAMETERS
    return _override(stored, given, snapshot is not None)


def _config(args, snapshot=None) -> EngineConfig:
    """The flags given, then the snapshot's config, then ``EngineConfig()``."""
    given = {name: getattr(args, name) for name in _CONFIG_FIELDS
             if getattr(args, name) is not None}
    if args.no_draw_override:
        given["draw_score_override"] = False
    return _override(snapshot.config if snapshot else EngineConfig(), given,
                     snapshot is not None)


def _check_order(order, lowest):
    if not lowest <= order <= oracle.MAX_ORDER:
        raise ValueError(f"--order must be in {lowest}..{oracle.MAX_ORDER}, got {order}")


def _write_output(path, write) -> None:
    """``write(stream)`` to ``path`` in one step, or to stdout without a path."""
    with store.atomic_outputs(path) as (fh,):
        write(fh or sys.stdout)


def _warn_rejects(rejects, what):
    for line_no, reason in rejects:
        print(f"warning: {what} line {line_no}: {reason}", file=sys.stderr)


def cmd_rate(args) -> int:
    if args.snapshot:
        snapshot = store.read_snapshot_file(args.snapshot)
        period, columns = snapshot.period, snapshot.columns()
    else:
        snapshot, period, columns = None, 1, ((),) * 4
    ids, mu, sigma, played = columns
    h, cfg = _hyperparameters(args, snapshot), _config(args, snapshot)

    games, rejects = store.read_games(args.games)
    _warn_rejects(rejects, "games")
    periods = {g.period for g in games}
    if len(periods) > 1:
        raise ValueError(f"rate expects a single period per file, got {sorted(periods)}")
    if periods and periods != {period}:
        raise ValueError(
            f"games are for period {periods.pop()}, snapshot expects {period}"
        )

    step = rate_columns(ids, mu, sigma, games, h, cfg)
    elo = _elo_columns(step)
    played = [*played, 0]  # row -1: a player new in this period
    games_text = (str(played[k] + n) for k, n in zip(step.source.tolist(), step.counts.tolist()))
    mu_text = list(map(repr, step.mu_post.tolist()))
    with store.atomic_outputs(args.out_snapshot, args.report) as (snapshot_fh, report_fh):
        store.write_snapshot(snapshot_fh, period + 1, h, cfg, step.ids, mu_text,
                             map(repr, step.sigma_next.tolist()), games_text)
        if report_fh:
            _write_report(report_fh, step, elo, mu_text)
    if not args.report:
        _write_report(sys.stdout, step, elo, mu_text)
    return EXIT_OK


def _elo_columns(step) -> tuple:
    """The report's Elo rating and RD before and after the period, and the
    change; a player with one of them not finite is refused by name."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.stack([step.mu_prior, step.sigma_prior, step.mu_post, step.sigma_post])
        scaled *= model.ELO_SCALE
        off = np.flatnonzero(~np.isfinite([*scaled, scaled[2] - scaled[0]]).all(axis=0))
    if off.size:
        k = off[0]
        raise ValueError(f"player {step.ids[k]!r} has an Elo rating or RD that is not finite "
                         f"(mu {step.mu_prior[k].item()!r}, sigma {step.sigma_prior[k].item()!r})")
    elo_prior, elo_post = model.latent_to_elo(step.mu_prior), model.latent_to_elo(step.mu_post)
    return elo_prior, scaled[1], elo_post, scaled[3], elo_post - elo_prior


def _write_report(fh, step, elo, mu_text) -> None:
    """The report from ``elo = _elo_columns(step)``, ``ROWS_PER_BLOCK`` players
    at a time, each number formatted once.  A player with no game in the period
    has a posterior equal to the prior bit for bit, so its posterior columns take
    the prior's texts (the change ``0.00``), and both mu columns ``mu_text``."""
    fixed = "{:.2f}".format
    fh.write(_RATE_REPORT_HEADER)
    for start in range(0, len(step.ids), store.ROWS_PER_BLOCK):
        rows = slice(start, start + store.ROWS_PER_BLOCK)
        active = np.flatnonzero(step.counts[rows])

        def patched(text, column, fmt):
            text = text.copy()
            for k, value in zip(active.tolist(), map(fmt, column[rows][active].tolist())):
                text[k] = value
            return text

        elo_prior, rd_prior = (list(map(fixed, c[rows].tolist())) for c in elo[:2])
        sigma_prior, mu_post = list(map(repr, step.sigma_prior[rows].tolist())), mu_text[rows]
        fh.writelines(store.delimited_lines(
            step.ids[rows], patched(["0"] * len(mu_post), step.counts, str), elo_prior,
            rd_prior, patched(elo_prior, elo[2], fixed), patched(rd_prior, elo[3], fixed),
            patched(["0.00"] * len(mu_post), elo[4], fixed),
            patched(mu_post, step.mu_prior, repr), sigma_prior, mu_post,
            patched(sigma_prior, step.sigma_post, repr),
        ))


def cmd_predict(args) -> int:
    _check_order(args.order, 1)
    snapshot = store.read_snapshot_file(args.snapshot)
    h, cfg = _hyperparameters(args, snapshot), _config(args, snapshot)
    ids, mu, sigma, _ = map(list, snapshot.columns())
    index = {pid: k for k, pid in enumerate(ids)}

    def lookup(pid) -> int:
        """Row of a player; an unknown player gets a new row at the default prior."""
        k = index.get(pid)
        if k is None:
            print(f"warning: unknown player {pid!r}, using default prior",
                  file=sys.stderr)
            default = cfg.default_belief(pid)
            k = len(mu)
            mu.append(default.mu)
            sigma.append(default.sigma)
        return k

    fixtures, rows = [], []
    with open(args.fixtures, newline="", encoding=store.INPUT_ENCODING) as fh:
        for line_no, fields in enumerate(csv.reader(fh), start=1):
            if not fields or (line_no == 1 and fields[0].strip().lower() == "white"):
                continue
            if len(fields) != 2 or not fields[0].strip() or not fields[1].strip():
                print(f"warning: fixtures line {line_no}: expected 'white,black'",
                      file=sys.stderr)
                continue
            white, black = (c.strip() for c in fields)
            fixtures.append((line_no, white, black))
            rows.append((lookup(white), lookup(black)))

    mu, sigma = np.array(mu), np.array(sigma)
    w, b = np.array(rows, dtype=np.intp).reshape(-1, 2).T
    p = hyperopt.predictive_probability_array(mu[w], sigma[w], mu[b], sigma[b], h,
                                              order=args.order)
    bad = np.flatnonzero(~np.isfinite(p).all(axis=1))
    if bad.size:
        raise ValueError(f"fixtures line {fixtures[bad[0]][0]}: non-finite outcome "
                         f"probabilities {p[bad[0]].tolist()}")
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 when a draw is certain
        decisive = p[:, 0] / (p[:, 0] + p[:, 2])

    def write(fh):
        fh.write("white,black,p_win,p_draw,p_loss,p_win_decisive\n")
        _, whites, blacks = zip(*fixtures) if fixtures else ((),) * 3
        fh.writelines(store.delimited_lines(
            whites, map(store.csv_field, blacks),
            *(map(repr, column) for column in (*p.T.tolist(), decisive.tolist())),
        ))

    _write_output(args.out, write)
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = _config(args)
    games, rejects = store.read_games(args.games)
    _warn_rejects(rejects, "games")
    initial_state = None
    if args.ratings:
        ratings, rejects = store.read_ratings(args.ratings)
        _warn_rejects(rejects, "ratings")
        initial_state = store.initialize_priors(ratings, cfg)

    trace = hyperopt.TraceRecorder()
    # the outputs are opened first, so one that cannot be written is
    # refused before the search runs
    with store.atomic_outputs(args.trace, args.out) as (trace_fh, out_fh):
        result = hyperopt.optimize(
            games, cfg, args.train_until,
            fix_alpha=not args.free_alpha,
            initial_state=initial_state,
            trace=trace,
        )
        b = result.best
        if trace_fh:
            trace_fh.write(trace.to_delimited())
        fh = out_fh or sys.stdout
        fh.write("parameter,value\n")
        for name in _HYPERPARAMETER_FIELDS:
            fh.write(f"{name},{getattr(b, name)!r}\n")
        fh.write(f"objective,{result.objective!r}\n")
        fh.write(f"evaluations,{result.evaluations}\n")
        fh.write(f"converged,{int(result.converged)}\n")
    if not result.converged:
        print("error: no start improved on its initial point; the table holds the best start",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK


def cmd_validate(args) -> int:
    _check_order(args.order, 2)
    h = _hyperparameters(args)
    cfg = _config(args)
    rng = np.random.default_rng(args.seed)
    # per game, in draw order: focal mu and sigma, opponent mu and sigma,
    # the color uniform and the outcome uniform
    uniforms = rng.uniform(_VALIDATE_LOW, _VALIDATE_HIGH, size=(max(args.games, 0), 6))
    focal_mu, focal_sigma, opp_mu, opp_sigma, color_u, outcome_u = uniforms.T
    black = color_u >= 0.5
    p = hyperopt.predictive_probability_array(focal_mu, focal_sigma, opp_mu, opp_sigma, h)
    p = np.where(black[:, None], p[:, ::-1], p)  # from the focal player's side
    outcome = (outcome_u[:, None] < p.cumsum(axis=1)).argmax(axis=1)
    games = oracle.GameColumns(focal_mu, focal_sigma, opp_mu, opp_sigma, outcome,
                               np.where(black, -1.0, 1.0))
    report = oracle.compare_updates(games, h, cfg, order=args.order,
                                    stratify=args.stratify)
    text = report.to_delimited()
    _write_output(args.out, lambda fh: fh.write(text))
    if report.excluded:
        print(f"warning: {report.excluded} games excluded", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args) -> int:
    h = _hyperparameters(args)
    cfg = simulate.LeagueConfig(
        players=args.players,
        periods=args.periods,
        games_per_period=args.games_per_period,
        pairing=args.pairing,
        initial_mean=args.initial_mean,
        initial_sd=args.initial_sd,
        seed=args.seed,
    )
    league = simulate.simulate_league(cfg, h)
    with store.atomic_outputs(args.out_games, args.out_strengths) as (games_fh, strengths_fh):
        store.write_games(league.games, games_fh)
        if strengths_fh:
            strengths_fh.write(",".join(
                ["player"] + [f"period_{t}" for t in range(1, cfg.periods + 1)]) + "\n")
            strengths_fh.writelines(store.delimited_lines(
                map(simulate.player_name, range(cfg.players)),
                *(map(repr, column) for column in league.true_strengths.T.tolist()),
            ))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="drawrating",
        description="Rating engine for win/draw/loss games with "
                    "strength-dependent draw probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rate = sub.add_parser("rate", help="apply one rating period")
    rate.add_argument("--games", required=True, help="game CSV for one period")
    rate.add_argument("--snapshot", help="input rating snapshot (omit to start fresh)")
    rate.add_argument("--out-snapshot", required=True)
    rate.add_argument("--report", help="per-player update report CSV (default stdout)")
    _add_hyperparameter_flags(rate)
    _add_config_flags(rate)

    predict = sub.add_parser("predict", help="outcome probabilities for fixtures")
    predict.add_argument("--snapshot", required=True)
    predict.add_argument("--fixtures", required=True, help="CSV of white,black pairs")
    predict.add_argument("--out")
    predict.add_argument("--order", type=int, default=3, help="quadrature order")
    _add_hyperparameter_flags(predict)
    _add_config_flags(predict)

    optimize = sub.add_parser("optimize", help="tune hyperparameters on game history")
    optimize.add_argument("--games", required=True)
    optimize.add_argument("--train-until", type=int, required=True,
                          help="last period used purely for training")
    optimize.add_argument("--ratings", help="CSV of player,elo initial ratings")
    optimize.add_argument("--free-alpha", action="store_true",
                          help="also optimize the white-advantage parameters")
    optimize.add_argument("--trace", help="write the evaluation trace CSV here")
    optimize.add_argument("--out")
    _add_config_flags(optimize)

    validate = sub.add_parser(
        "validate", help="compare fast updates against the quadrature oracle"
    )
    validate.add_argument("--games", type=int, default=1000)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--order", type=int, default=9)
    validate.add_argument("--stratify", action="store_true")
    validate.add_argument("--out")
    _add_hyperparameter_flags(validate)
    _add_config_flags(validate)

    sim = sub.add_parser("simulate", help="generate a synthetic league")
    sim.add_argument("--players", type=int, required=True)
    sim.add_argument("--periods", type=int, required=True)
    sim.add_argument("--games-per-period", type=int, required=True)
    sim.add_argument("--pairing", choices=["rating-banded", "uniform-random"],
                     default="rating-banded")
    sim.add_argument("--initial-mean", type=float, default=0.0)
    sim.add_argument("--initial-sd", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-games", required=True)
    sim.add_argument("--out-strengths")
    _add_hyperparameter_flags(sim)

    return parser


def _joined_numbers(argv: list) -> list:
    """``argv`` with each ``--flag`` and a next token that reads as a negative
    number joined into ``--flag=value``, up to a ``--``: argparse takes a
    separate ``-1e308`` or ``-inf`` for an option, not for the flag's value."""
    args = list(argv)
    end = args.index("--") if "--" in args else len(args)
    # backwards, so that a join does not move the tokens left to scan
    for k in range(end - 1, 0, -1):
        flag, value = args[k - 1], args[k]
        if flag.startswith("--") and "=" not in flag and value.startswith("-"):
            try:
                float(value)
            except ValueError:
                continue
            args[k - 1:k + 1] = [f"{flag}={value}"]
    return args


def main(argv=None) -> int:
    args = build_parser().parse_args(_joined_numbers(sys.argv[1:] if argv is None else argv))
    # looked up at each call, so a replaced module attribute takes effect
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except DegenerateUpdateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, OSError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
