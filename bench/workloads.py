"""The four benchmark workloads: inputs from a seed, timed passes, output checks.

Each workload builds its inputs in ``setup`` (timed as ``setup_s``), then
runs passes.  A pass is made of short timed units: ``fit`` calls
``hyperopt.optimize`` and each objective evaluation is a unit; the CLI
workloads call ``cli.main`` in this process with the arguments an operator
would type, and each command is a unit.  A fixed calibration loop runs
before the first unit of a pass and after every unit, so that each unit can
be scaled by the host's speed at the time it ran (see ``README.md``).
Every pass checks its outputs; a failed check marks the pass's operations
as failed.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from drawrating import cli, engine, hyperopt, model, simulate, store

DEPLOYED = model.DEFAULT_HYPERPARAMETERS
CFG = engine.EngineConfig()
#: Longest the fresh-interpreter import check may take.
IMPORT_TIMEOUT_S = 120

SIZES = {
    "full": {
        "fit": dict(players=150, periods=8, games=1500, train_until=4),
        "rate": dict(players=5_000, games=2_000, warmup=3, chain=2, malformed=0.01),
        "predict": dict(players=5_000, games=2_000, warmup=3, fixtures=500,
                        unknown=0.02, malformed=0.005),
        "validate": dict(games=250, order=9),
    },
    "smoke": {
        "fit": dict(players=30, periods=4, games=150, train_until=2),
        "rate": dict(players=400, games=150, warmup=2, chain=2, malformed=0.02),
        "predict": dict(players=400, games=150, warmup=2, fixtures=300,
                        unknown=0.05, malformed=0.02),
        "validate": dict(games=60, order=9),
    },
}


@dataclass
class PassResult:
    seconds: float
    ops: int  # operations completed
    attempted: int
    failed: int
    latencies_ms: list  # one per unit: objective evaluation (fit) or CLI command
    unit_ops: list  # operations completed in each unit, parallel to latencies_ms
    calib_ms: list  # calibration_ms() before the first unit and after each unit
    problems: list = field(default_factory=list)  # failed output checks


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_cli_ms(env: dict, stderr_path: str) -> float:
    """Import time of ``drawrating.cli`` in a fresh interpreter, in ms."""
    code = ("import time; t = time.perf_counter(); import drawrating.cli; "
            "print(repr((time.perf_counter() - t) * 1e3))")
    with open(stderr_path, "w", encoding="utf-8") as err:
        out = subprocess.run([sys.executable, "-c", code], env=env, stderr=err,
                             stdout=subprocess.PIPE, text=True, check=True,
                             timeout=IMPORT_TIMEOUT_S)
    return float(out.stdout)


_CAL_X = np.random.default_rng(0).standard_normal(2000)
_CAL_BINS = np.random.default_rng(1).integers(0, 500, 2000)


def calibration_ms() -> float:
    """Time of a fixed loop that runs no drawrating code, in ms.

    It mixes interpreter work (string splitting, dict updates) with small
    numpy calls, like the workloads, and takes about 4 ms at full speed.
    """
    t0 = time.perf_counter()
    totals = {}
    for i in range(3000):
        _, key, value = f"{i},p{i % 997},{i * 0.5}".split(",")
        totals[key] = totals.get(key, 0.0) + float(value)
    for _ in range(30):
        y = np.exp(-0.5 * _CAL_X * _CAL_X)
        np.bincount(_CAL_BINS, weights=np.log1p(y), minlength=500)
    return (time.perf_counter() - t0) * 1e3


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def warning_lines(stderr_path: str, what: str) -> list[int]:
    """Line numbers the CLI warned about for one input file kind."""
    pattern = re.compile(rf"^warning: {what} line (\d+): ")
    with open(stderr_path, encoding="utf-8") as fh:
        return [int(m.group(1)) for m in map(pattern.match, fh) if m]


class Workload:
    name = ""

    def __init__(self, sizes: dict, seed: int, workdir: str, src: str):
        self.size = sizes[self.name]
        self.seed = seed
        self.workdir = workdir
        self.env = child_env(src)
        self._reference = None  # output digests of the first pass

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Untimed work the output checks need once, after setup."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def same_as_first(self, digest, problems: list) -> None:
        if self._reference is None:
            self._reference = digest
        elif digest != self._reference:
            problems.append("outputs differ from the first pass")

    def check_import(self) -> None:
        """Import ``drawrating.cli`` in a fresh interpreter: the start-up an
        operator's command pays before it does any work."""
        import_cli_ms(self.env, self.path("import.err"))

    @staticmethod
    def _cli(argv: list, stderr_path: str, calib_ms: list) -> tuple[int, float]:
        """Run one command; append a calibration after it to ``calib_ms``."""
        with open(stderr_path, "w", encoding="utf-8") as err, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
        calib_ms.append(calibration_ms())
        return code, seconds


class _TimedRecorder(hyperopt.TraceRecorder):
    """Trace hook that times each objective evaluation and calibrates after it.

    An evaluation's time runs from the end of the previous calibration to
    this hook, so it includes the optimizer's own step.
    """

    def __init__(self):
        super().__init__()
        self.latencies_ms = []
        self.calib_ms = [calibration_ms()]
        self._start = time.perf_counter()

    def record(self, h, objective):
        self.latencies_ms.append((time.perf_counter() - self._start) * 1e3)
        super().record(h, objective)
        self.calib_ms.append(calibration_ms())
        self._start = time.perf_counter()


class Fit(Workload):
    """``hyperopt.optimize`` from the deployed start, run to convergence."""

    name = "fit"

    def setup(self):
        s = self.size
        league = simulate.simulate_league(
            simulate.LeagueConfig(s["players"], s["periods"], s["games"],
                                  "uniform-random", 2.0, 1.5, seed=self.seed),
            DEPLOYED,
        )
        self.games = league.games
        self.initial_state = store.initialize_priors(simulate.initial_ratings(league), CFG)
        self.check_import()

    def prepare_checks(self):
        self.truth_objective = hyperopt.evaluate_hyperparameters(
            self.games, DEPLOYED, CFG, self.size["train_until"], self.initial_state
        ).total

    def run_pass(self):
        recorder = _TimedRecorder()
        result = hyperopt.optimize(
            self.games, CFG, self.size["train_until"], starts=[DEPLOYED],
            initial_state=self.initial_state, trace=recorder,
        )
        latencies = recorder.latencies_ms
        seconds = sum(latencies) / 1e3
        attempted = len(recorder.rows)
        failed = sum(1 for _, _, objective in recorder.rows if objective == -math.inf)

        problems = []
        if not result.converged:
            problems.append("optimizer did not converge")
        if not result.objective >= self.truth_objective:
            problems.append(f"fitted objective {result.objective!r} is below the "
                            f"objective at the generating values {self.truth_objective!r}")
        self.same_as_first(repr((result.best, result.objective, result.evaluations)), problems)
        self.recovery_error = (abs(result.best.beta0 - DEPLOYED.beta0),
                               abs(result.best.beta1 - DEPLOYED.beta1),
                               abs(result.best.tau - DEPLOYED.tau))
        if problems:
            failed = attempted
        unit_ops = [0 if problems or objective == -math.inf else 1
                    for _, _, objective in recorder.rows]
        return PassResult(seconds, attempted - failed, attempted, failed, latencies,
                          unit_ops, recorder.calib_ms, problems)


def _population(size: dict, seed: int, periods: int, snapshot_path: str):
    """Simulate a sparse league and write its warm-up snapshot.

    The snapshot tracks every player seen in the first ``warmup`` periods,
    rated from a noisy Elo list of their strengths at the end of warm-up,
    and expects period ``warmup + 1`` next.
    """
    warmup = size["warmup"]
    league = simulate.simulate_league(
        simulate.LeagueConfig(size["players"], periods, size["games"],
                              "uniform-random", 2.0, 1.5, seed=seed),
        DEPLOYED,
    )
    played = collections.Counter()
    for g in league.games:
        if g.period <= warmup:
            played[g.white_id] += 1
            played[g.black_id] += 1
    rng = np.random.default_rng([seed, 1])
    elo = (model.ELO_CENTER + model.ELO_SCALE * league.true_strengths[:, warmup - 1]
           + rng.normal(0.0, 100.0, size["players"]))
    sigma = model.elo_sd_to_latent(CFG.rated_prior_sd_elo)
    entries = [(pid, model.elo_to_latent(float(elo[int(pid[1:])])), sigma, n)
               for pid, n in sorted(played.items())]
    store.write_snapshot_file(
        store.RatingSnapshot(warmup + 1, entries, DEPLOYED, CFG), snapshot_path
    )
    return league, [pid for pid, _, _, _ in entries]


def _malformed_game(period: int, white: str, black: str, kind: int) -> str:
    return [
        f"{period},{white},{black}",
        f"x{period},{white},{black},1",
        f"{period},,{black},1",
        f"{period},{white},{white},0.5",
        f"{period},{white},{black},2",
    ][kind]


class Rate(Workload):
    """Chained ``drawrating rate`` commands, one per period."""

    name = "rate"

    def setup(self):
        s = self.size
        first = s["warmup"] + 1
        league, _ = _population(s, self.seed, s["warmup"] + s["chain"], self.path("warm.snapshot"))
        rng = np.random.default_rng([self.seed, 2])
        self.periods = []  # (games path, data rows, injected line numbers)
        for period in range(first, first + s["chain"]):
            buf = io.StringIO()
            store.write_games([g for g in league.games if g.period == period], buf)
            header, *rows = buf.getvalue().splitlines()
            n_bad = max(1, round(len(rows) * s["malformed"]))
            slots = set(rng.choice(len(rows) + n_bad, n_bad, replace=False).tolist())
            lines, valid, injected = [header], iter(rows), []
            for k in range(len(rows) + n_bad):
                if k in slots:
                    white, black = (simulate.player_name(i)
                                    for i in rng.integers(s["players"], size=2))
                    lines.append(_malformed_game(period, white, black, int(rng.integers(5))))
                    injected.append(len(lines))
                else:
                    lines.append(next(valid))
            path = self.path(f"games-{period}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            self.periods.append((path, len(lines) - 1, injected))
        self.check_import()

    def run_pass(self):
        snapshot = self.path("warm.snapshot")
        latencies, unit_ops, outputs, problems = [], [], [], []
        calibs = [calibration_ms()]
        attempted = failed = 0
        for k, (games, rows, injected) in enumerate(self.periods):
            out_snapshot = self.path(f"out-{k}.snapshot")
            report = self.path(f"out-{k}-report.csv")
            stderr = self.path(f"out-{k}.err")
            code, seconds = self._cli(
                ["rate", "--games", games, "--snapshot", snapshot,
                 "--out-snapshot", out_snapshot, "--report", report],
                stderr, calibs,
            )
            latencies.append(seconds * 1e3)
            unit_ops.append(rows - len(injected))
            attempted += rows
            if code != 0:
                problems.append(f"rate exited {code} on {games}")
                failed += rows
                break
            mishandled = len(set(warning_lines(stderr, "games")) ^ set(injected))
            if mishandled:
                problems.append(f"{mishandled} rows of {games} rejected wrongly or not at all")
            failed += mishandled
            outputs += [out_snapshot, report]
            snapshot = out_snapshot
        seconds = sum(latencies) / 1e3
        if not problems:
            digest = [sha256(p) for p in outputs]
            if self._reference is None:
                self._check_artifacts(outputs, problems)
            self.same_as_first(digest, problems)
        if problems:
            return PassResult(seconds, 0, attempted, attempted, latencies,
                              [0] * len(latencies), calibs, problems)
        return PassResult(seconds, sum(unit_ops), attempted, 0, latencies, unit_ops, calibs)

    @staticmethod
    def _check_artifacts(outputs: list, problems: list) -> None:
        for snapshot, report in zip(outputs[::2], outputs[1::2]):
            try:
                players = len(store.read_snapshot_file(snapshot).entries)
            except ValueError as exc:
                problems.append(f"{snapshot} does not load: {exc}")
                continue
            with open(report, encoding="utf-8") as fh:
                report_rows = sum(1 for _ in fh) - 1
            if report_rows != players:
                problems.append(f"{report} has {report_rows} rows for {players} players")


class Predict(Workload):
    """``drawrating predict`` of a fixture file against a rated snapshot."""

    name = "predict"

    def setup(self):
        s = self.size
        _, tracked = _population(s, self.seed, s["warmup"], self.path("warm.snapshot"))
        rng = np.random.default_rng([self.seed, 3])
        lines, self.injected, self.unknown, self.valid = ["white,black"], [], 0, 0
        for _ in range(s["fixtures"]):
            if rng.random() < s["malformed"]:
                white = tracked[int(rng.integers(len(tracked)))]
                lines.append([white, f"{white},{white},{white}", f",{white}"][int(rng.integers(3))])
                self.injected.append(len(lines))
                continue
            pair = []
            while len(pair) < 2:
                if rng.random() < s["unknown"]:
                    pid = f"u{int(rng.integers(1_000_000)):06d}"
                else:
                    pid = tracked[int(rng.integers(len(tracked)))]
                if pid not in pair:
                    pair.append(pid)
            self.unknown += sum(1 for pid in pair if pid.startswith("u"))
            self.valid += 1
            lines.append(",".join(pair))
        with open(self.path("fixtures.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.check_import()

    def run_pass(self):
        out, stderr = self.path("out.csv"), self.path("out.err")
        calibs = [calibration_ms()]
        code, seconds = self._cli(
            ["predict", "--snapshot", self.path("warm.snapshot"),
             "--fixtures", self.path("fixtures.csv"), "--out", out],
            stderr, calibs,
        )
        attempted = self.valid + len(self.injected)
        problems = []
        if code != 0:
            problems.append(f"predict exited {code}")
        else:
            mishandled = len(set(warning_lines(stderr, "fixtures")) ^ set(self.injected))
            if mishandled:
                problems.append(f"{mishandled} fixture rows skipped wrongly or not at all")
            with open(stderr, encoding="utf-8") as fh:
                unknown = sum(1 for line in fh if line.startswith("warning: unknown player"))
            if unknown != self.unknown:
                problems.append(f"{unknown} unknown-player warnings, expected {self.unknown}")
            with open(out, encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            if len(rows) != self.valid:
                problems.append(f"{len(rows)} predictions for {self.valid} valid fixtures")
            worst = max((abs(sum(float(v) for v in row.split(",")[2:5]) - 1.0)
                         for row in rows), default=0.0)
            if not worst <= 1e-12:
                problems.append(f"probabilities sum to 1 only within {worst!r}")
            self.same_as_first(sha256(out), problems)
        if problems:
            return PassResult(seconds, 0, attempted, attempted, [seconds * 1e3], [0], calibs,
                              problems)
        return PassResult(seconds, self.valid, attempted, 0, [seconds * 1e3], [self.valid],
                          calibs)


class Validate(Workload):
    """``drawrating validate --order 9 --stratify``."""

    name = "validate"

    def setup(self):
        self.check_import()

    def run_pass(self):
        games = self.size["games"]
        out, stderr = self.path("out.csv"), self.path("out.err")
        calibs = [calibration_ms()]
        code, seconds = self._cli(
            ["validate", "--games", str(games), "--seed", str(self.seed),
             "--order", str(self.size["order"]), "--stratify", "--out", out],
            stderr, calibs,
        )
        problems, validated = [], 0
        if code != 0:
            problems.append(f"validate exited {code}")
        else:
            with open(out, encoding="utf-8") as fh:
                rows = {line.split(",")[0]: line.split(",") for line in fh.read().splitlines()}
            validated = int(rows["all"][1]) if "all" in rows else 0
            if validated != games:
                problems.append(f"{games - validated} games excluded")
            self.same_as_first(sha256(out), problems)
        ops = 0 if problems else validated
        return PassResult(seconds, ops, games, games - ops, [seconds * 1e3], [ops], calibs,
                          problems)


WORKLOADS = {w.name: w for w in (Fit, Rate, Predict, Validate)}
