"""``drawrating rate``'s outputs against a plain reference writer, its refusal
of values beyond the Elo scale, its memory, and mutated input files."""

import contextlib
import csv
import functools
import io
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drawrating import cli, engine, model, store
from drawrating.engine import EngineConfig


def reference_rate(args) -> int:
    """``cli.cmd_rate`` with every number of both outputs formatted in full,
    for every player, as the command did before an idle player's posterior
    took its prior's texts; the inputs must be valid."""
    if args.snapshot:
        snapshot = store.read_snapshot_file(args.snapshot)
        period, columns = snapshot.period, snapshot.columns()
    else:
        snapshot, period, columns = None, 1, ((),) * 4
    ids, mu, sigma, played = columns
    h, cfg = cli._hyperparameters(args, snapshot), cli._config(args, snapshot)

    games, rejects = store.read_games(args.games)
    cli._warn_rejects(rejects, "games")
    assert {g.period for g in games} <= {period}

    step = engine.rate_columns(ids, mu, sigma, games, h, cfg)
    elo_prior = model.latent_to_elo(step.mu_prior)
    elo_post = model.latent_to_elo(step.mu_post)
    counts = step.counts.tolist()
    played = [*played, 0]  # row -1: a player new in this period
    games_text = [str(played[k] + n) for k, n in zip(step.source.tolist(), counts)]
    mu_post = list(map(repr, step.mu_post.tolist()))

    def write_report(fh):
        fixed = (map("{:.2f}".format, column.tolist()) for column in (
            elo_prior, step.sigma_prior * model.ELO_SCALE,
            elo_post, step.sigma_post * model.ELO_SCALE, elo_post - elo_prior,
        ))
        fh.write("player,games,elo_prior,rd_prior,elo_post,rd_post,elo_change,"
                 "mu_prior,sigma_prior,mu_post,sigma_post\n")
        fh.writelines(store.delimited_lines(
            step.ids, map(str, counts), *fixed,
            map(repr, step.mu_prior.tolist()), map(repr, step.sigma_prior.tolist()),
            mu_post, map(repr, step.sigma_post.tolist()),
        ))

    with store.atomic_outputs(args.out_snapshot, args.report) as (snapshot_fh, report_fh):
        store.write_snapshot(snapshot_fh, period + 1, h, cfg, step.ids, mu_post,
                             map(repr, step.sigma_next.tolist()), games_text)
        if report_fh:
            write_report(report_fh)
    if not args.report:
        write_report(sys.stdout)
    return cli.EXIT_OK


def _write_inputs(directory, entries, games, period=2):
    """A snapshot of ``entries`` expecting ``period`` (none for ``None``) and a
    games file of ``(white, black, result)`` rows for that period."""
    snapshot = None
    if entries is not None:
        snapshot = os.path.join(directory, "in.snapshot")
        store.write_snapshot_file(store.RatingSnapshot(
            period, entries, model.DEFAULT_HYPERPARAMETERS, EngineConfig()), snapshot)
    path = os.path.join(directory, "games.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        store.write_games([store.GameRecord(period, w, b, r) for w, b, r in games], fh)
    return snapshot, path


def _outputs(directory, command, snapshot, games, flags, report: bool):
    """Exit code, snapshot, report (or stdout) and stderr of ``command``."""
    out, report_path = (os.path.join(directory, name) for name in ("out.snapshot", "r.csv"))
    argv = ["rate", "--games", games, "--out-snapshot", out, *flags]
    argv += ["--snapshot", snapshot] if snapshot else []
    argv += ["--report", report_path] if report else []
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = command(cli.build_parser().parse_args(argv))
    with open(out, "rb") as fh:
        written = fh.read()
    if report:
        with open(report_path, "rb") as fh:
            text = fh.read()
    else:
        text = stdout.getvalue().encode()
    return code, written, text, stderr.getvalue()


def _assert_as_reference(entries, games, flags=()):
    """``cmd_rate`` writes the reference's bytes, to a report file and to stdout."""
    for report in (True, False):
        got = {}
        for name, command in (("change", cli.cmd_rate), ("reference", reference_rate)):
            with tempfile.TemporaryDirectory() as tmp:
                snapshot, path = _write_inputs(tmp, entries, games,
                                               period=2 if entries is not None else 1)
                got[name] = _outputs(tmp, command, snapshot, path, flags, report)
        assert got["change"] == got["reference"]


class TestAgainstTheReferenceWriter:
    def test_negative_zero_means_that_play_end_at_positive_zero(self):
        """Two players at mu = -0.0 and sigma = 0.6 drawing at beta1 = 0 move to
        +0.0: their rows are formatted anew although mu_post == mu_prior, while
        the idle player keeps "-0.0"."""
        entries = [("a", -0.0, 0.6, 1), ("b", -0.0, 0.6, 1), ("idle", -0.0, 0.5, 1)]
        games = [("a", "b", 0.5)]
        with tempfile.TemporaryDirectory() as tmp:
            snapshot, path = _write_inputs(tmp, entries, games)
            _, written, report, _ = _outputs(tmp, cli.cmd_rate, snapshot, path,
                                             ["--beta1", "0"], True)
        assert b"\na,0.0," in written and b"\nidle,-0.0," in written
        rows = report.decode().splitlines()[1:]
        assert [row.split(",")[7:10:2] for row in rows] == [
            ["-0.0", "0.0"], ["-0.0", "0.0"], ["-0.0", "-0.0"]]
        _assert_as_reference(entries, games, ["--beta1", "0"])

    def test_idle_new_and_capped_players(self):
        cap = EngineConfig().sigma_cap
        entries = [("active", 0.3, 0.4, 2), ("idle", 1.25, 0.3, 7),
                   ("capped", -0.5, cap, 0), ("over-cap", 2.0, 2 * cap, 4),
                   ("capped-idle", 0.1, cap, 1), ("low", -2.9, 0.05, 11)]
        games = [("active", "new", 1.0), ("capped", "active", 0.5),
                 ("over-cap", "newer", 0.0), ("low", "new", 0.5)]
        _assert_as_reference(entries, games)

    def test_a_quoted_id(self):
        entries = [('q,"r"', 0.7, 0.2, 1), ("s\nt", -0.7, 0.6, 1), ("plain", 0.0, 0.5, 0)]
        _assert_as_reference(entries, [('q,"r"', "u,v", 1.0)])

    def test_a_fresh_start(self):
        _assert_as_reference(None, [("a", "b", 1.0), ("b", "c", 0.5)])

    @given(
        st.lists(st.tuples(
            st.one_of(st.floats(-4.0, 6.0), st.sampled_from([0.0, -0.0])),
            st.one_of(st.floats(0.05, 1.0), st.sampled_from([0.691, 0.9])),
            st.integers(0, 30)), max_size=6),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                           st.sampled_from([1.0, 0.5, 0.0])), max_size=8),
        st.sampled_from([(), ("--beta1", "0"), ("--alpha0", "0.3")]),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_periods(self, rows, pairs, flags):
        """Players 0-5 may be tracked, 6 and 7 are new; a game between a player
        and themself is dropped."""
        names = ["p0", "p,1", 'p"2', "p3", "p4", "p5", "n6", "n7"]
        entries = [(names[k], mu, sigma, n) for k, (mu, sigma, n) in enumerate(rows)]
        games = [(names[w], names[b], r) for w, b, r in pairs if w != b]
        _assert_as_reference(entries, games, flags)


class TestOffTheEloScale:
    """A finite strength or sd whose Elo value overflows is refused before any
    output is written."""

    @pytest.mark.parametrize("row,games", [
        ("big,1e307,0.5,2", "2,a,b,1\n"),
        ("big,0.2,1e307,1", "2,a,b,1\n"),
        ("big,0.2,1e307,1", "2,a,big,1\n"),
        ("big,-1e307,0.5,2", "2,a,b,0.5\n"),
    ])
    def test_is_one_error_naming_the_player(self, tmp_path, capsys, row, games):
        snapshot = tmp_path / "in.snapshot"
        snapshot.write_text("drawrating-snapshot v1\nperiod 2\n"
                            "hyperparameters 0.0 0.0 -1.1 0.15 0.05\n"
                            "config 2.0 1 1500.0 350.0 100.0\n"
                            f"players 3\na,0.1,0.5,1\nb,0.2,0.5,1\n{row}\n")
        (tmp_path / "g.csv").write_text(f"period,white,black,result\n{games}")
        out = tmp_path / "out.snapshot"
        out.write_text("older\n")
        argv = ["rate", "--games", tmp_path / "g.csv", "--snapshot", snapshot,
                "--out-snapshot", out, "--report", tmp_path / "r.csv"]
        assert cli.main([str(a) for a in argv]) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: player 'big' has an Elo rating or RD that is not "
                              "finite") and err.count("\n") == 1
        assert out.read_text() == "older\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "in.snapshot",
                                                              "out.snapshot"]

    def test_latent_to_elo_refuses_a_result_that_overflows(self):
        with pytest.raises(ValueError, match=r"strength 1e\+307 has no finite Elo"):
            model.latent_to_elo(1e307)
        with pytest.raises(ValueError, match=r"strength -1e\+307 has no finite Elo"):
            model.latent_to_elo(np.array([0.0, -1e307]))
        with pytest.raises(ValueError, match="strength nan"):
            model.latent_to_elo(float("nan"))
        assert model.latent_to_elo(1e305) == 1500.0 + model.ELO_SCALE * 1e305


def test_peak_memory_of_one_command(fresh_python):
    """One ``rate`` command on 5 000 tracked players and a 2 000-game period,
    after a first one: its tracemalloc peak was 3.81 MB before the report was
    formatted a block at a time, and 2.85 MB after it."""
    got = fresh_python("""
        import json, os, random, tempfile, tracemalloc
        from drawrating import cli, store
        from drawrating.engine import EngineConfig
        from drawrating.model import Hyperparameters

        rng = random.Random(7)
        entries = [(f"p{k:05d}", rng.uniform(-3.0, 5.0), 0.5756462732485115,
                    rng.randrange(40)) for k in range(5_000)]
        with tempfile.TemporaryDirectory() as tmp:
            snap, games = (os.path.join(tmp, name) for name in ("in.snapshot", "g.csv"))
            store.write_snapshot_file(
                store.RatingSnapshot(4, entries, Hyperparameters(), EngineConfig()), snap)
            del entries
            with open(games, "w", encoding="utf-8") as fh:
                fh.write("period,white,black,result\\n")
                for _ in range(2_000):
                    w, b = rng.sample(range(5_400), 2)
                    fh.write(f"4,p{w:05d},p{b:05d},{rng.choice('WDL')}\\n")
            argv = ["rate", "--games", games, "--snapshot", snap,
                    "--out-snapshot", os.path.join(tmp, "out.snapshot"),
                    "--report", os.path.join(tmp, "report.csv")]
            cli.main(argv)
            tracemalloc.start()
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        print(json.dumps({"code": code, "peak": peak}))
    """)
    assert got["code"] == cli.EXIT_OK
    assert got["peak"] < 4_110_000


_BASE_GAMES = ("period,white,black,result\n2,anna,bert,1\n2,cara,anna,0.5\n"
               "2,bert,dora,D\n2,dora,cara,L\n2,anna,dora,0\n")
_BASE_FIXTURES = "white,black\nanna,bert\ncara,anna\nbert,dora\ndora,cara\n"
_BASE_RATINGS = "player,elo\nanna,1900\nbert,1750\ncara,1600\n"
_JUNK = st.one_of(
    st.text(alphabet='x9-.,"\r\n\0 é١_', min_size=1, max_size=6),
    st.sampled_from(["3", "1", "0", "-2", "1_0", "9" * 40, "nan", "1e999", "0.5", "W"]))


@st.composite
def _mutated(draw, base):
    """The bytes of the input file ``base`` that may be cut short, have a
    field replaced, dropped or added, a line repeated or removed, or junk
    bytes (possibly not UTF-8) spliced in."""
    lines = base.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["field", "line", "bytes"]))
        at = draw(st.integers(0, len(lines) - 1))
        if kind == "field":
            fields = lines[at].split(",")
            k = draw(st.integers(0, len(fields) - 1))
            edit = draw(st.sampled_from(["replace", "drop", "add"]))
            if edit == "replace":
                fields[k] = draw(_JUNK)
            elif edit == "drop":
                del fields[k]
            else:
                fields.insert(k, draw(_JUNK))
            lines[at] = ",".join(fields)
        elif kind == "line":
            if draw(st.booleans()):
                lines.insert(at, lines[draw(st.integers(0, len(lines) - 1))])
            else:
                del lines[at]
                lines = lines or [""]
        else:
            lines[at] += draw(_JUNK)
    data = "\n".join(lines).encode()
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.binary(max_size=3)) + data[cut:]
    return data[:draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


class TestMutatedInputFiles:
    """``rate`` on a games file, ``predict`` on a fixtures file and
    ``optimize`` on a ratings file that is mutated or cut short exit 0, 1 or 2
    with at most one ``error:`` line (the last) and no traceback, leave no
    partial file and change no existing output unless they succeed; but
    ``optimize`` writes its table (``converged,0``) and trace also when no
    start improves, and exits 1."""

    # per input file: the command, with "input.csv" in the file's place, and its outputs
    COMMANDS = {
        "games": (["rate", "--games", "input.csv", "--out-snapshot", "out.snapshot",
                   "--report", "report.csv"], ("out.snapshot", "report.csv")),
        "fixtures": (["predict", "--snapshot", "in.snapshot", "--fixtures", "input.csv",
                      "--out", "predictions.csv"], ("predictions.csv",)),
        "ratings": (["optimize", "--games", "games.csv", "--train-until", "1",
                     "--ratings", "input.csv", "--out", "fit.csv", "--trace", "trace.csv"],
                    ("fit.csv", "trace.csv")),
    }

    @given(_mutated(_BASE_GAMES), st.booleans())
    @example(b"period,white,black,result\n2,anna,bert,1\n2,anna", True)
    @example(b"period,white,black,result\n2,anna,bert,1\n\xff,bert,anna,1\n", True)
    @example(b"period,white,black,result\n1,anna,bert,1\n", False)
    @example(b'period,white,black,result\n2,"anna,bert,1\n', True)
    @settings(max_examples=200, deadline=None)
    def test_games_file(self, data, with_snapshot):
        self.ends_cleanly("games", data, ["--snapshot", "in.snapshot"] if with_snapshot else [])

    @given(_mutated(_BASE_FIXTURES))
    @settings(max_examples=100, deadline=None)
    def test_fixtures_file(self, data):
        self.ends_cleanly("fixtures", data)

    # each run fits the hyperparameters, in about a quarter of a second
    @given(_mutated(_BASE_RATINGS))
    @settings(max_examples=20, deadline=None)
    def test_ratings_file(self, data):
        self.ends_cleanly("ratings", data)

    def ends_cleanly(self, kind, data, flags=()):
        argv, outputs = self.COMMANDS[kind]
        with tempfile.TemporaryDirectory() as tmp:
            path = functools.partial(os.path.join, tmp)
            store.write_snapshot_file(store.RatingSnapshot(
                2, [("anna", 0.5, 0.4, 3), ("bert", 1.0, 0.6, 5), ("cara", -0.2, 0.691, 0)],
                model.DEFAULT_HYPERPARAMETERS, EngineConfig()), path("in.snapshot"))
            with open(path("games.csv"), "w", encoding="utf-8") as fh:
                fh.write("1,anna,bert,1\n1,bert,cara,0.5\n1,cara,dora,0\n"
                         "2,anna,cara,1\n2,dora,anna,0.5\n2,cara,bert,1\n")
            with open(path("input.csv"), "wb") as fh:
                fh.write(data)
            older = {}
            for name in outputs:
                older[name] = f"an older {name}\n"
                with open(path(name), "w", encoding="utf-8") as fh:
                    fh.write(older[name])
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([path(a) if a.endswith((".csv", ".snapshot")) else a
                                 for a in [*argv, *flags]])
            lines = err.getvalue().splitlines()
            errors = [line for line in lines if line.startswith("error:")]
            assert "Traceback" not in err.getvalue()
            assert not [n for n in os.listdir(tmp) if n.startswith(".partial-")]
            changed = set()
            for name, content in older.items():
                with open(path(name), encoding="utf-8") as fh:
                    if fh.read() != content:
                        changed.add(name)
            if code == cli.EXIT_OK:
                assert errors == []
            else:
                assert code in (cli.EXIT_INPUT_ERROR, cli.EXIT_DEGENERATE), lines
                assert errors == lines[-1:], lines
            if code != cli.EXIT_OK and not (kind == "ratings" and changed):
                assert not changed
                return
            assert changed == set(outputs)
            with open(path(outputs[0]), newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            if kind == "games":
                snapshot = store.read_snapshot_file(path("out.snapshot"))
                with open(path("report.csv"), encoding="utf-8") as fh:
                    assert sum(1 for _ in fh) == 1 + len(snapshot.entries)
            elif kind == "fixtures":
                assert rows[0] == ["white", "black", "p_win", "p_draw", "p_loss",
                                   "p_win_decisive"]
                assert all(len(row) == 6 and math.isclose(sum(map(float, row[2:5])), 1.0)
                           for row in rows[1:])
            else:
                assert dict(rows[1:])["converged"] == str(int(code == cli.EXIT_OK))
