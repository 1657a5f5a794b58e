"""End-to-end tests of the command-line pipelines."""

import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import math
import os
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drawrating import cli, engine, hyperopt, model, oracle, store
from drawrating.engine import EngineConfig


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def league_files(tmp_path):
    """A small simulated league split into per-period game files."""
    games_path = tmp_path / "league.csv"
    code = run([
        "simulate", "--players", 12, "--periods", 3, "--games-per-period", 60,
        "--initial-mean", 1.0, "--initial-sd", 1.0, "--seed", 21,
        "--out-games", games_path,
    ])
    assert code == cli.EXIT_OK
    games, rejects = store.read_games(str(games_path))
    assert rejects == []
    per_period = {}
    for t in (1, 2, 3):
        path = tmp_path / f"period{t}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            store.write_games([g for g in games if g.period == t], fh)
        per_period[t] = path
    return tmp_path, games_path, per_period


class TestRate:
    def test_fresh_start_and_chaining(self, league_files, capsys):
        tmp_path, _, per_period = league_files
        snap1 = tmp_path / "after1.snapshot"
        assert run(["rate", "--games", per_period[1],
                    "--out-snapshot", snap1]) == cli.EXIT_OK
        out = capsys.readouterr().out
        header = out.splitlines()[0].split(",")
        assert header[:2] == ["player", "games"]
        assert "elo_post" in header

        loaded = store.read_snapshot_file(str(snap1))
        assert loaded.period == 2
        assert all(games > 0 for _, _, _, games in loaded.entries)

        snap2 = tmp_path / "after2.snapshot"
        assert run(["rate", "--games", per_period[2], "--snapshot", snap1,
                    "--out-snapshot", snap2]) == cli.EXIT_OK
        assert store.read_snapshot_file(str(snap2)).period == 3

    def test_period_mismatch_is_input_error(self, league_files, capsys):
        tmp_path, _, per_period = league_files
        snap1 = tmp_path / "after1.snapshot"
        run(["rate", "--games", per_period[1], "--out-snapshot", snap1])
        capsys.readouterr()
        code = run(["rate", "--games", per_period[3], "--snapshot", snap1,
                    "--out-snapshot", tmp_path / "x.snapshot"])
        assert code == cli.EXIT_INPUT_ERROR
        assert "period" in capsys.readouterr().err

    def test_multi_period_file_rejected(self, league_files, capsys):
        tmp_path, games_path, _ = league_files
        code = run(["rate", "--games", games_path,
                    "--out-snapshot", tmp_path / "x.snapshot"])
        assert code == cli.EXIT_INPUT_ERROR
        assert "single period" in capsys.readouterr().err

    def test_report_file(self, league_files, tmp_path):
        _, _, per_period = league_files
        report = tmp_path / "report.csv"
        run(["rate", "--games", per_period[1],
             "--out-snapshot", tmp_path / "s.snapshot", "--report", report])
        lines = report.read_text().strip().splitlines()
        assert lines[0].startswith("player,games,elo_prior")
        assert len(lines) > 1

    def test_outputs_match_rows_built_from_run_period(self, league_files, tmp_path):
        """Two chained periods, with ids csv must quote: the snapshot and the
        report are the rows csv.writer makes from run_period's updates."""
        _, _, per_period = league_files
        tricky = ['o"neil, jr', "name with spaces", "Zoë", "line\nbreak", ""]
        state, played, snapshot = {}, {}, None
        for t in (1, 2):
            games, _ = store.read_games(str(per_period[t]))
            games += [store.GameRecord(t, tricky[k], tricky[(k + t) % 4], outcome)
                      for k, outcome in zip(range(4), (1.0, 0.5, 0.0, 1.0))]
            games_path = tmp_path / f"tricky{t}.csv"
            with open(games_path, "w", newline="", encoding="utf-8") as fh:
                store.write_games(games, fh)
            out, report = tmp_path / f"s{t}.snapshot", tmp_path / f"r{t}.csv"
            argv = ["rate", "--games", games_path, "--out-snapshot", out, "--report", report]
            assert run(argv + (["--snapshot", snapshot] if snapshot else [])) == cli.EXIT_OK

            result = engine.run_period(state, games, model.DEFAULT_HYPERPARAMETERS,
                                       EngineConfig())
            expected_report = io.StringIO()
            writer = csv.writer(expected_report, lineterminator="\n")
            writer.writerow([
                "player", "games", "elo_prior", "rd_prior", "elo_post", "rd_post",
                "elo_change", "mu_prior", "sigma_prior", "mu_post", "sigma_post",
            ])
            for u in result.updates:
                played[u.player_id] = played.get(u.player_id, 0) + u.games_count
                elo_prior = model.latent_to_elo(u.mu_prior)
                elo_post = model.latent_to_elo(u.mu_post)
                writer.writerow([
                    u.player_id, u.games_count,
                    f"{elo_prior:.2f}", f"{u.sigma_prior * model.ELO_SCALE:.2f}",
                    f"{elo_post:.2f}", f"{u.sigma_post * model.ELO_SCALE:.2f}",
                    f"{elo_post - elo_prior:.2f}",
                    repr(u.mu_prior), repr(u.sigma_prior), repr(u.mu_post), repr(u.sigma_post),
                ])
            state = result.state
            header = io.StringIO()
            store.save_snapshot(store.RatingSnapshot(
                t + 1, [], model.DEFAULT_HYPERPARAMETERS, EngineConfig()
            ), header)
            expected_snapshot = io.StringIO()
            expected_snapshot.write(
                header.getvalue().replace("players 0", f"players {len(state)}"))
            csv.writer(expected_snapshot, lineterminator="\n").writerows(
                [pid, repr(b.mu), repr(b.sigma), played[pid]]
                for pid, b in sorted(state.items())
            )
            assert report.read_bytes() == expected_report.getvalue().encode()
            assert out.read_bytes() == expected_snapshot.getvalue().encode()
            snapshot = out


class TestPredict:
    def test_probabilities_and_unknown_player(self, league_files, tmp_path, capsys):
        _, _, per_period = league_files
        snap = tmp_path / "s.snapshot"
        run(["rate", "--games", per_period[1], "--out-snapshot", snap,
             "--report", tmp_path / "r.csv"])
        fixtures = tmp_path / "fixtures.csv"
        fixtures.write_text("white,black\np00000,p00001\nstranger,p00002\n")
        out_path = tmp_path / "pred.csv"
        assert run(["predict", "--snapshot", snap, "--fixtures", fixtures,
                    "--out", out_path]) == cli.EXIT_OK
        assert "unknown player" in capsys.readouterr().err
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "white,black,p_win,p_draw,p_loss,p_win_decisive"
        for line in lines[1:]:
            fields = line.split(",")
            p = [float(v) for v in fields[2:5]]
            assert sum(p) == pytest.approx(1.0, abs=1e-12)
            assert float(fields[5]) == pytest.approx(p[0] / (p[0] + p[2]))

    def test_an_id_with_a_lone_carriage_return_reads_back(self, tmp_path, capsys):
        """csv.writer left the id bare, and csv.reader split its row in two."""
        snap = tmp_path / "s.snapshot"
        _write_snapshot(snap)
        fixtures = tmp_path / "f.csv"
        fixtures.write_text('white,black\n"a\rb",anna\nanna,bert\n', newline="")
        out_path = tmp_path / "pred.csv"
        assert run(["predict", "--snapshot", snap, "--fixtures", fixtures,
                    "--out", out_path]) == cli.EXIT_OK
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[:2] for row in rows] == [["white", "black"], ["a\rb", "anna"],
                                              ["anna", "bert"]]
        assert all(len(row) == 6 for row in rows)

    def test_missing_snapshot_is_input_error(self, tmp_path, capsys):
        fixtures = tmp_path / "f.csv"
        fixtures.write_text("a,b\n")
        assert run(["predict", "--snapshot", tmp_path / "nope",
                    "--fixtures", fixtures]) == cli.EXIT_INPUT_ERROR


    @pytest.mark.parametrize("order", [0, oracle.MAX_ORDER + 1])
    def test_order_out_of_range_writes_nothing(self, league_files, tmp_path, capsys, order):
        _, _, per_period = league_files
        snap = tmp_path / "s.snapshot"
        run(["rate", "--games", per_period[1], "--out-snapshot", snap,
             "--report", tmp_path / "r.csv"])
        fixtures = tmp_path / "fixtures.csv"
        fixtures.write_text("white,black\np00000,p00001\n")
        out_path = tmp_path / "pred.csv"
        capsys.readouterr()
        assert run(["predict", "--snapshot", snap, "--fixtures", fixtures,
                    "--out", out_path, "--order", order]) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: --order must be in 1..") and err.count("\n") == 1
        assert not out_path.exists()


class TestOptimize:
    def test_writes_parameter_table_and_trace(self, league_files, tmp_path):
        _, games_path, _ = league_files
        out = tmp_path / "fit.csv"
        trace = tmp_path / "trace.csv"
        code = run(["optimize", "--games", games_path, "--train-until", 1,
                    "--out", out, "--trace", trace])
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT_ERROR)
        text = out.read_text()
        assert text.startswith("parameter,value\n")
        for name in ("beta0", "beta1", "tau", "objective", "converged"):
            assert f"\n{name}," in text or text.startswith(f"{name},")
        assert trace.read_text().startswith("evaluation,")

    def test_ratings_seed_priors(self, league_files, tmp_path):
        _, games_path, _ = league_files
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("player,elo\np00000,2100\np00001,1900\n")
        out = tmp_path / "fit.csv"
        code = run(["optimize", "--games", games_path, "--train-until", 1,
                    "--ratings", ratings, "--out", out])
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT_ERROR)
        assert out.read_text().startswith("parameter,value\n")

    def test_objective_is_a_plain_number(self, league_files, tmp_path):
        _, games_path, _ = league_files
        out = tmp_path / "fit.csv"
        run(["optimize", "--games", games_path, "--train-until", 1, "--out", out])
        rows = dict(line.split(",") for line in out.read_text().splitlines())
        assert "np." not in rows["objective"]
        assert float(rows["objective"]) < 0.0

    @pytest.mark.parametrize("row", ["p00000", "p00000,abc", ",1900", "p00000,1900,7"])
    def test_malformed_rating_rows_are_skipped_with_a_warning(
        self, league_files, tmp_path, capsys, row
    ):
        _, games_path, _ = league_files
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(f"player,elo\n{row}\np00001,1900\n")
        out = tmp_path / "fit.csv"
        code = run(["optimize", "--games", games_path, "--train-until", 1,
                    "--ratings", ratings, "--out", out])
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT_ERROR)
        err = capsys.readouterr().err
        assert err.startswith("warning: ratings line 2: ") and err.count("\n") == 1
        assert out.read_text().startswith("parameter,value\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS as Linux applies it")
    def test_date_like_periods_fit_in_little_memory(self, league_files, tmp_path,
                                                     fresh_python):
        """The league in periods 20240101-20240103 fits in a child interpreter
        under a 1.5 GB address-space limit, to the table of the same league in
        periods 1-3.  A period axis with a slot per number from 1 would need
        gigabytes and end in an out-of-memory error."""
        _, games_path, _ = league_files
        games, _ = store.read_games(str(games_path))
        far = tmp_path / "far.csv"
        with open(far, "w", newline="", encoding="utf-8") as fh:
            store.write_games([dataclasses.replace(g, period=g.period + 20240100)
                               for g in games], fh)
        got = fresh_python(f"""
            import contextlib, io, json, resource
            from drawrating import cli

            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["optimize", "--games", {str(far)!r},
                                 "--train-until", "20240101"])
            print(json.dumps({{"code": code, "out": out.getvalue(), "err": err.getvalue()}}))
        """)
        assert got["code"] == cli.EXIT_OK
        assert "error:" not in got["err"]
        fit = tmp_path / "fit.csv"
        assert run(["optimize", "--games", games_path, "--train-until", 1, "--out", fit]) == \
            cli.EXIT_OK
        assert got["out"] == fit.read_text()

    @pytest.mark.parametrize("rows", ["p00000,2100\np00000,1900", "p00000,nan", "p00000,inf"])
    def test_unusable_ratings_exit_with_one_line(self, league_files, tmp_path, capsys, rows):
        _, games_path, _ = league_files
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(f"player,elo\n{rows}\n")
        out = tmp_path / "fit.csv"
        code = run(["optimize", "--games", games_path, "--train-until", 1,
                    "--ratings", ratings, "--out", out])
        assert code == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestValidate:
    def test_report_written(self, tmp_path):
        out = tmp_path / "validation.csv"
        assert run(["validate", "--games", 50, "--seed", 5, "--out", out,
                    "--stratify"]) == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("subset,n,")
        assert lines[1].startswith("all,")
        assert len(lines) >= 4  # all + outcome and tercile strata

    def test_stdout_default(self, capsys):
        assert run(["validate", "--games", 20, "--seed", 6]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("subset,n,")

    @pytest.mark.parametrize("order", [1, oracle.MAX_ORDER + 1])
    def test_order_out_of_range_writes_nothing(self, tmp_path, capsys, order):
        out = tmp_path / "validation.csv"
        assert run(["validate", "--games", 20, "--seed", 6, "--out", out,
                    "--order", order]) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: --order must be in 2..") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("games", [0, -3])
    def test_no_games_is_one_error_and_writes_nothing(self, tmp_path, capsys, games):
        out = tmp_path / "validation.csv"
        assert run(["validate", "--games", games, "--out", out]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: game list must be nonempty\n"
        assert list(tmp_path.iterdir()) == []


def _write_snapshot(path, mu=0.5):
    entries = [("anna", mu, 0.4, 3), ("bert", 1.0, 0.6, 5)]
    store.write_snapshot_file(
        store.RatingSnapshot(2, entries, model.DEFAULT_HYPERPARAMETERS, EngineConfig()),
        str(path),
    )


class TestByteOrderMark:
    """A games or fixtures file that starts with a UTF-8 byte-order mark gives
    the outputs of the same file without it, and no warning."""

    @staticmethod
    def _marked(path):
        marked = path.with_name("marked-" + path.name)
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return marked

    def test_games_file(self, league_files, tmp_path, capsys):
        _, _, per_period = league_files
        outputs = []
        for games in (per_period[1], self._marked(per_period[1])):
            snap, report = tmp_path / f"{games.name}.snapshot", tmp_path / f"{games.name}.r"
            assert run(["rate", "--games", games, "--out-snapshot", snap,
                        "--report", report]) == cli.EXIT_OK
            assert capsys.readouterr().err == ""
            outputs.append((snap.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_fixtures_file(self, tmp_path, capsys):
        snap = tmp_path / "s.snapshot"
        _write_snapshot(snap)
        fixtures = tmp_path / "f.csv"
        fixtures.write_text("white,black\nanna,bert\nbert,anna\n")
        outputs = []
        for path in (fixtures, self._marked(fixtures)):
            assert run(["predict", "--snapshot", snap, "--fixtures", path]) == cli.EXIT_OK
            out, err = capsys.readouterr()
            assert err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1] and outputs[0].count("\n") == 3


class TestNoPartialOutput:
    @pytest.mark.parametrize("existing", [None, "an older prediction\n"])
    def test_undecodable_fixtures_leave_no_output(self, tmp_path, capsys, existing):
        snap = tmp_path / "s.snapshot"
        _write_snapshot(snap)
        fixtures = tmp_path / "f.csv"
        fixtures.write_bytes(b"white,black\nanna,bert\nbert,anna\n\xff\xfe,anna\n")
        out_path = tmp_path / "p.csv"
        if existing is not None:
            out_path.write_text(existing)
        before = sorted(tmp_path.iterdir())
        assert run(["predict", "--snapshot", snap, "--fixtures", fixtures,
                    "--out", out_path]) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before
        if existing is not None:
            assert out_path.read_text() == existing

    @pytest.mark.parametrize("command", ["predict", "rate"])
    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snapshot_mean_is_an_input_error(self, tmp_path, capsys, command,
                                                         mu):
        snap = tmp_path / "s.snapshot"
        _write_snapshot(snap, mu)
        inputs = tmp_path / "in.csv"
        out_path = tmp_path / "out"
        if command == "predict":
            inputs.write_text("white,black\nanna,bert\n")
            argv = ["predict", "--snapshot", snap, "--fixtures", inputs, "--out", out_path]
        else:
            inputs.write_text("period,white,black,result\n2,anna,bert,1\n")
            argv = ["rate", "--games", inputs, "--snapshot", snap,
                    "--out-snapshot", out_path, "--report", tmp_path / "report.csv"]
        assert run(argv) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "invalid mu" in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "s.snapshot"]

    @pytest.mark.parametrize("command", ["predict", "rate"])
    def test_strengths_whose_sum_overflows_are_refused(self, tmp_path, capsys, command):
        """Two finite means of -1e308 overflow the outcome model's sum of
        strengths once alpha is not 0, so its probabilities are NaN: predict
        refuses them as input, rate as a degenerate update."""
        snap = tmp_path / "s.snapshot"
        entries = [("anna", -1e308, 0.4, 3), ("bert", -1e308, 0.6, 5)]
        store.write_snapshot_file(
            store.RatingSnapshot(2, entries, model.DEFAULT_HYPERPARAMETERS, EngineConfig()),
            str(snap),
        )
        inputs = tmp_path / "in.csv"
        out_path = tmp_path / "out"
        if command == "predict":
            inputs.write_text("white,black\nanna,bert\n")
            argv = ["predict", "--snapshot", snap, "--fixtures", inputs, "--out", out_path]
            code, message = cli.EXIT_INPUT_ERROR, "non-finite outcome probabilities"
        else:
            inputs.write_text("period,white,black,result\n2,anna,bert,1\n")
            argv = ["rate", "--games", inputs, "--snapshot", snap,
                    "--out-snapshot", out_path, "--report", tmp_path / "report.csv"]
            code, message = cli.EXIT_DEGENERATE, "non-positive posterior precision"
        assert run([*argv, "--alpha0", 1]) == code
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("warning: --alpha0 1.0 overrides")
        assert len(err) == 2 and err[1].startswith("error: ") and message in err[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "s.snapshot"]

    def test_rate_with_an_unopenable_report_writes_no_snapshot(self, tmp_path, capsys):
        games = tmp_path / "g.csv"
        games.write_text("period,white,black,result\n1,a,b,1\n")
        assert run(["rate", "--games", games, "--out-snapshot", tmp_path / "s.snap",
                    "--report", tmp_path / "nodir" / "r.csv"]) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv"]

    @pytest.mark.parametrize("fail_on_call", [1, 2])
    def test_rate_error_while_building_the_report_changes_no_file(
        self, tmp_path, capsys, monkeypatch, fail_on_call
    ):
        """A failing Elo conversion (the finiteness check) leaves both outputs
        as they were, however far the report had got."""
        snap = tmp_path / "s.snapshot"
        _write_snapshot(snap)
        games = tmp_path / "g.csv"
        games.write_text("period,white,black,result\n2,anna,bert,1\n")
        out, report = tmp_path / "out.snapshot", tmp_path / "report.csv"
        out.write_text("older snapshot\n")
        report.write_text("older report\n")
        calls = itertools.count(1)
        convert = model.latent_to_elo

        def failing(theta):
            if next(calls) >= fail_on_call:
                raise ValueError("strength must be finite, got nan")
            return convert(theta)

        monkeypatch.setattr(model, "latent_to_elo", failing)
        assert run(["rate", "--games", games, "--snapshot", snap,
                    "--out-snapshot", out, "--report", report]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: strength must be finite, got nan\n"
        assert out.read_text() == "older snapshot\n"
        assert report.read_text() == "older report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "g.csv", "out.snapshot", "report.csv", "s.snapshot"]

    @pytest.mark.parametrize("bad", ["out", "trace"])
    def test_optimize_with_an_unopenable_output_writes_nothing(
        self, league_files, tmp_path, capsys, bad
    ):
        _, games_path, _ = league_files
        paths = {"out": tmp_path / "fit.csv", "trace": tmp_path / "trace.csv"}
        paths[bad] = tmp_path / "nodir" / f"{bad}.csv"
        before = sorted(tmp_path.iterdir())
        assert run(["optimize", "--games", games_path, "--train-until", 1,
                    "--out", paths["out"], "--trace", paths["trace"]]) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command,oversized", [
        ("rate", "games"), ("optimize", "games"), ("optimize", "ratings"),
        ("predict", "fixtures"),
    ])
    def test_an_oversized_csv_field_is_an_input_error(self, tmp_path, capsys, command,
                                                      oversized):
        """A field longer than ``csv.field_size_limit()`` makes the csv reader
        raise; the command ends in one error line and writes nothing."""
        snap = tmp_path / "s.snapshot"
        _write_snapshot(snap)
        inputs = {
            "games": "period,white,black,result\n1,anna,bert,1\n2,bert,anna,0\n",
            "ratings": "player,elo\nanna,1500\n",
            "fixtures": "white,black\nanna,bert\n",
        }
        inputs[oversized] += "x" * (csv.field_size_limit() + 1) + ",bert\n"
        for name, text in inputs.items():
            (tmp_path / f"{name}.csv").write_text(text)
        out = tmp_path / "out.csv"
        argv = {
            "rate": ["rate", "--games", tmp_path / "games.csv",
                     "--out-snapshot", out, "--report", tmp_path / "report.csv"],
            "optimize": ["optimize", "--games", tmp_path / "games.csv", "--train-until", 1,
                         "--out", out, "--trace", tmp_path / "trace.csv"],
            "predict": ["predict", "--snapshot", snap, "--fixtures", tmp_path / "fixtures.csv",
                        "--out", out],
        }[command]
        if oversized == "ratings":
            argv += ["--ratings", tmp_path / "ratings.csv"]
        before = sorted(tmp_path.iterdir())
        assert run(argv) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: field larger than field limit") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before

    def test_simulate_with_an_unopenable_strengths_file_writes_no_games(
        self, tmp_path, capsys
    ):
        assert run(["simulate", "--players", 6, "--periods", 2, "--games-per-period", 15,
                    "--out-games", tmp_path / "g.csv",
                    "--out-strengths", tmp_path / "nodir" / "s.csv"]) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_a_directory_as_output_is_refused_before_writing(self, tmp_path, capsys):
        games = tmp_path / "g.csv"
        games.write_text("period,white,black,result\n1,a,b,1\n")
        (tmp_path / "r.csv").mkdir()
        assert run(["rate", "--games", games, "--out-snapshot", tmp_path / "s.snap",
                    "--report", tmp_path / "r.csv"]) == cli.EXIT_INPUT_ERROR
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "r.csv"]
        assert list((tmp_path / "r.csv").iterdir()) == []


class TestOptimizeOpensItsOutputsFirst:
    """optimize opens both outputs before the search: a refused output costs
    no objective evaluation, and a search that fails changes no file."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        evaluate = hyperopt.evaluate_hyperparameters

        def counted(*args, **kwargs):
            calls.append(args[1])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(hyperopt, "evaluate_hyperparameters", counted)
        return calls

    @pytest.mark.parametrize("outputs", ["unwritable", "one file"])
    def test_a_refused_output_runs_no_evaluation(self, league_files, tmp_path, capsys,
                                                 evaluations, outputs):
        _, games_path, _ = league_files
        out = tmp_path / "fit.csv"
        flags = {"unwritable": ["--out", tmp_path / "nodir" / "x.csv"],
                 "one file": ["--trace", out, "--out", out]}[outputs]
        before = sorted(tmp_path.iterdir())
        assert run(["optimize", "--games", games_path, "--train-until", 1,
                    *flags]) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert evaluations == []
        assert sorted(tmp_path.iterdir()) == before

    def test_a_search_that_raises_leaves_both_outputs_as_they_were(
        self, league_files, tmp_path, capsys, evaluations, monkeypatch
    ):
        _, games_path, _ = league_files
        out, trace = tmp_path / "fit.csv", tmp_path / "trace.csv"
        out.write_text("an older fit\n")
        trace.write_text("an older trace\n")
        before = sorted(tmp_path.iterdir())
        evaluate = hyperopt.evaluate_hyperparameters

        def failing_on_the_third(*args, **kwargs):
            if len(evaluations) == 2:
                raise ValueError("the search failed")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(hyperopt, "evaluate_hyperparameters", failing_on_the_third)
        assert run(["optimize", "--games", games_path, "--train-until", 1,
                    "--out", out, "--trace", trace]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: the search failed\n"
        assert len(evaluations) == 2
        assert sorted(tmp_path.iterdir()) == before
        assert out.read_text() == "an older fit\n"
        assert trace.read_text() == "an older trace\n"


class TestOneFileForTwoOutputs:
    """Two outputs given the same path are refused before anything is
    written: otherwise one would silently replace the other."""

    @pytest.mark.parametrize("command", ["rate", "simulate", "optimize"])
    def test_is_an_input_error(self, tmp_path, capsys, command):
        games = tmp_path / "g.csv"
        games.write_text("period,white,black,result\n1,a,b,1\n"
                         + ("" if command == "rate" else "2,a,b,0\n"))
        out = tmp_path / "out"
        argv = {
            "rate": ["rate", "--games", games, "--out-snapshot", out, "--report", out],
            "simulate": ["simulate", "--players", 6, "--periods", 2,
                         "--games-per-period", 15, "--out-games", out,
                         "--out-strengths", f"{tmp_path}/./out"],
            "optimize": ["optimize", "--games", games, "--train-until", 1,
                         "--trace", out, "--out", out],
        }[command]
        assert run(argv) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "name the same file" in err
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["g.csv"]

    def test_one_snapshot_as_input_and_output_is_kept(self, league_files, capsys):
        tmp_path, _, per_period = league_files
        snap = tmp_path / "s.snapshot"
        assert run(["rate", "--games", per_period[1], "--out-snapshot", snap]) == cli.EXIT_OK
        assert run(["rate", "--games", per_period[2], "--snapshot", snap,
                    "--out-snapshot", snap, "--report", tmp_path / "r.csv"]) == cli.EXIT_OK
        assert store.read_snapshot_file(str(snap)).period == 3


class TestSnapshotSettings:
    """rate and predict take a flag not given from the snapshot, and warn when a
    given flag overrides a snapshot value."""

    @pytest.fixture
    def tuned(self, league_files, tmp_path, capsys):
        _, _, per_period = league_files
        snap = tmp_path / "tuned.snapshot"
        assert run(["rate", "--games", per_period[1], "--out-snapshot", snap,
                    "--tau", 0.5, "--beta1", 0.9, "--no-draw-override",
                    "--sigma-cap", 0.8, "--report", tmp_path / "r1.csv"]) == cli.EXIT_OK
        capsys.readouterr()
        return per_period, snap

    def test_rate_without_flags_keeps_the_snapshot_values(self, tuned, tmp_path, capsys):
        per_period, snap = tuned
        implicit, explicit = tmp_path / "implicit.snapshot", tmp_path / "explicit.snapshot"
        assert run(["rate", "--games", per_period[2], "--snapshot", snap,
                    "--out-snapshot", implicit, "--report", tmp_path / "a.csv"]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        assert run(["rate", "--games", per_period[2], "--snapshot", snap,
                    "--out-snapshot", explicit, "--report", tmp_path / "b.csv",
                    "--tau", 0.5, "--beta1", 0.9, "--no-draw-override",
                    "--sigma-cap", 0.8]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        loaded = store.read_snapshot_file(str(implicit))
        assert (loaded.hyperparameters.tau, loaded.hyperparameters.beta1) == (0.5, 0.9)
        assert loaded.config == EngineConfig(sigma_cap=0.8, draw_score_override=False)
        assert implicit.read_bytes() == explicit.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_a_given_flag_that_differs_wins_with_a_warning(self, tuned, tmp_path, capsys):
        per_period, snap = tuned
        out = tmp_path / "out.snapshot"
        assert run(["rate", "--games", per_period[2], "--snapshot", snap,
                    "--out-snapshot", out, "--report", tmp_path / "r.csv",
                    "--tau", 0.4604, "--sigma-cap", 0.8]) == cli.EXIT_OK
        assert capsys.readouterr().err == (
            "warning: --tau 0.4604 overrides snapshot value 0.5\n"
        )
        loaded = store.read_snapshot_file(str(out))
        assert (loaded.hyperparameters.tau, loaded.hyperparameters.beta1) == (0.4604, 0.9)

    def test_the_draw_switch_warns_against_a_snapshot_with_the_override_on(
        self, league_files, tmp_path, capsys
    ):
        _, _, per_period = league_files
        snap, out = tmp_path / "s1.snapshot", tmp_path / "s2.snapshot"
        run(["rate", "--games", per_period[1], "--out-snapshot", snap,
             "--report", tmp_path / "r1.csv"])
        capsys.readouterr()
        assert run(["rate", "--games", per_period[2], "--snapshot", snap,
                    "--out-snapshot", out, "--report", tmp_path / "r2.csv",
                    "--no-draw-override"]) == cli.EXIT_OK
        assert capsys.readouterr().err == (
            "warning: --no-draw-override overrides snapshot value True\n"
        )
        assert not store.read_snapshot_file(str(out)).config.draw_score_override

    def test_predict_uses_the_snapshot_values(self, tuned, tmp_path, capsys):
        _, snap = tuned
        fixtures = tmp_path / "f.csv"
        fixtures.write_text("white,black\np00000,p00001\np00002,stranger\n")
        implicit, explicit, flagged = (tmp_path / f"{n}.csv" for n in ("i", "e", "w"))
        assert run(["predict", "--snapshot", snap, "--fixtures", fixtures,
                    "--out", implicit]) == cli.EXIT_OK
        assert "overrides" not in capsys.readouterr().err
        assert run(["predict", "--snapshot", snap, "--fixtures", fixtures,
                    "--out", explicit, "--tau", 0.5, "--beta1", 0.9]) == cli.EXIT_OK
        assert "overrides" not in capsys.readouterr().err
        assert implicit.read_bytes() == explicit.read_bytes()
        assert run(["predict", "--snapshot", snap, "--fixtures", fixtures,
                    "--out", flagged, "--beta1", 0.17037]) == cli.EXIT_OK
        assert "warning: --beta1 0.17037 overrides snapshot value 0.9\n" in (
            capsys.readouterr().err)
        assert flagged.read_bytes() != implicit.read_bytes()


def test_the_parser_is_built_once_and_dispatch_follows_the_module(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.games) or 7)
    assert run(["validate", "--games", 3]) == 7
    assert seen == [3]


class TestSimulate:
    def test_strengths_output(self, tmp_path):
        games = tmp_path / "g.csv"
        strengths = tmp_path / "s.csv"
        assert run(["simulate", "--players", 6, "--periods", 2,
                    "--games-per-period", 15, "--seed", 3,
                    "--out-games", games, "--out-strengths", strengths]) == cli.EXIT_OK
        lines = strengths.read_text().strip().splitlines()
        assert lines[0] == "player,period_1,period_2"
        assert len(lines) == 7

    def test_bad_config_is_input_error(self, tmp_path, capsys):
        assert run(["simulate", "--players", 1, "--periods", 2,
                    "--games-per-period", 15,
                    "--out-games", tmp_path / "g.csv"]) == cli.EXIT_INPUT_ERROR

    @pytest.mark.parametrize("flags,message", [
        # argmax of an all-False row made every game a white win
        (["--initial-sd=nan"], "initial mean must be finite"),
        (["--initial-sd=inf"], "initial mean must be finite"),
        (["--initial-mean=nan"], "initial mean must be finite"),
        (["--initial-sd=-1"], "initial mean must be finite"),
        (["--initial-mean=1e308", "--initial-sd=0", "--alpha0=1"],
         "period 1: non-finite outcome probabilities"),
    ])
    def test_a_league_that_cannot_be_sampled_is_refused(self, tmp_path, capsys, flags,
                                                         message):
        games, strengths = tmp_path / "g.csv", tmp_path / "s.csv"
        assert run(["simulate", "--players", 6, "--periods", 2, "--games-per-period", 15,
                    "--out-games", games, "--out-strengths", strengths, *flags]) \
            == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert os.listdir(tmp_path) == []


#: Float flags of ``simulate`` and the edge values drawn for them.
_SIMULATE_FLOATS = ("--initial-mean", "--initial-sd", "--tau", "--alpha0", "--alpha1",
                    "--beta0", "--beta1")
_EDGE_FLOATS = st.one_of(
    st.sampled_from([1e308, -1e308, math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                     -1e-300, 5e-324]),
    st.floats(-5.0, 5.0),
)


class TestExtremeSimulateFlags:
    """``simulate`` at edge values of its float flags either writes a league
    of finite strengths and valid results, or fails with one ``error:`` line
    and leaves no file.  Sizes stay at 20 or less."""

    @given(
        floats=st.dictionaries(st.sampled_from(_SIMULATE_FLOATS), _EDGE_FLOATS),
        players=st.integers(1, 20), periods=st.integers(0, 20),
        games=st.integers(0, 20),
        pairing=st.sampled_from(["rating-banded", "uniform-random"]),
    )
    @example(floats={"--initial-sd": math.nan}, players=6, periods=2, games=15,
             pairing="rating-banded")
    @example(floats={"--initial-mean": 1e308, "--initial-sd": 0.0, "--alpha0": 1.0},
             players=6, periods=2, games=15, pairing="rating-banded")
    @example(floats={"--tau": 1e308}, players=6, periods=3, games=5,
             pairing="uniform-random")
    @settings(max_examples=300, deadline=None)
    def test_ends_in_a_valid_league_or_one_error(self, floats, players, periods, games,
                                                 pairing):
        with tempfile.TemporaryDirectory() as tmp:
            games_path = os.path.join(tmp, "games.csv")
            strengths_path = os.path.join(tmp, "strengths.csv")
            argv = ["simulate", f"--players={players}", f"--periods={periods}",
                    f"--games-per-period={games}", f"--pairing={pairing}",
                    "--out-games", games_path, "--out-strengths", strengths_path]
            argv += [f"{flag}={value!r}" for flag, value in floats.items()]
            err = io.StringIO()
            # a numpy warning would be one more stderr line, so it fails the test
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(argv)
            err = err.getvalue()
            assert "Traceback" not in err
            if code == cli.EXIT_OK:
                assert "error:" not in err
                with open(strengths_path, encoding="utf-8") as fh:
                    rows = list(csv.reader(fh))[1:]
                assert len(rows) == players
                assert all(math.isfinite(float(v)) for row in rows for v in row[1:])
                with open(games_path, encoding="utf-8") as fh:
                    results = [row[3] for row in list(csv.reader(fh))[1:]]
                assert len(results) == periods * games
                assert set(results) <= {"1", "0.5", "0"}
            else:
                assert code in (cli.EXIT_INPUT_ERROR, cli.EXIT_DEGENERATE), err
                assert [line for line in err.splitlines() if line.startswith("error:")] \
                    == [err.splitlines()[-1]], err
                assert os.listdir(tmp) == []


#: Float flags of ``rate``, ``predict`` and ``validate``; ``optimize`` takes the
#: config flags only.
_HYPERPARAMETER_FLOATS = ("--alpha0", "--alpha1", "--beta0", "--beta1", "--tau")
_CONFIG_FLOATS = ("--sigma-cap", "--default-prior-elo", "--default-prior-sd-elo",
                  "--rated-prior-sd-elo")


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _finite(fields):
    return all(math.isfinite(float(v)) for v in fields)


@pytest.fixture(scope="class")
def flag_inputs(tmp_path_factory):
    """Eight players over three periods: the whole history, the first and a
    second period (with a new player) alone, the snapshot after the first,
    two fixtures (one of a stranger) and two Elo ratings."""
    tmp = tmp_path_factory.mktemp("flags")
    games = [f"{t},p{i},p{(i + 1 + t) % 8},{['1', '0.5', '0'][(i + t) % 3]}\n"
             for t in (1, 2, 3) for i in range(8)]
    texts = {
        "games.csv": "".join(games),
        "period1.csv": "".join(games[:8]),
        "period2.csv": "2,p0,p1,1\n2,p3,new,0.5\n",
        "fixtures.csv": "white,black\np0,p1\np2,stranger\n",
        "ratings.csv": "player,elo\np0,2100\np1,1700\n",
    }
    for name, text in texts.items():
        (tmp / name).write_text(text)
    assert run(["rate", "--games", tmp / "period1.csv", "--out-snapshot", tmp / "in.snapshot",
                "--report", tmp / "report1.csv"]) == cli.EXIT_OK
    return tmp


class TestExtremeFloatFlags:
    """``rate``, ``predict``, ``validate`` and ``optimize`` at edge values of
    their float flags either exit 0 with finite numbers in every output, or
    exit 1 or 2 with one ``error:`` line, no traceback, no partial file and
    every existing output unchanged.  Two outputs keep a non-finite number by
    design: ``p_win_decisive`` is NaN (0/0) where a draw is certain, and the
    trace scores a degenerate candidate -inf.  ``optimize`` writes its table
    (``converged,0``) and trace also when no start improves, and exits 1.
    Values go as ``--flag=value``; ``TestSeparateFloatValues`` covers a
    separate value token."""

    COMMANDS = {
        "rate": (_HYPERPARAMETER_FLOATS + _CONFIG_FLOATS,
                 ["rate", "--games", "period1.csv", "--out-snapshot", "out.snapshot",
                  "--report", "report.csv"]),
        "rate --snapshot": (_HYPERPARAMETER_FLOATS + _CONFIG_FLOATS,
                            ["rate", "--games", "period2.csv", "--snapshot", "in.snapshot",
                             "--out-snapshot", "out.snapshot", "--report", "report.csv"]),
        "predict": (_HYPERPARAMETER_FLOATS + _CONFIG_FLOATS,
                    ["predict", "--snapshot", "in.snapshot", "--fixtures", "fixtures.csv",
                     "--out", "predictions.csv"]),
        "validate": (_HYPERPARAMETER_FLOATS + _CONFIG_FLOATS,
                     ["validate", "--games", "20", "--seed", "3", "--stratify", "--order", "5",
                      "--out", "validation.csv"]),
        "optimize": (_CONFIG_FLOATS,
                     ["optimize", "--games", "games.csv", "--train-until", "1",
                      "--ratings", "ratings.csv", "--out", "fit.csv", "--trace", "trace.csv"]),
    }
    OUTPUTS = ("out.snapshot", "report.csv", "predictions.csv", "validation.csv", "fit.csv",
               "trace.csv")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @given(floats=st.dictionaries(st.sampled_from(_HYPERPARAMETER_FLOATS + _CONFIG_FLOATS),
                                  _EDGE_FLOATS))
    # no start of optimize improves: it exited 1 with nothing on stderr
    @example(floats={"--default-prior-elo": 1e308})
    # a prior sd whose latent precision sigma**-2 overflows: numpy's overflow
    # warning, then a non-positive precision [inf, inf] at exit 2
    @example(floats={"--alpha0": 1e308, "--alpha1": 1e308,
                     "--default-prior-sd-elo": 2.4045616485350484e-161})
    @example(floats={"--default-prior-sd-elo": 5.501846484000506e-181})
    @settings(max_examples=25, deadline=None)
    def test_ends_in_finite_outputs_or_one_error(self, flag_inputs, command, floats):
        names, argv = self.COMMANDS[command]
        floats = {flag: value for flag, value in floats.items() if flag in names}
        with tempfile.TemporaryDirectory() as tmp:
            path = functools.partial(os.path.join, tmp)
            for name in os.listdir(flag_inputs):
                os.symlink(flag_inputs / name, path(name))
            existing = {name: f"an older {name}\n" for name in self.OUTPUTS}
            for name, text in existing.items():
                with open(path(name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            argv = [path(a) if a.endswith((".csv", ".snapshot")) else a for a in argv]
            err = io.StringIO()
            # a numpy warning would be one more stderr line, so it fails the test
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(argv + [f"{flag}={value!r}" for flag, value in floats.items()])
            err = err.getvalue()
            assert "Traceback" not in err
            assert not [name for name in os.listdir(tmp) if name.startswith(".partial-")]
            changed = {name for name, text in existing.items()
                       if open(path(name), encoding="utf-8").read() != text}
            if code == cli.EXIT_OK:
                assert "error:" not in err
            else:
                assert code in (cli.EXIT_INPUT_ERROR, cli.EXIT_DEGENERATE), err
                assert [line for line in err.splitlines() if line.startswith("error:")] \
                    == [err.splitlines()[-1]], err
            if code != cli.EXIT_OK and not (command == "optimize" and changed):
                assert not changed
                return
            if command.startswith("rate"):
                assert changed == {"out.snapshot", "report.csv"}
                # reading refuses a non-finite belief, hyperparameter or setting
                store.read_snapshot_file(path("out.snapshot"))
                assert all(_finite(row[1:]) for row in _rows(path("report.csv")))
            elif command == "predict":
                assert changed == {"predictions.csv"}
                for row in _rows(path("predictions.csv")):
                    p_win, _, p_loss, p_dec = map(float, row[2:])
                    assert _finite(row[2:5]) and (math.isfinite(p_dec) or p_win + p_loss == 0)
            elif command == "validate":
                assert changed == {"validation.csv"}
                assert all(_finite(row[1:]) for row in _rows(path("validation.csv")))
            else:
                assert changed == {"fit.csv", "trace.csv"}
                table = dict(_rows(path("fit.csv")))
                assert table["converged"] == str(int(code == cli.EXIT_OK))
                assert _finite(v for k, v in table.items() if k != "objective")
                assert code != cli.EXIT_OK or math.isfinite(float(table["objective"]))
                assert all(_finite(row[:6]) and float(row[6]) < math.inf
                           for row in _rows(path("trace.csv")))


class TestSeparateFloatValues:
    """A float flag takes its value as the next token, also where argparse
    would read that token as an option (``-1e308``, ``-inf``)."""

    REQUIRED = {
        "rate": ["--games", "g.csv", "--out-snapshot", "s"],
        "predict": ["--snapshot", "s", "--fixtures", "f.csv"],
        "optimize": ["--games", "g.csv", "--train-until", "1"],
        "validate": [],
        "simulate": ["--players", "2", "--periods", "1", "--games-per-period", "1",
                     "--out-games", "g.csv"],
    }
    FLOATS = {
        "rate": _HYPERPARAMETER_FLOATS + _CONFIG_FLOATS,
        "predict": _HYPERPARAMETER_FLOATS + _CONFIG_FLOATS,
        "optimize": _CONFIG_FLOATS,
        "validate": _HYPERPARAMETER_FLOATS + _CONFIG_FLOATS,
        "simulate": _HYPERPARAMETER_FLOATS + ("--initial-mean", "--initial-sd"),
    }

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in FLOATS.items() for flag in flags])
    @pytest.mark.parametrize("value", ["-1e308", "-inf", "-nan", "-1e-3", "-2.5"])
    def test_every_float_flag_of_every_command(self, monkeypatch, command, flag, value):
        parsed = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: parsed.append(args) or 0)
        assert cli.main([command, flag, value, *self.REQUIRED[command]]) == cli.EXIT_OK
        got = getattr(parsed[0], flag[2:].replace("-", "_"))
        assert repr(got) == repr(float(value))

    @pytest.mark.parametrize("argv,error", [
        (["simulate", "--tau", "-"], "argument --tau: invalid float value: '-'"),
        (["simulate", "--tau", "--alpha0", "1"], "argument --tau: expected one argument"),
        (["validate", "--", "-1e308"], "unrecognized arguments: -- -1e308"),
    ])
    def test_a_token_that_is_no_float_value_is_left_alone(self, capsys, argv, error):
        """``-`` and ``--alpha0`` do not read as numbers, and ``--`` ends the options."""
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert error in capsys.readouterr().err


class TestDeterminism:
    def test_pipeline_rerun_is_byte_identical(self, tmp_path):
        """Same inputs and seeds give byte-identical outputs end to end."""
        outputs = []
        for round_dir in ("one", "two"):
            d = tmp_path / round_dir
            d.mkdir()
            games = d / "games.csv"
            run(["simulate", "--players", 10, "--periods", 1,
                 "--games-per-period", 40, "--seed", 17, "--out-games", games])
            snap = d / "ratings.snapshot"
            report = d / "report.csv"
            run(["rate", "--games", games, "--out-snapshot", snap,
                 "--report", report])
            fixtures = d / "fixtures.csv"
            fixtures.write_text("white,black\np00000,p00001\n")
            pred = d / "pred.csv"
            run(["predict", "--snapshot", snap, "--fixtures", fixtures,
                 "--out", pred])
            valid = d / "validation.csv"
            run(["validate", "--games", 30, "--seed", 17, "--out", valid])
            outputs.append(tuple(
                p.read_bytes() for p in (games, snap, report, pred, valid)
            ))
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["rate", "predict", "optimize", "validate"])
def test_config_flag_defaults_are_engine_defaults(command):
    """With no engine flags given, every subcommand runs EngineConfig()."""
    required = {
        "rate": ["--games", "g.csv", "--out-snapshot", "s"],
        "predict": ["--snapshot", "s", "--fixtures", "f.csv"],
        "optimize": ["--games", "g.csv", "--train-until", "1"],
        "validate": [],
    }[command]
    args = cli.build_parser().parse_args([command] + required)
    assert cli._config(args) == EngineConfig()


class TestExitCodes:
    def test_missing_games_file(self, tmp_path, capsys):
        assert run(["rate", "--games", tmp_path / "absent.csv",
                    "--out-snapshot", tmp_path / "s"]) == cli.EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_degenerate_hyperparameters(self, tmp_path, capsys):
        games = tmp_path / "g.csv"
        games.write_text("period,white,black,result\n1,a,b,1\n")
        code = run(["rate", "--games", games, "--beta0", "800",
                    "--out-snapshot", tmp_path / "s"])
        assert code == cli.EXIT_DEGENERATE

    def test_a_tau_whose_square_overflows_is_an_input_error(self, tmp_path, capsys):
        games = tmp_path / "g.csv"
        games.write_text("period,white,black,result\n1,a,b,1\n")
        code = run(["rate", "--games", games, "--tau", "1e200",
                    "--out-snapshot", tmp_path / "s"])
        assert code == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tau" in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv"]

    @pytest.mark.parametrize("line,edit", [
        pytest.param(2, lambda text: text + " 0.5", id="six-hyperparameters"),
        # tau would silently take its default
        pytest.param(2, lambda text: text.rsplit(" ", 1)[0], id="four-hyperparameters"),
        pytest.param(3, lambda text: text.replace(" 1 ", " 7 ", 1), id="draw-flag-7"),
        pytest.param(3, lambda text: text + " 1.0", id="six-config-values"),
    ])
    def test_a_malformed_snapshot_header_is_an_input_error(self, tmp_path, capsys, line,
                                                           edit):
        snap = tmp_path / "s.snapshot"
        _write_snapshot(snap)
        lines = snap.read_text().split("\n")
        lines[line] = edit(lines[line])
        snap.write_text("\n".join(lines))
        fixtures = tmp_path / "f.csv"
        fixtures.write_text("white,black\nanna,bert\n")
        assert run(["predict", "--snapshot", snap, "--fixtures", fixtures]) == \
            cli.EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: malformed snapshot header") and err.count("\n") == 1


    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS as Linux applies it")
    def test_an_allocation_over_the_memory_limit_is_an_input_error(self, fresh_python):
        """``validate --games 100000000`` asks numpy for 4.47 GiB at once; under
        a 1.5 GB address-space limit, set in the child interpreter only, the
        request fails without touching the memory, and the command prints one
        line."""
        got = fresh_python("""
            import contextlib, io, json, resource
            from drawrating import cli

            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["validate", "--games", "100000000"])
            print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue()}))
        """)
        assert got["code"] == cli.EXIT_INPUT_ERROR and got["out"] == ""
        assert got["err"].startswith("error: out of memory: Unable to allocate 4.47 GiB")
        assert got["err"].count("\n") == 1

    def test_a_memory_error_without_a_message_is_one_line(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_validate", exhausted)
        assert run(["validate", "--games", 5]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize("flags", [[], ["--no-draw-override"]])
    def test_overflowing_hyperparameters_print_one_line(self, tmp_path, capsys, flags):
        """An overflowing draw slope fails the Newton step with one line and
        no numpy warning."""
        games = tmp_path / "g.csv"
        games.write_text("period,white,black,result\n1,a,b,1\n1,b,c,0.5\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["rate", "--games", games, "--beta1", "1e308",
                        "--out-snapshot", tmp_path / "s", *flags])
        assert code == cli.EXIT_DEGENERATE
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_finite_predictions_are_an_input_error(self, tmp_path, capsys):
        """The draw logit overflows at every node pair of a strong pair."""
        snap = tmp_path / "s.snapshot"
        _write_snapshot(snap, mu=5.0)
        fixtures = tmp_path / "f.csv"
        fixtures.write_text("white,black\n\nanna,bert\nbert,anna\n")
        out_path = tmp_path / "p.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["predict", "--snapshot", snap, "--fixtures", fixtures,
                        "--out", out_path, "--beta1", "1e308"])
        assert code == cli.EXIT_INPUT_ERROR
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("warning: --beta1")
        assert len(err) == 2 and err[1].startswith("error: fixtures line 3: ")
        assert not out_path.exists()

    def test_an_undefined_decisive_share_prints_no_warning(self, tmp_path, capsys):
        """At a huge draw intercept neither side can win: p_win_decisive is
        0/0, written as nan without a numpy warning."""
        snap = tmp_path / "s.snapshot"
        _write_snapshot(snap)
        fixtures = tmp_path / "f.csv"
        fixtures.write_text("white,black\nanna,bert\n")
        out_path = tmp_path / "p.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["predict", "--snapshot", snap, "--fixtures", fixtures,
                        "--out", out_path, "--beta0", "800"])
        assert code == cli.EXIT_OK
        assert caught == []
        assert capsys.readouterr().err.startswith("warning: --beta0 800.0 overrides")
        assert out_path.read_text().splitlines()[1] == "anna,bert,0.0,1.0000000000000002,0.0,nan"


def test_elo_report_matches_conversion(tmp_path, capsys):
    games = tmp_path / "g.csv"
    games.write_text("period,white,black,result\n1,a,b,1\n")
    run(["rate", "--games", games, "--out-snapshot", tmp_path / "s"])
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["elo_post"]) == pytest.approx(
        model.latent_to_elo(float(row["mu_post"])), abs=0.01
    )


_JUNK = st.one_of(st.text(alphabet="xyz!#", min_size=1, max_size=4),
                  st.sampled_from(["nan", "inf", "-inf", "1e999"]))


@st.composite
def _broken_snapshot(draw):
    """A snapshot text (two players, anna and bert) made unreadable one way:
    truncated; a header token replaced by junk, dropped or joined by junk;
    a number of a player row replaced by junk, a field dropped or added; or
    a player row repeated."""
    buffer = io.StringIO()
    store.save_snapshot(store.RatingSnapshot(
        2, [("anna", 0.5, 0.4, 3), ("bert", 1.0, 0.6, 5)],
        model.DEFAULT_HYPERPARAMETERS, EngineConfig()), buffer)
    text = buffer.getvalue()
    lines = text.split("\n")
    kind = draw(st.sampled_from(["truncate", "header", "row", "repeat"]))
    if kind == "truncate":
        # the last row's games count is one digit, so any cut before it breaks the file
        return text[:draw(st.integers(0, len(text) - 2))]
    if kind == "repeat":
        lines.insert(6, lines[draw(st.sampled_from([5, 6]))])
        return "\n".join(lines)
    number = draw(st.integers(0, 4) if kind == "header" else st.sampled_from([5, 6]))
    sep = " " if kind == "header" else ","
    fields = lines[number].split(sep)
    edit = draw(st.sampled_from(["replace", "drop", "add"]))
    at = draw(st.integers(0 if kind == "header" else 1, len(fields) - 1))
    if edit == "replace":
        fields[at] = draw(_JUNK)
    elif edit == "drop":
        del fields[at]
    else:
        fields.insert(at, draw(_JUNK))
    lines[number] = sep.join(fields)
    return "\n".join(lines)


class TestBrokenSnapshots:
    """``rate --snapshot`` and ``predict`` on a snapshot that cannot be used:
    each exits 1 or 2 with one ``error:`` line and no traceback, leaves no
    partial file and changes no existing output.  Both inputs name a player
    the snapshot lacks, so its default-prior settings are read."""

    @given(_broken_snapshot())
    # the rated prior's sd is read by no command but optimize: a NaN was carried over
    @example("drawrating-snapshot v1\nperiod 2\nhyperparameters 0.0 0.0 1.09861 0.17037 0.14391\n"
             "config 0.691 1 1800.0 250.0 nan\nplayers 2\nanna,0.5,0.4,3\nbert,1.0,0.6,5\n")
    @settings(max_examples=300, deadline=None)
    def test_fails_cleanly(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: os.path.join(tmp, name) for name in (
                "in.snapshot", "games.csv", "fixtures.csv", "out.snapshot", "report.csv",
                "predictions.csv")}
            with open(paths["in.snapshot"], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            with open(paths["games.csv"], "w", encoding="utf-8") as fh:
                fh.write("period,white,black,result\n2,anna,bert,1\n2,cara,anna,0.5\n")
            with open(paths["fixtures.csv"], "w", encoding="utf-8") as fh:
                fh.write("white,black\nanna,bert\ncara,anna\n")
            existing = {}
            for name in ("out.snapshot", "report.csv", "predictions.csv"):
                existing[name] = f"an older {name}\n"
                with open(paths[name], "w", encoding="utf-8") as fh:
                    fh.write(existing[name])
            for argv in (["rate", "--games", paths["games.csv"], "--snapshot",
                          paths["in.snapshot"], "--out-snapshot", paths["out.snapshot"],
                          "--report", paths["report.csv"]],
                         ["predict", "--snapshot", paths["in.snapshot"], "--fixtures",
                          paths["fixtures.csv"], "--out", paths["predictions.csv"]]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                err = err.getvalue()
                assert code in (cli.EXIT_INPUT_ERROR, cli.EXIT_DEGENERATE), (argv[0], err)
                assert [line for line in err.splitlines() if line.startswith("error:")] \
                    == [err.splitlines()[-1]], err
                assert "Traceback" not in err
                assert not [name for name in os.listdir(tmp) if name.startswith(".partial-")]
                for name, content in existing.items():
                    with open(paths[name], encoding="utf-8") as fh:
                        assert fh.read() == content
