"""End-to-end tests of the command-line pipelines."""

import pytest

from drawrating import cli, model, oracle, store
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
        assert all(games > 0 for games in loaded.games_played().values())

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


def _write_snapshot(path, mu=0.5):
    entries = [("anna", mu, 0.4, 3), ("bert", 1.0, 0.6, 5)]
    store.write_snapshot_file(
        store.RatingSnapshot(2, entries, model.DEFAULT_HYPERPARAMETERS, EngineConfig()),
        str(path),
    )


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
