"""Tests for game parsing, snapshot persistence and prior initialization."""

import csv
import dataclasses
import io
import math
import os
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawrating import model, store
from drawrating.engine import EngineConfig
from drawrating.model import Hyperparameters
from drawrating.store import GameRecord, RatingSnapshot, SnapshotFormatError


class TestParseGames:
    def test_header_and_letter_codes(self):
        text = "period,white,black,result\n1,a,b,1\n1,c,d,D\n2,e,f,L\n2,g,h,1/2\n"
        records, rejects = store.parse_games(io.StringIO(text))
        assert rejects == []
        assert [r.outcome for r in records] == [1.0, 0.5, 0.0, 0.5]
        assert records[2].period == 2

    def test_whitespace_tolerated(self):
        records, rejects = store.parse_games(io.StringIO(" 1 , a , b , 0.5 \n"))
        assert rejects == []
        assert records == [GameRecord(1, "a", "b", 0.5)]

    @pytest.mark.parametrize("row,reason_part", [
        ("1,a,b", "expected 4 fields"),
        ("x,a,b,1", "bad period"),
        ("0,a,b,1", "period must be >= 1"),
        ("1,,b,1", "empty player id"),
        ("1,a,a,1", "self-play"),
        ("1,a,b,2-0", "bad result"),
    ])
    def test_reject_reasons(self, row, reason_part):
        records, rejects = store.parse_games(io.StringIO(row + "\n"))
        assert records == []
        assert len(rejects) == 1
        assert reason_part in rejects[0][1]

    def test_bad_rows_do_not_abort(self):
        text = "1,a,b,1\n1,a,a,1\n1,c,d,0\n"
        records, rejects = store.parse_games(io.StringIO(text))
        assert len(records) == 2
        assert rejects == [(2, "self-play: 'a'")]

    def test_blank_lines_skipped(self):
        records, rejects = store.parse_games(io.StringIO("\n1,a,b,1\n\n"))
        assert len(records) == 1 and rejects == []


class TestCompactRecords:
    """A game record is slotted, and a parse shares one id string per player
    and one int per period among its records."""

    @staticmethod
    def _league_text(games=20_000, players=200):
        # periods above 256, whose ints Python does not cache
        rows = [f"{1000 + k // 2000},player{k % players},player{(7 * k + 1) % players},"
                f"{'1' if k % 3 == 0 else '0.5' if k % 3 == 1 else 'L'}"
                for k in range(games)]
        return "period,white,black,result\n" + "\n".join(rows) + "\n"

    def test_a_record_has_slots_and_no_instance_dict(self):
        record = GameRecord(1, "a", "b", 1.0)
        assert GameRecord.__slots__ == ("period", "white_id", "black_id", "outcome")
        assert not hasattr(record, "__dict__")

    def test_fields_keep_their_order(self):
        assert [f.name for f in dataclasses.fields(GameRecord)] \
            == ["period", "white_id", "black_id", "outcome"]
        assert GameRecord(3, "a", "b", 0.5) == GameRecord(
            period=3, white_id="a", black_id="b", outcome=0.5)

    def test_equality_hashing_replace_and_pickle(self):
        record = GameRecord(2, "anna", "bert", 0.5)
        same = GameRecord(2, "an" + "na", "bert", 0.5)
        assert record == same and hash(record) == hash(same)
        assert record != GameRecord(2, "anna", "bert", 1.0)
        assert len({record, same, GameRecord(3, "anna", "bert", 0.5)}) == 2
        assert dataclasses.replace(record, outcome=1.0) == GameRecord(2, "anna", "bert", 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.period = 3
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(record, protocol)) == record

    def test_a_parse_shares_ids_and_periods(self):
        records, rejects = store.parse_games(io.StringIO(self._league_text(4_000, 50)))
        assert rejects == []
        first = {}
        for r in records:
            for value in (r.white_id, r.black_id, r.period):
                assert first.setdefault(value, value) is value
        assert len(first) == 50 + 2

    def test_a_parsed_game_costs_at_most_100_bytes(self):
        text = self._league_text()
        stream = io.StringIO(text)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records, rejects = store.parse_games(stream)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(records) == 20_000 and rejects == []
        assert held / len(records) <= 100


class TestGameRoundTrip:
    def test_write_then_parse(self):
        games = [
            GameRecord(1, "alpha", "beta", 1.0),
            GameRecord(1, "gamma", "delta", 0.5),
            GameRecord(2, "alpha", "gamma", 0.0),
        ]
        buf = io.StringIO()
        store.write_games(games, buf)
        buf.seek(0)
        parsed, rejects = store.parse_games(buf)
        assert rejects == []
        assert parsed == games

    def test_ids_that_need_quoting_read_back(self):
        """csv.writer left a lone carriage return bare, and csv.reader then
        split the row there."""
        games = [
            GameRecord(1, "a\rb", "c,d", 1.0),
            GameRecord(2, 'e"f', "g\nh", 0.5),
            GameRecord(3, "i\r\nj", "k\rl\rm", 0.0),
        ]
        buf = io.StringIO(newline="")
        store.write_games(games, buf)
        buf.seek(0)
        assert store.parse_games(buf) == (games, [])


def _snapshot():
    return RatingSnapshot(
        period=7,
        entries=[
            ("anna", 0.1234567890123456, 0.5756462732485116, 12),
            ("bert", -1.5, 1.4391156831212789, 3),
        ],
        hyperparameters=Hyperparameters(beta0=0.35338, beta1=0.57041, tau=0.4604),
        config=EngineConfig(draw_score_override=False, default_prior_elo=1750.0),
    )


class TestSnapshotRoundTrip:
    def test_bit_exact_round_trip(self):
        snap = _snapshot()
        buf = io.StringIO()
        store.save_snapshot(snap, buf)
        buf.seek(0)
        loaded = store.load_snapshot(buf)
        assert loaded.period == 7
        assert loaded.entries == snap.entries  # exact floats via repr
        assert loaded.hyperparameters == snap.hyperparameters
        assert loaded.config == snap.config

    def test_state_and_games_played(self):
        snap = _snapshot()
        state = snap.state()
        assert state["anna"].mu == snap.entries[0][1]
        assert snap.games_played() == {"anna": 12, "bert": 3}

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "ratings.snapshot")
        store.write_snapshot_file(_snapshot(), path)
        loaded = store.read_snapshot_file(path)
        assert loaded.entries == _snapshot().entries
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".snapshot-")]

    def test_serialization_is_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        store.save_snapshot(_snapshot(), a)
        store.save_snapshot(_snapshot(), b)
        assert a.getvalue() == b.getvalue()


#: Player ids with every character csv quoting looks at, spaces, non-ASCII
#: text and the empty string.
ids = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "9", "é", "名", "\t"]),
              max_size=8) | st.text(max_size=8)
finite = st.floats(allow_nan=False, allow_infinity=False)


def _without_lone_cr(pid: str) -> bool:
    return "\r" not in pid.replace("\r\n", "")


class TestDelimitedLines:
    @given(st.lists(st.tuples(ids.filter(_without_lone_cr), finite, finite,
                              st.integers(-10**20, 10**20))))
    @settings(max_examples=300)
    def test_matches_csv_writer(self, rows):
        """The row formatter writes the bytes csv.writer writes for the same
        rows, unless an id holds a lone carriage return."""
        texts = [
            (pid, repr(x), f"{y:.2f}", str(n), f"{x - y:.2f}") for pid, x, y, n in rows
        ]
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(texts)
        columns = list(zip(*texts)) or [()] * 5
        assert "".join(store.delimited_lines(*columns)) == expected.getvalue()

    def test_quotes_a_lone_carriage_return(self):
        """csv.writer leaves these ids bare under a "\\n" terminator, and
        csv.reader refuses the row; the formatter quotes them."""
        pids = ["a\rb", "\r", "a\r", '\r"', "a\r\nb\r"]
        lines = store.delimited_lines(pids, ["1"] * len(pids))
        assert list(lines) == [
            '"a\rb",1\n', '"\r",1\n', '"a\r",1\n', '"\r""",1\n', '"a\r\nb\r",1\n',
        ]


@st.composite
def snapshots(draw):
    pids = draw(st.lists(ids, unique=True, max_size=12))
    positive = st.floats(min_value=5e-324, allow_infinity=False)
    # the smallest sigma, and prior sd in Elo, whose precision sigma**-2 is finite
    sigmas = st.floats(min_value=7.458340731200208e-155, allow_infinity=False)
    prior_sds = st.floats(min_value=1.3e-152, allow_infinity=False)
    entries = [(pid, draw(finite), draw(sigmas), draw(st.integers(0, 10**6)))
               for pid in pids]
    h = Hyperparameters(*draw(st.tuples(finite, finite, finite, finite,
                                        st.floats(0.0, 1e300))))
    cfg = EngineConfig(draw(positive), draw(st.booleans()), draw(finite), draw(prior_sds),
                       draw(prior_sds))
    return RatingSnapshot(draw(st.integers(1, 10**6)), entries, h, cfg)


class TestSnapshotProperties:
    @given(snapshots())
    @settings(max_examples=200)
    def test_load_of_save_is_the_snapshot(self, snap):
        buf = io.StringIO()
        store.save_snapshot(snap, buf)
        buf.seek(0)
        assert store.load_snapshot(buf) == snap

    def test_lone_carriage_return_id_round_trips(self):
        snap = RatingSnapshot(2, [("a\rb", 0.5, 0.4, 1)], Hyperparameters(), EngineConfig())
        buf = io.StringIO()
        store.save_snapshot(snap, buf)
        buf.seek(0)
        assert store.load_snapshot(buf) == snap


class TestSnapshotValidation:
    def _corrupt(self, mutate):
        buf = io.StringIO()
        store.save_snapshot(_snapshot(), buf)
        lines = buf.getvalue().split("\n")
        mutate(lines)
        return io.StringIO("\n".join(lines))

    def test_wrong_magic(self):
        with pytest.raises(SnapshotFormatError):
            store.load_snapshot(io.StringIO("something-else v1\n"))

    def test_unsupported_version(self):
        stream = self._corrupt(lambda ls: ls.__setitem__(0, f"{store.SNAPSHOT_MAGIC} v99"))
        with pytest.raises(SnapshotFormatError, match="version"):
            store.load_snapshot(stream)

    def test_truncated(self):
        buf = io.StringIO()
        store.save_snapshot(_snapshot(), buf)
        head = buf.getvalue()[:40]
        with pytest.raises(SnapshotFormatError):
            store.load_snapshot(io.StringIO(head))

    def test_player_count_mismatch(self):
        stream = self._corrupt(lambda ls: ls.__setitem__(4, "players 5"))
        with pytest.raises(SnapshotFormatError, match="player rows"):
            store.load_snapshot(stream)

    def test_duplicate_player(self):
        def mutate(ls):
            ls[6] = ls[5]
        with pytest.raises(SnapshotFormatError, match="duplicate"):
            store.load_snapshot(self._corrupt(mutate))

    def test_invalid_sigma(self):
        def mutate(ls):
            parts = ls[5].split(",")
            parts[2] = "-0.5"
            ls[5] = ",".join(parts)
        with pytest.raises(SnapshotFormatError, match="sigma"):
            store.load_snapshot(self._corrupt(mutate))

    @pytest.mark.parametrize("sigma", ["1e-200", "5e-324", "7.458340731200207e-155"])
    def test_a_sigma_whose_precision_overflows_names_its_line(self, sigma):
        """The Newton step takes sigma**-2, which overflows below about 7.46e-155."""
        def mutate(ls):
            parts = ls[6].split(",")
            parts[2] = sigma
            ls[6] = ",".join(parts)
        with pytest.raises(SnapshotFormatError,
                           match=rf"^snapshot line 7: player 'bert' has invalid sigma {sigma}, "):
            store.load_snapshot(self._corrupt(mutate))

    def test_the_smallest_sigma_with_a_finite_precision_is_read(self):
        def mutate(ls):
            parts = ls[6].split(",")
            parts[2] = "7.458340731200208e-155"
            ls[6] = ",".join(parts)
        assert store.load_snapshot(self._corrupt(mutate)).entries[1][2] == 7.458340731200208e-155

    @pytest.mark.parametrize("mu", ["nan", "inf", "-inf"])
    def test_non_finite_mu(self, mu):
        def mutate(ls):
            parts = ls[5].split(",")
            parts[1] = mu
            ls[5] = ",".join(parts)
        with pytest.raises(SnapshotFormatError, match="mu"):
            store.load_snapshot(self._corrupt(mutate))

    def test_malformed_header_line(self):
        stream = self._corrupt(lambda ls: ls.__setitem__(1, "period seven"))
        with pytest.raises(SnapshotFormatError):
            store.load_snapshot(stream)

    @pytest.mark.parametrize("extra", ["carl,0.0,0.5,1", "anna,0.1,0.5,12", " "])
    def test_a_row_past_the_player_count_is_refused(self, extra):
        """A player row after the ``players N`` rows would be dropped unread."""
        stream = self._corrupt(lambda ls: ls.insert(7, extra))
        with pytest.raises(SnapshotFormatError, match="after the 2 player rows"):
            store.load_snapshot(stream)

    def test_a_negative_games_count_is_refused(self):
        def mutate(ls):
            parts = ls[6].split(",")
            parts[3] = "-4"
            ls[6] = ",".join(parts)
        with pytest.raises(SnapshotFormatError, match="'bert' has invalid games count -4"):
            store.load_snapshot(self._corrupt(mutate))

    @pytest.mark.parametrize("column,text", [(1, "zz"), (2, ""), (3, "1.5"), (3, "x")])
    def test_a_non_numeric_field_names_its_row(self, column, text):
        def mutate(ls):
            parts = ls[5].split(",")
            parts[column] = text
            ls[5] = ",".join(parts)
        with pytest.raises(SnapshotFormatError, match=r"^malformed player row \['anna', "):
            store.load_snapshot(self._corrupt(mutate))

    def test_blank_lines_after_the_player_rows_are_read_past(self):
        buf = io.StringIO()
        store.save_snapshot(_snapshot(), buf)
        loaded = store.load_snapshot(io.StringIO(buf.getvalue() + "\n\n"))
        assert loaded.entries == _snapshot().entries


class TestAtomicOutputs:
    @pytest.mark.parametrize("second", ["x", "sub/../x", "link"])
    def test_two_paths_to_one_file_are_refused_before_writing(self, tmp_path, second):
        (tmp_path / "sub").mkdir()
        os.symlink(tmp_path / "x", tmp_path / "link")
        (tmp_path / "x").write_text("kept\n")
        with pytest.raises(ValueError, match="name the same file"):
            with store.atomic_outputs(str(tmp_path / "x"), None, str(tmp_path / second)):
                pytest.fail("the block ran")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "sub", "x"]
        assert (tmp_path / "x").read_text() == "kept\n"

    def test_distinct_paths_are_all_written(self, tmp_path):
        with store.atomic_outputs(str(tmp_path / "a"), None, str(tmp_path / "b")) as fhs:
            fhs[0].write("a")
            fhs[2].write("b")
            assert fhs[1] is None
        assert (tmp_path / "a").read_text() == "a" and (tmp_path / "b").read_text() == "b"


class TestInitializePriors:
    def test_elo_conversion(self):
        cfg = EngineConfig()
        state = store.initialize_priors([("anna", 2500.0), ("bert", 1500.0)], cfg)
        assert state["anna"].mu == pytest.approx(model.elo_to_latent(2500.0))
        assert state["anna"].mu == pytest.approx(5.756, abs=1e-3)
        assert state["anna"].sigma == pytest.approx(100.0 / model.ELO_SCALE)
        assert state["bert"].mu == 0.0

    def test_empty_and_none(self):
        assert store.initialize_priors([], EngineConfig()) == {}
        assert store.initialize_priors(None, EngineConfig()) == {}

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            store.initialize_priors([("a", 1500.0), ("a", 1600.0)], EngineConfig())

    def test_sigma_uses_rated_prior(self):
        cfg = EngineConfig(rated_prior_sd_elo=80.0)
        state = store.initialize_priors([("a", 1700.0)], cfg)
        assert state["a"].sigma == pytest.approx(80.0 / model.ELO_SCALE)
