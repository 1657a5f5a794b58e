"""Tests for game parsing, snapshot persistence and prior initialization."""

import csv
import dataclasses
import io
import math
import os
import pickle
import sys
import tracemalloc
import unittest.mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawrating import engine, model, store
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
        ("-1,a,b,1", "period must be >= 1, got -1"),
        ("+0,a,b,1", "period must be >= 1, got 0"),
        ("1,,b,1", "empty player id"),
        ("1,a,a,1", "self-play"),
        ("1,a,b,2-0", "bad result"),
    ])
    def test_reject_reasons(self, row, reason_part):
        records, rejects = store.parse_games(io.StringIO(row + "\n"))
        assert records == []
        assert len(rejects) == 1
        assert reason_part in rejects[0][1]

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "1\u0662", "\uff11", "\u00b9", "1.0",
                                       "+-1", "--1", "+", ""])
    def test_only_an_ascii_period_is_read(self, token):
        """``int`` reads ``1_0`` as 10 and an Arabic-Indic or fullwidth one as
        1; a period number is ASCII digits, with an optional sign."""
        records, rejects = store.parse_games(io.StringIO(f"{token},a,b,1\n"))
        assert records == []
        assert rejects == [(1, f"bad period {token!r}")]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int reads any number of digits")
    def test_a_period_of_more_digits_than_int_reads_is_a_bad_period(self):
        token = "1" * (sys.get_int_max_str_digits() + 1)
        _, rejects = store.parse_games(io.StringIO(f"{token},a,b,1\n"))
        assert rejects == [(1, f"bad period {token!r}")]

    @pytest.mark.parametrize("token,period", [("7", 7), ("+7", 7), ("007", 7), (" 12 ", 12)])
    def test_an_ascii_period_is_read(self, token, period):
        records, rejects = store.parse_games(io.StringIO(f"{token},a,b,1\n"))
        assert rejects == [] and [r.period for r in records] == [period]

    def test_bad_rows_do_not_abort(self):
        text = "1,a,b,1\n1,a,a,1\n1,c,d,0\n"
        records, rejects = store.parse_games(io.StringIO(text))
        assert len(records) == 2
        assert rejects == [(2, "self-play: 'a'")]

    def test_blank_lines_skipped(self):
        records, rejects = store.parse_games(io.StringIO("\n1,a,b,1\n\n"))
        assert len(records) == 1 and rejects == []


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a games or ratings file is not
    read as part of its first field; the file reads as it does without one."""

    @pytest.mark.parametrize("text", [
        "period,white,black,result\n1,a,b,1\n2,b,c,D\n",
        "1,a,b,1\n2,b,c,D\n",
    ], ids=["header", "no-header"])
    def test_games_file(self, tmp_path, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        want = store.read_games(str(plain))
        assert store.read_games(str(marked)) == want
        assert want[1] == [] and [g.period for g in want[0]] == [1, 2]

    @pytest.mark.parametrize("text", ["player,elo\nanna,2100\nbert,1900\n",
                                      "anna,2100\nbert,1900\n"], ids=["header", "no-header"])
    def test_ratings_file(self, tmp_path, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        want = store.read_ratings(str(plain))
        assert store.read_ratings(str(marked)) == want
        assert want == ([("anna", 2100.0), ("bert", 1900.0)], [])


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

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "ratings.snapshot")
        store.write_snapshot_file(_snapshot(), path)
        loaded = store.read_snapshot_file(path)
        assert loaded.entries == _snapshot().entries
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".partial-")]

    def test_the_settings_lines_hold_the_fields_in_order(self):
        """Every hyperparameter and config value distinct, the override off:
        a field moved in either dataclass moves a value on its line."""
        snap = RatingSnapshot(
            3, [("anna", 0.5, 0.4, 2)],
            Hyperparameters(alpha0=0.125, alpha1=-0.25, beta0=0.875, beta1=0.375, tau=0.3125),
            EngineConfig(sigma_cap=0.625, draw_score_override=False, default_prior_elo=1650.0,
                         default_prior_sd_elo=210.0, rated_prior_sd_elo=95.0),
        )
        buf = io.StringIO()
        store.save_snapshot(snap, buf)
        assert buf.getvalue().split("\n")[2:4] == [
            "hyperparameters 0.125 -0.25 0.875 0.375 0.3125",
            "config 0.625 0 1650.0 210.0 95.0",
        ]
        buf.seek(0)
        assert store.load_snapshot(buf) == snap

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


def row_loop_entries(stream):
    """The reference for ``store.load_snapshot``'s player rows: every row read
    through ``csv.reader``, one at a time, after a well-formed header."""
    header = [stream.readline() for _ in range(5)]
    count = int(header[4].split()[1])
    entries, seen = [], set()
    reader = csv.reader(stream)
    for row in reader:
        if len(entries) == count:
            if row:
                raise SnapshotFormatError(f"row {row!r} after the {count} player rows")
            continue
        try:
            pid, mu, sigma, games = row
            mu, sigma, games = float(mu), float(sigma), int(games)
        except ValueError:
            raise SnapshotFormatError(f"malformed player row {row!r}") from None
        if pid in seen:
            raise SnapshotFormatError(f"duplicate player id {pid!r}")
        if games < 0:
            raise SnapshotFormatError(f"player {pid!r} has invalid games count {games}")
        if not math.isfinite(mu):
            raise SnapshotFormatError(f"player {pid!r} has invalid mu {mu}")
        if not (math.isfinite(sigma) and sigma > 0) or (
                sigma < 1e-150 and not engine.finite_precision(sigma)):
            raise SnapshotFormatError(f"snapshot line {5 + reader.line_num}: player {pid!r} "
                                      f"has invalid sigma {sigma!r}, not positive with a finite "
                                      f"sigma**-2")
        seen.add(pid)
        entries.append((pid, mu, sigma, games))
    if len(entries) != count:
        raise SnapshotFormatError(f"expected {count} player rows, found {len(entries)}")
    return entries


def _read_both(text: str, newline: str):
    """(``load_snapshot``, reference) on ``text``: the entries' repr, which
    tells -0.0 from 0.0 and 1 from 1.0, or the refusal's type and message."""
    results = []
    for read in (lambda stream: store.load_snapshot(stream).entries, row_loop_entries):
        try:
            results.append(repr(read(io.StringIO(text, newline=newline))))
        except (SnapshotFormatError, csv.Error) as error:
            results.append((type(error), str(error)))
    return results


_HEADER = ("drawrating-snapshot v1\nperiod 3\nhyperparameters 0.0 0.0 1.09861 0.17037 0.14391\n"
           "config 0.691 1 1800.0 250.0 100.0\n")
#: ids that repeat one of the default ids p0..p3, need quoting, or hold spaces
_odd_ids = st.sampled_from(["p0", "p1", "p3", "a,b", 'say "x"', 'x"', "two\nlines", "a\rb",
                            "\r", " p2", "é"]).map(store.csv_field)
#: ids written as they are: csv.reader refuses a NUL and an unquoted carriage return
_raw_ids = st.sampled_from(["a\0b", "a\rb", "a\r", "x y"])
_mu_texts = st.floats(-1e3, 1e3).map(repr) | st.sampled_from(
    ["1_0", " 0.5", "0.5 ", "0.5\r", "nan", "inf", "-inf", "-0.0", "1e309", "", "x"])
_sigma_texts = st.floats(1e-3, 2.0).map(repr) | st.sampled_from(
    ["7.458340731200208e-155", "7.458340731200207e-155", "1e-150", "9.99e-151", "5e-324",
     "0.0", "-0.5", "nan", "inf", " 0.5", "1_0"])
_games_texts = st.integers(0, 10**6).map(str) | st.sampled_from(
    ["-1", "-4", "1_0", " 3", "3 ", "1.5", "", "99999999999999999999"])


@st.composite
def _snapshot_texts(draw):
    """Up to 14 plain rows with up to three faults drawn into them, a player
    count one off now and then, and a tail after the rows."""
    rows = draw(st.integers(0, 14))
    eol = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    fields = [[f"p{k}", repr(k / 7), "0.5", str(k % 5)] for k in range(rows)]
    widths, ends, before = [4] * rows, [eol] * rows, [""] * rows
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        k = draw(st.integers(0, rows - 1))
        kind = draw(st.sampled_from(["id", "raw id", "mu", "sigma", "games", "width", "end",
                                     "blank"]))
        if kind in ("id", "raw id"):
            fields[k][0] = draw(_odd_ids if kind == "id" else _raw_ids)
        elif kind in ("mu", "sigma", "games"):
            column = ("mu", "sigma", "games").index(kind) + 1
            fields[k][column] = draw((_mu_texts, _sigma_texts, _games_texts)[column - 1])
        elif kind == "width":  # 8 fields put each newline in a fourth field too
            widths[k] = draw(st.sampled_from([3, 5, 8]))
        elif kind == "end":
            ends[k] = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        else:
            before[k] = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [b + ",".join((f + ["7"] * 4)[:w]) + e
             for b, f, w, e in zip(before, fields, widths, ends)]
    count = rows + draw(st.sampled_from([0] * 6 + [-1, 1]))
    tail = draw(st.sampled_from(["", "", "\n", "\n\n", "\r\n", "p9,0.5,0.5,1\n", "p9,0.5\n"]))
    text = f"{_HEADER}players {max(count, 0)}\n" + "".join(lines) + tail
    return text[:-1] if draw(st.integers(0, 7)) == 0 else text  # maybe no final line end


class TestBlockReader:
    """``load_snapshot`` reads plain rows a block at a time and hands any
    other block to the ``csv.reader`` row loop; either way it must return
    the entries, or refuse with the message, that the row loop alone would."""

    @given(_snapshot_texts(), st.sampled_from([1, 2, 3, 5, store.ROWS_PER_BLOCK]),
           st.sampled_from(["", "\n"]))
    @settings(max_examples=600, deadline=None)
    def test_matches_the_row_loop(self, text, rows_per_block, newline):
        """Several small blocks, so that a fault can sit in any of them and an
        id can repeat across a boundary; ``newline`` "" splits lines as
        ``read_snapshot_file`` does, at a lone carriage return too."""
        with unittest.mock.patch.object(store, "ROWS_PER_BLOCK", rows_per_block):
            got, want = _read_both(text, newline)
        assert got == want

    @pytest.mark.parametrize("position", [0, 1023, 1024, 1025, 2047, 2048, 2599])
    @pytest.mark.parametrize("fault", [
        "p5,0.5,0.5,1", "p1024,0.5,0.5,1", '"q,1",0.5,0.5,1', '"q",0.5,0.5,1', "q,nan,0.5,1",
        "q,0.5,1e-200,1",
        "q,0.5,7.458340731200208e-155,1", "q,0.5,0.5,-2", "q,0.5,0.5", "q,0.5,0.5,1,1", "",
        "q,1_0, 0.5,1",
    ])
    def test_a_fault_in_any_block_of_the_real_size(self, fault, position):
        """2 600 rows are three blocks; the fault replaces one row, with a
        duplicate of p5 or of p1024 (the first row of the second block)."""
        lines = [f"p{k},{k / 7!r},0.5,{k % 5}\n" for k in range(2_600)]
        lines[position] = fault + "\n"
        text = f"{_HEADER}players 2600\n" + "".join(lines)
        got, want = _read_both(text, "")
        assert got == want
        assert got == want == _read_both(text.replace("\n", "\r\n"), "")[0]

    def test_a_field_over_the_csv_limit_is_refused_as_before(self):
        limit = csv.field_size_limit(40)
        try:
            got, want = _read_both(f"{_HEADER}players 2\np1,0.5,0.5,1\n{'p' * 41},0.5,0.5,1\n", "")
        finally:
            csv.field_size_limit(limit)
        assert got == want and want[0] is csv.Error

    def test_blocks_are_the_row_loop_on_a_plain_snapshot(self):
        buf = io.StringIO()
        entries = [(f"p{k}", k / 7 - 3.0, 0.25 + k / 1e4, k) for k in range(3_000)]
        store.save_snapshot(RatingSnapshot(2, entries, Hyperparameters(), EngineConfig()), buf)
        got, want = _read_both(buf.getvalue(), "")
        assert got == want == repr(entries)

    def test_peak_memory_of_a_5000_row_snapshot(self, fresh_python):
        """A block holds about a thousand rows' lines, fields and columns, not
        the whole file's: the loader's peak stays within 0.3 MB of the row
        loop's (1.45 MB in a new interpreter), where a whole-body read
        needed 1.5 MB more."""
        got = fresh_python("""
            import json, os, random, tempfile, tracemalloc
            from drawrating import store
            from drawrating.engine import EngineConfig
            from drawrating.model import Hyperparameters

            rng = random.Random(5)
            entries = [(f"p{k:05d}", rng.uniform(-3.0, 5.0), 0.5756462732485115,
                        rng.randrange(40)) for k in range(5_000)]
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "warm.snapshot")
                store.write_snapshot_file(
                    store.RatingSnapshot(4, entries, Hyperparameters(), EngineConfig()), path)
                del entries
                tracemalloc.start()
                loaded = store.read_snapshot_file(path)
                peak = tracemalloc.get_traced_memory()[1]
            print(json.dumps({"peak": peak, "rows": len(loaded.entries)}))
        """)
        assert got["rows"] == 5_000
        assert got["peak"] < 1_750_000


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
