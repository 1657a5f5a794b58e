"""Game-file parsing, rating snapshots, and prior initialization.

Games arrive as delimited text with a ``period,white,black,result`` header;
results accept 1 / 0.5 / 0 and the letter codes W / D / L (white's
perspective).  Snapshots are a line-oriented text format with a schema
version header, written so that floats round-trip bit-exactly.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import math
import os
import tempfile
from dataclasses import dataclass

from . import model
from .engine import EngineConfig, PlayerBelief, finite_precision
from .model import Hyperparameters

SNAPSHOT_MAGIC = "drawrating-snapshot"
SNAPSHOT_VERSION = 1

_RESULT_CODES = {
    "1": model.WIN, "0.5": model.DRAW, "1/2": model.DRAW, "0": model.LOSS,
    "W": model.WIN, "D": model.DRAW, "L": model.LOSS,
}


class SnapshotFormatError(ValueError):
    """Snapshot stream is malformed or has an unsupported schema version."""


@dataclass(frozen=True, slots=True)
class GameRecord:
    """One game; slotted, so it holds no instance dict (about 70 B a game)."""

    period: int
    white_id: str
    black_id: str
    outcome: float  # 1, 0.5 or 0, from white's perspective


@dataclass
class RatingSnapshot:
    period: int
    entries: list  # (player_id, mu, sigma, games_played_cumulative)
    hyperparameters: Hyperparameters
    config: EngineConfig

    def state(self) -> dict:
        return {
            pid: PlayerBelief(pid, mu, sigma) for pid, mu, sigma, _ in self.entries
        }

    def games_played(self) -> dict:
        return {pid: games for pid, _, _, games in self.entries}

    def columns(self) -> tuple:
        """The entries as (ids, mu, sigma, games) tuples."""
        return tuple(zip(*self.entries)) or ((),) * 4


def parse_games(stream) -> tuple[list[GameRecord], list[tuple[int, str]]]:
    """Parse a game file into (records, rejects); never aborts on a bad row.

    Rejects carry (line number, reason).  A header row is skipped if
    present.  All records of one player share one id string, and all
    records of one period one int.
    """
    records, rejects = [], []
    shared = {}  # one object per player id and per period, for this parse
    reader = csv.reader(stream)
    for line_no, row in enumerate(reader, start=1):
        if not row or (line_no == 1 and [c.strip().lower() for c in row[:1]] == ["period"]):
            continue
        if len(row) != 4:
            rejects.append((line_no, f"expected 4 fields, got {len(row)}"))
            continue
        period_text, white, black, result = map(str.strip, row)
        try:
            period = int(period_text)
        except ValueError:
            rejects.append((line_no, f"bad period {period_text!r}"))
            continue
        if period < 1:
            rejects.append((line_no, f"period must be >= 1, got {period}"))
            continue
        if not white or not black:
            rejects.append((line_no, "empty player id"))
            continue
        if white == black:
            rejects.append((line_no, f"self-play: {white!r}"))
            continue
        outcome = _RESULT_CODES.get(result.upper())
        if outcome is None:
            rejects.append((line_no, f"bad result {result!r}"))
            continue
        records.append(GameRecord(shared.setdefault(period, period),
                                  shared.setdefault(white, white),
                                  shared.setdefault(black, black), outcome))
    return records, rejects


def parse_ratings(stream) -> tuple[list[tuple[str, float]], list[tuple[int, str]]]:
    """Parse a ``player,elo`` file into (ratings, rejects); never aborts on a bad row.

    Rejects carry (line number, reason).  A header row is skipped if
    present.  Duplicate ids and non-finite ratings are left to
    ``initialize_priors``, which refuses them.
    """
    ratings, rejects = [], []
    for line_no, row in enumerate(csv.reader(stream), start=1):
        if not row or (line_no == 1 and row[0].strip().lower() == "player"):
            continue
        if len(row) != 2:
            rejects.append((line_no, f"expected 2 fields, got {len(row)}"))
            continue
        player, elo = (c.strip() for c in row)
        if not player:
            rejects.append((line_no, "empty player id"))
            continue
        try:
            ratings.append((player, float(elo)))
        except ValueError:
            rejects.append((line_no, f"bad elo {elo!r}"))
    return ratings, rejects


def read_ratings(path: str) -> tuple[list[tuple[str, float]], list[tuple[int, str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return parse_ratings(fh)


def read_games(path: str) -> tuple[list[GameRecord], list[tuple[int, str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return parse_games(fh)


def write_games(games: list[GameRecord], stream) -> None:
    stream.write("period,white,black,result\n")
    stream.writelines(f"{g.period},{csv_field(g.white_id)},{csv_field(g.black_id)},"
                      f"{_format_result(g.outcome)}\n" for g in games)


def _format_result(outcome: float) -> str:
    return {1.0: "1", 0.5: "0.5", 0.0: "0"}[float(outcome)]


def csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one of several fields in a row,
    except that a lone carriage return is quoted too: ``csv.writer`` leaves it
    bare under a ``"\\n"`` line terminator, and ``csv.reader`` refuses it."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def delimited_lines(ids, *columns):
    """Lines ``id,c1,c2,...`` with a newline each, from an id column and text
    columns, byte for byte as ``csv.writer(lineterminator="\\n")`` writes them.

    The text columns must need no quoting, as numbers formatted with
    ``repr``, ``:.2f`` or ``int`` never do; only an id that holds a comma, a
    quote or a line break is quoted.  An id with a lone carriage return is
    the one exception to the byte identity: it is quoted, so that it reads back.
    """
    for row in zip(map(csv_field, ids), *columns):
        yield ",".join(row) + "\n"


def write_snapshot(stream, period: int, h: Hyperparameters, cfg: EngineConfig,
                   ids, mu_text, sigma_text, games_text) -> None:
    """The snapshot format: the header, then one ``id,mu,sigma,games`` line
    per player from text columns (``repr`` of each float, the games count)."""
    stream.write(f"{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION}\n")
    stream.write(f"period {period}\n")
    stream.write(
        "hyperparameters "
        f"{h.alpha0!r} {h.alpha1!r} {h.beta0!r} {h.beta1!r} {h.tau!r}\n"
    )
    stream.write(
        "config "
        f"{cfg.sigma_cap!r} {int(cfg.draw_score_override)} "
        f"{cfg.default_prior_elo!r} {cfg.default_prior_sd_elo!r} "
        f"{cfg.rated_prior_sd_elo!r}\n"
    )
    stream.write(f"players {len(ids)}\n")
    stream.writelines(delimited_lines(ids, mu_text, sigma_text, games_text))


def save_snapshot(snapshot: RatingSnapshot, stream) -> None:
    ids, mu, sigma, games = snapshot.columns()
    write_snapshot(stream, snapshot.period, snapshot.hyperparameters, snapshot.config,
                   ids, map(repr, map(float, mu)), map(repr, map(float, sigma)),
                   map(str, games))


def load_snapshot(stream) -> RatingSnapshot:
    def next_line():
        line = stream.readline()
        if not line:
            raise SnapshotFormatError("truncated snapshot")
        return line.rstrip("\n")

    header = next_line().split()
    if len(header) != 2 or header[0] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"not a {SNAPSHOT_MAGIC} file")
    if header[1] != f"v{SNAPSHOT_VERSION}":
        raise SnapshotFormatError(
            f"unsupported snapshot version {header[1]}, expected v{SNAPSHOT_VERSION}"
        )
    try:
        period = int(_expect(next_line(), "period"))
        h_parts = [float(v) for v in _expect(next_line(), "hyperparameters").split()]
        c_parts = _expect(next_line(), "config").split()
        count = int(_expect(next_line(), "players"))
        if len(h_parts) != 5 or len(c_parts) != 5 or c_parts[1] not in ("0", "1"):
            raise SnapshotFormatError("expected 5 hyperparameters and 5 config values, "
                                      "with a draw override flag of 0 or 1")
        hyper = Hyperparameters(*h_parts)
        config = EngineConfig(
            sigma_cap=float(c_parts[0]),
            draw_score_override=c_parts[1] == "1",
            default_prior_elo=float(c_parts[2]),
            default_prior_sd_elo=float(c_parts[3]),
            rated_prior_sd_elo=float(c_parts[4]),
        )
    except ValueError as exc:
        raise SnapshotFormatError(f"malformed snapshot header: {exc}") from exc

    entries = []
    seen = set()
    reader = csv.reader(stream)
    for row in reader:
        if len(entries) == count:
            if row:  # a blank line past the player rows is read past
                raise SnapshotFormatError(f"row {row!r} after the {count} player rows")
            continue
        try:
            pid, mu, sigma, games = row
            mu, sigma, games = float(mu), float(sigma), int(games)
        except ValueError:  # not four fields, or not numbers
            raise SnapshotFormatError(f"malformed player row {row!r}") from None
        if pid in seen:
            raise SnapshotFormatError(f"duplicate player id {pid!r}")
        if games < 0:
            raise SnapshotFormatError(f"player {pid!r} has invalid games count {games}")
        if not math.isfinite(mu):
            raise SnapshotFormatError(f"player {pid!r} has invalid mu {mu}")
        # a sigma of 1e-150 or more has sigma**-2 <= 1e300, so only a smaller
        # one pays for the exact check; the five header lines precede the rows
        if not (math.isfinite(sigma) and sigma > 0) or (
                sigma < 1e-150 and not finite_precision(sigma)):
            raise SnapshotFormatError(f"snapshot line {5 + reader.line_num}: player {pid!r} has "
                                      f"invalid sigma {sigma!r}, not positive with a finite "
                                      f"sigma**-2")
        seen.add(pid)
        entries.append((pid, mu, sigma, games))
    if len(entries) != count:
        raise SnapshotFormatError(
            f"expected {count} player rows, found {len(entries)}"
        )
    return RatingSnapshot(period, entries, hyper, config)


def _expect(line: str, key: str) -> str:
    if not line.startswith(key + " "):
        raise SnapshotFormatError(f"expected {key!r} line, got {line!r}")
    return line[len(key) + 1:]


@contextlib.contextmanager
def atomic_output(path: str, prefix: str = ".partial-"):
    """Text stream whose content replaces ``path`` only if the block completes.

    It writes a temp file in the target directory and renames it over
    ``path`` at the end; on any error the temp file is removed and ``path``
    is left as it was.  A directory at ``path`` is refused before anything is
    written.  The file gets the mode a plain ``open`` would give.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=prefix)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def atomic_outputs(*paths):
    """One ``atomic_output`` stream per path, ``None`` where no path is given.

    The temp files are renamed only once the whole block has completed, so
    an error anywhere in it leaves every path as it was.  Two paths naming
    one file, where one output would replace the other, are refused first.
    """
    real = [os.path.realpath(path) for path in paths if path]
    if len(set(real)) < len(real):
        raise ValueError(f"two outputs name the same file {max(real, key=real.count)!r}")
    with contextlib.ExitStack() as stack:
        yield [stack.enter_context(atomic_output(path)) if path else None
               for path in paths]


def write_snapshot_file(snapshot: RatingSnapshot, path: str) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    with atomic_output(path, prefix=".snapshot-") as fh:
        save_snapshot(snapshot, fh)


def read_snapshot_file(path: str) -> RatingSnapshot:
    with open(path, encoding="utf-8", newline="") as fh:
        return load_snapshot(fh)


def initialize_priors(
    ratings: list[tuple[str, float]] | None, cfg: EngineConfig
) -> dict:
    """Beliefs for players with existing Elo ratings.

    Unlisted players are not instantiated here; they pick up the default
    prior on first appearance in a period.
    """
    state = {}
    for pid, elo in ratings or []:
        if pid in state:
            raise ValueError(f"duplicate player id {pid!r}")
        state[pid] = PlayerBelief(
            pid,
            model.elo_to_latent(elo),
            model.elo_sd_to_latent(cfg.rated_prior_sd_elo),
        )
    return state
