"""Line-oriented game file format: the single ingestion point.

    # any line may carry a comment after a hash
    type: 3 2
    -1   8  -7   3  -3
    -10 -1  11   3  -3
    11  -7  -4  -6   6
    -3  -3   6   0   0
    3    3  -6   0   0

The first content line declares the group sizes; the following n lines
hold the payoff matrix row by row.  A bare matrix file (Lotka-Volterra
input) is n such rows alone; one row reader serves both formats, so a
refusal names the first bad row of either.  Every number polyrep reads
matches `_NUMBER`: ASCII digits with an optional sign, decimal point and
exponent, or a fraction of two integers like 1/3.  Files are UTF-8 text;
a leading byte-order mark is ignored.
"""

from __future__ import annotations

import codecs
import re
from pathlib import Path

import numpy as np

from .games import GameType, PolymatrixGame, validate_game


class GameFileError(ValueError):
    """Malformed game file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


_INTEGER = re.compile(r"[+-]?[0-9]+")  # ASCII digits: a backslash-d in a str pattern matches every Unicode digit
_NUMBER = re.compile(rf"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?|({_INTEGER.pattern})/([0-9]+)")


def _parse_number(token: str, line: int | None) -> float:
    """The float a `_NUMBER` token spells, a fraction past the float range its signed infinity; else GameFileError."""
    match = _NUMBER.fullmatch(token)
    try:
        if match is None:
            raise ValueError
        if match[3] is None:
            return float(token)
        return int(match[3]) / int(match[4])  # int / int is correctly rounded
    except OverflowError:
        return -np.inf if token[0] == "-" else np.inf
    except (ValueError, ZeroDivisionError):  # int() refuses a fraction past its digit limit too
        raise GameFileError(f"cannot parse number {token!r}", line) from None


def _read_text(path: str | Path) -> str:
    """The file's text, read as UTF-8 past a leading byte-order mark; GameFileError at the first byte that is not."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GameFileError(f"byte {data[exc.start]:#04x} is not UTF-8 text", line) from None


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, text) of each line left nonblank once its comment is cut: the one line reader of both formats."""
    lines = ((lineno, raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(text.splitlines(), start=1))
    return [(lineno, line) for lineno, line in lines if line]


def _square(rows: list[tuple[int, str]], n: int) -> np.ndarray:
    """The (n, n) array of n content lines, read in turn; GameFileError at the first without n entries or numbers."""
    out = np.zeros((n, n))
    for r, (lineno, line) in enumerate(rows):
        if len(tokens := line.split()) != n:
            raise GameFileError(f"row has {len(tokens)} entries, expected {n}", lineno)
        out[r] = [_parse_number(tok, lineno) for tok in tokens]
    return out


def parse_game_text(text: str) -> PolymatrixGame:
    content = _content_lines(text)
    if not content:
        raise GameFileError("empty file")

    lineno, header = content[0]
    if not header.lower().startswith("type:"):
        raise GameFileError("first line must be 'type: n_1 n_2 ...'", lineno)
    tokens = header.split(":", 1)[1].split()
    if not all(_INTEGER.fullmatch(tok) for tok in tokens):
        raise GameFileError("group sizes must be integers", lineno)
    if not tokens:
        raise GameFileError("no group sizes given", lineno)
    try:
        gtype = GameType(tuple(map(int, tokens)))
    except ValueError as exc:  # int() refuses a size past its digit limit too
        raise GameFileError(str(exc), lineno) from None

    rows = content[1:]
    if len(rows) != gtype.n:
        raise GameFileError(
            f"expected {gtype.n} matrix rows for type {gtype}, found {len(rows)}",
            rows[-1][0] if rows else lineno,
        )
    game = PolymatrixGame(gtype, _square(rows, gtype.n))
    problems = validate_game(game)
    if problems:
        raise GameFileError("; ".join(problems))
    return game


def parse_game(path: str | Path) -> PolymatrixGame:
    return parse_game_text(_read_text(path))


def _format_number(x: float) -> str:
    x = float(x)
    if abs(x) < 1e15 and x == int(x):  # False for NaN and the infinities, which int() refuses
        return str(int(x))
    return repr(x)  # shortest round-tripping decimal


def emit_game(game: PolymatrixGame) -> str:
    """The game file text of a game; ValueError for a game the parser would refuse."""
    problems = validate_game(game)
    if problems:
        raise ValueError("; ".join(problems))
    lines = ["type: " + " ".join(str(s) for s in game.gtype.sizes)]
    for row in game.payoff:
        lines.append(" ".join(_format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def write_game(game: PolymatrixGame, path: str | Path) -> None:
    """Write the game file; a game emit_game refuses leaves the path untouched."""
    Path(path).write_text(emit_game(game))


def parse_matrix(path: str | Path) -> np.ndarray:
    """A bare whitespace matrix file (used for Lotka-Volterra input); an error names the path, then the first bad row."""
    try:
        content = _content_lines(_read_text(path))
        if not content:
            raise GameFileError("empty file")
        return _square(content, len(content))
    except GameFileError as exc:
        named = GameFileError(f"{path}: {exc}")
        named.line = exc.line
        raise named from None
