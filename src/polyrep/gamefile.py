"""Line-oriented game file format: the single ingestion point.

    # any line may carry a comment after a hash
    type: 3 2
    -1   8  -7   3  -3
    -10 -1  11   3  -3
    11  -7  -4  -6   6
    -3  -3   6   0   0
    3    3  -6   0   0

The first content line declares the group sizes; the following n lines
hold the payoff matrix row by row.  Numbers may be integers, decimals,
or simple fractions like 1/3.  Files are read as UTF-8 text.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np

from .games import GameType, PolymatrixGame, validate_game


class GameFileError(ValueError):
    """Malformed game file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


def _parse_number(token: str, line: int) -> float:
    try:
        if "/" in token:
            return float(Fraction(token))
        return float(token)
    except (ValueError, ZeroDivisionError):
        raise GameFileError(f"cannot parse number {token!r}", line) from None


def _read_text(path: str | Path) -> str:
    """The file's text, read as UTF-8; GameFileError at the first byte that is not."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GameFileError(f"byte {data[exc.start]:#04x} is not UTF-8 text", line) from None


def parse_game_text(text: str) -> PolymatrixGame:
    content: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            content.append((lineno, stripped))
    if not content:
        raise GameFileError("empty file")

    lineno, header = content[0]
    if not header.lower().startswith("type:"):
        raise GameFileError("first line must be 'type: n_1 n_2 ...'", lineno)
    try:
        sizes = tuple(int(tok) for tok in header.split(":", 1)[1].split())
    except ValueError:
        raise GameFileError("group sizes must be integers", lineno) from None
    if not sizes:
        raise GameFileError("no group sizes given", lineno)
    try:
        gtype = GameType(sizes)
    except ValueError as exc:
        raise GameFileError(str(exc), lineno) from None

    rows = content[1:]
    if len(rows) != gtype.n:
        raise GameFileError(
            f"expected {gtype.n} matrix rows for type {gtype}, found {len(rows)}",
            rows[-1][0] if rows else lineno,
        )
    payoff = np.zeros((gtype.n, gtype.n))
    for r, (rline, rtext) in enumerate(rows):
        tokens = rtext.split()
        if len(tokens) != gtype.n:
            raise GameFileError(
                f"row has {len(tokens)} entries, expected {gtype.n}", rline
            )
        payoff[r] = [_parse_number(tok, rline) for tok in tokens]

    game = PolymatrixGame(gtype, payoff)
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
    """A bare whitespace matrix file (used for Lotka-Volterra input)."""
    rows = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        rows.append([_parse_number(tok, lineno) for tok in stripped.split()])
    if not rows or any(len(r) != len(rows) for r in rows):
        raise GameFileError(f"{path}: expected a square numeric matrix")
    return np.array(rows)
