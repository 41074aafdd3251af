import re

import numpy as np
import numpy.testing as npt
import pytest

from polyrep.gamefile import (
    GameFileError,
    emit_game,
    parse_game,
    parse_game_text,
    parse_matrix,
    write_game,
)
from polyrep.games import GameType, PolymatrixGame

from conftest import EXAMPLE_PAYOFF, random_game


class TestParse:
    def test_example_fixture(self, example_game_file):
        game = parse_game(example_game_file)
        assert game.gtype == GameType((3, 2))
        npt.assert_array_equal(game.payoff, EXAMPLE_PAYOFF)

    def test_comments_and_blank_lines(self):
        text = "\n# leading comment\ntype: 2  # trailing\n0 1\n1 0  # row\n\n"
        game = parse_game_text(text)
        npt.assert_array_equal(game.payoff, [[0, 1], [1, 0]])

    def test_fractions(self):
        game = parse_game_text("type: 2\n1/3 -2/7\n0.5 1\n")
        assert abs(game.payoff[0, 0] - 1 / 3) < 1e-15
        assert abs(game.payoff[0, 1] + 2 / 7) < 1e-15

    def test_row_count_error_carries_line(self):
        with pytest.raises(GameFileError) as err:
            parse_game_text("type: 2\n0 1\n1 0\n2 2\n")
        assert "rows" in str(err.value)

    def test_bad_token_carries_line(self):
        with pytest.raises(GameFileError) as err:
            parse_game_text("type: 2\n0 x\n1 0\n")
        assert "line 2" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(GameFileError):
            parse_game_text("0 1\n1 0\n")

    def test_short_row(self):
        with pytest.raises(GameFileError) as err:
            parse_game_text("type: 2\n0\n1 0\n")
        assert "entries" in str(err.value)

    @pytest.mark.parametrize("read", [parse_game, parse_matrix])
    def test_bytes_that_are_not_utf8(self, tmp_path, read):
        path = tmp_path / "g.txt"
        path.write_bytes(b"type: 2\n\xff 1\n0 0\n")
        with pytest.raises(GameFileError, match=r"^line 2: byte 0xff is not UTF-8 text$") as info:
            read(path)
        assert info.value.line == 2

    def test_empty_file(self):
        with pytest.raises(GameFileError):
            parse_game_text("# nothing here\n")


class TestRoundTrip:
    def test_integer_exact(self, example_game):
        again = parse_game_text(emit_game(example_game))
        npt.assert_array_equal(again.payoff, example_game.payoff)
        assert again.gtype == example_game.gtype

    def test_float_round_trip(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            game = random_game(GameType((2, 3)), rng)
            again = parse_game_text(emit_game(game))
            npt.assert_array_equal(again.payoff, game.payoff)

    def test_write_and_read(self, tmp_path, example_game):
        path = tmp_path / "game.txt"
        write_game(example_game, path)
        npt.assert_array_equal(parse_game(path).payoff, example_game.payoff)


class TestPayoffRange:
    def test_parser_names_the_entry_beyond_the_range(self):
        with pytest.raises(GameFileError, match=r"payoff entry \(1, 0\) = -2e\+300 exceeds 1e\+300"):
            parse_game_text("type: 2\n0 1e300\n-2e300 0\n")

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, 2e300])
    def test_emit_refuses_what_the_parser_refuses(self, tmp_path, x):
        payoff = np.zeros((2, 2))
        payoff[1, 0] = x
        game = PolymatrixGame(GameType((2,)), payoff)
        with pytest.raises(ValueError, match=re.escape(f"payoff entry (1, 0) = {x!r}")):
            emit_game(game)
        path = tmp_path / "g.txt"
        with pytest.raises(ValueError):
            write_game(game, path)
        assert not path.exists()


class TestMatrixFile:
    def test_square_matrix(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# interaction\n0 -1\n1 0\n")
        npt.assert_array_equal(parse_matrix(path), [[0, -1], [1, 0]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 1\n1\n")
        with pytest.raises(GameFileError):
            parse_matrix(path)
