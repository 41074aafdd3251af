import codecs
import re
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyrep.gamefile import (
    GameFileError,
    _format_number,
    _parse_number,
    emit_game,
    parse_game,
    parse_game_text,
    parse_matrix,
    write_game,
)
from polyrep.games import MAX_PAYOFF, GameType, PolymatrixGame

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

    @pytest.mark.parametrize("sizes", ["\u0662", "1_0", "\uff12", "2.0", "2/1"])
    def test_group_sizes_are_ascii_integers(self, sizes):
        # an Arabic-Indic or full-width two, a digit separator, a decimal or a fraction is no group size
        with pytest.raises(GameFileError, match="^line 1: group sizes must be integers$"):
            parse_game_text(f"type: {sizes}\n0 0\n0 0\n")

    def test_a_negative_size_is_an_integer_but_not_positive(self):
        with pytest.raises(GameFileError, match=r"^line 1: group sizes must be positive, got \(-1,\)$"):
            parse_game_text("type: -1\n0\n")

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
        named = "" if read is parse_game else re.escape(f"{path}: ")  # a matrix file's errors name it
        with pytest.raises(GameFileError, match=rf"^{named}line 2: byte 0xff is not UTF-8 text$") as info:
            read(path)
        assert info.value.line == 2

    def test_empty_file(self):
        with pytest.raises(GameFileError):
            parse_game_text("# nothing here\n")

    @pytest.mark.parametrize(
        "read, data",
        [(lambda path: parse_game(path).payoff, b"type: 2\n0 -1\n1 0\n"), (parse_matrix, b"0 -1\n1 0\n")],
        ids=["parse_game", "parse_matrix"],
    )
    def test_a_leading_byte_order_mark_is_ignored(self, tmp_path, read, data):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(data)
        marked.write_bytes(codecs.BOM_UTF8 + data)
        npt.assert_array_equal(read(marked), read(plain))

    @pytest.mark.parametrize("read", [parse_game, parse_matrix])
    def test_a_byte_after_the_mark_is_named_by_its_own_value(self, tmp_path, read):
        path = tmp_path / "g.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"0 \xff\n1 0\n")
        named = "" if read is parse_game else re.escape(f"{path}: ")
        with pytest.raises(GameFileError, match=rf"^{named}line 1: byte 0xff is not UTF-8 text$"):
            read(path)


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


class TestNumberGrammar:
    """`_parse_number`'s values; test_cli.TestNumberGrammar has every reader refuse NOT_NUMBERS."""

    @pytest.mark.parametrize(
        "token, value",
        [("7", 7.0), ("+1.", 1.0), (".5", 0.5), ("-2.5E-1", -0.25), ("1e-05", 1e-05), ("9e299", 9e299),
         ("-0", -0.0), ("-1/3", -1 / 3), ("+3/4", 0.75), ("1e400", np.inf), ("-1e400", -np.inf)],
    )
    def test_a_token_in_the_grammar_reads_as_float_does(self, token, value):
        assert np.float64(_parse_number(token, None)).tobytes() == np.float64(value).tobytes()

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_a_fraction_past_the_float_range_is_the_signed_infinity(self, sign):
        # the value 1e400 reads as, so the range checks that refuse 1e400 refuse it too
        assert _parse_number(sign + "1" + "0" * 400 + "/7", None) == float(sign + "inf")

    def test_a_fraction_past_the_integer_digit_limit_is_no_number(self):
        # int() converts at most sys.get_int_max_str_digits() digits; float() reads an integer of any length
        limit = sys.get_int_max_str_digits()
        assert _parse_number("1" * limit + "/3", None) == np.inf
        assert _parse_number("1" * (limit + 1), None) == np.inf
        with pytest.raises(GameFileError, match=r"cannot parse number '1111"):
            _parse_number("1" * (limit + 1) + "/3", None)

    def test_a_fraction_is_the_correctly_rounded_quotient(self):
        # 10**17 + 2 is no float: rounding it first, then dividing, gives 3.3333333333333332e+16
        assert _parse_number("100000000000000002/3", None) == 3.3333333333333336e16

    @given(st.floats(min_value=-MAX_PAYOFF, max_value=MAX_PAYOFF))
    def test_the_reader_reads_what_the_writer_writes(self, x):
        assert np.float64(_parse_number(_format_number(x), None)).tobytes() == np.float64(x + 0.0).tobytes()


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

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"0 1\n1\n", "line 2: row has 1 entries, expected 2"),
            (b"0 -1\n1 0 2\n", "line 2: row has 3 entries, expected 2"),
            (b"0 1\n1 0\n2 2\n", "line 1: row has 2 entries, expected 3"),
            (b"", "empty file"),
            (b"0 x\n1 0\n", "line 1: cannot parse number 'x'"),
            (b"0 \xff\n1 0\n", "line 1: byte 0xff is not UTF-8 text"),
        ],
    )
    def test_ragged_rejected(self, tmp_path, data, message):
        # the first bad row, an entry that is no number or no text, or a count that is not the number of rows,
        # after the path
        path = tmp_path / "m.txt"
        path.write_bytes(data)
        with pytest.raises(GameFileError, match=f"^{re.escape(str(path))}: {message}$"):
            parse_matrix(path)


# (matrix file, its first bad line, the message there): a game file of the same rows under a
# `type: n` header, n the number of rows, is refused with the same message one line further down
GRIDS = [
    (b"0 1\n1\n", 2, "row has 1 entries, expected 2"),
    (b"0 -1\n1 0 2\n", 2, "row has 3 entries, expected 2"),
    (b"0 1\n1 0\n2 2\n", 1, "row has 2 entries, expected 3"),
    (b"0 1 2\n1 x\n", 1, "row has 3 entries, expected 2"),
    (b"0 1\nx 1 2\n", 2, "row has 3 entries, expected 2"),
    (b"0 x\n1 0\n", 1, "cannot parse number 'x'"),
    (b"0 1\n1/0 0\n", 2, "cannot parse number '1/0'"),
    (b"0 1_0\n1 0\n", 1, "cannot parse number '1_0'"),
    (b"0 nan\n1 0\n", 1, "cannot parse number 'nan'"),
    (b"0 inf\n1 0\n", 1, "cannot parse number 'inf'"),
    (b"0 \xd9\xa1\n1 0\n", 1, "cannot parse number '\u0661'"),
    (b"0 3/-4\n1 0\n", 1, "cannot parse number '3/-4'"),
    (b"# A\n0 1 2\n\n1 0 2 # row\n2\n", 5, "row has 1 entries, expected 3"),
    (b"0 \xff\n1 0\n", 1, "byte 0xff is not UTF-8 text"),
]


@pytest.mark.parametrize("data, line, message", GRIDS)
def test_both_readers_refuse_a_grid_at_its_first_bad_row(tmp_path, data, line, message):
    matrix, game = tmp_path / "m.txt", tmp_path / "g.txt"
    matrix.write_bytes(data)
    rows = sum(1 for raw in data.splitlines() if raw.split(b"#")[0].strip())
    game.write_bytes(b"type: %d\n" % rows + data)
    with pytest.raises(GameFileError, match=f"^{re.escape(f'{matrix}: line {line}: {message}')}$") as info:
        parse_matrix(matrix)
    assert info.value.line == line
    with pytest.raises(GameFileError, match=f"^{re.escape(f'line {line + 1}: {message}')}$") as info:
        parse_game(game)
    assert info.value.line == line + 1
