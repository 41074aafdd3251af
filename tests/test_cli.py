import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyrep
from polyrep import cli, dynamics, games, stability
from polyrep.cli import (
    EXIT_CERTIFICATE,
    EXIT_IO,
    EXIT_NOT_ADMISSIBLE,
    EXIT_NOT_DISSIPATIVE,
    EXIT_OK,
    main,
)
from polyrep.dynamics import MAX_HISTORY
from polyrep.gamefile import parse_game, write_game
from polyrep.games import GameType, PolymatrixGame
from polyrep.stability import (
    CONSERVATIVE,
    DISSIPATIVE,
    NO_CERTIFICATE,
    NO_FORMAL_EQUILIBRIUM,
    NOT_DISSIPATIVE,
    admissible,
)
from polyrep.vertices import MAX_ENTRIES, MAX_VERTICES, enumerate_vertices, first_vertex, vertex_matrix

from conftest import (
    EXAMPLE_PAYOFF,
    EXAMPLE_REDUCED,
    FIXTURES,
    KELLEY_PROOF_GAME,
    NOT_NUMBERS,
    make_dissipative_game,
    random_game,
)


@pytest.fixture()
def example_path(example_game_file):
    return str(example_game_file)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_example_admissible(self, capsys, example_path):
        code, out, _ = run(capsys, "check", example_path)
        assert code == EXIT_OK
        assert "dissipative" in out and "admissible: True" in out

    def test_text_spells_vertices_as_labels(self, capsys, tmp_path, example_path):
        # as the vertex lines and reduce do: (0) for a one-group vertex, not the tuple (0,)
        path = tmp_path / "one_group.txt"
        path.write_text("type: 2\n-1 0\n0 0\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == EXIT_OK
        assert out.splitlines()[3:6] == ["stable vertices: (0), (1)", "  vertex (0): stable", "  vertex (1): stable"]
        _, out, _ = run(capsys, "check", example_path)
        assert "stable vertices: (0,3), (0,4), (1,3), (1,4)" in out.splitlines()

    def test_json_lists_vstar(self, capsys, example_path):
        code, out, _ = run(capsys, "check", example_path, "--format", "json")
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["vstar"] == [[0, 3], [0, 4], [1, 3], [1, 4]]
        assert data["vertex_reports"]["(2,3)"]["stable"] is False

    def test_not_admissible_exit(self, capsys, tmp_path):
        # skew 4-strategy game: dissipative-shaped but no stable vertex,
        # and no formal equilibrium either -> classified unreachable
        game = PolymatrixGame(
            GameType((4,)),
            np.array(
                [
                    [0.0, 1.0, -2.0, 1.0],
                    [-1.0, 0.0, 3.0, -1.0],
                    [2.0, -3.0, 0.0, 1.0],
                    [-1.0, 1.0, -1.0, 0.0],
                ]
            ),
        )
        path = tmp_path / "g.txt"
        write_game(game, path)
        code, _, _ = run(capsys, "check", str(path))
        assert code in (EXIT_NOT_ADMISSIBLE, EXIT_NOT_DISSIPATIVE)

    def test_positive_same_group_direction_is_not_dissipative(self, capsys, tmp_path):
        game = random_game(GameType((2, 2)), np.random.default_rng(1), integer=True)
        # a positive diagonal entry e_i'A_v e_i > 0: no positive scaling helps
        assert vertex_matrix(game, first_vertex(game.gtype)).entries.diagonal().max() > 0
        path = tmp_path / "g.txt"
        write_game(game, path)
        code, out, _ = run(capsys, "check", str(path))
        assert code == EXIT_NOT_DISSIPATIVE
        assert "kind: not_dissipative" in out.splitlines()

    def test_a_kelley_cut_proof_exits_3(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(KELLEY_PROOF_GAME)
        code, out, err = run(capsys, "check", str(path), "--format", "json")
        assert (code, json.loads(out)["kind"], err) == (EXIT_NOT_DISSIPATIVE, NOT_DISSIPATIVE, "")

    @pytest.mark.parametrize(
        "rows",
        [
            "0 0 0 1\n0 0 0 1e200\n0 -1 -1e-200 0",  # a pair ratio 1e-200 / 1e200 underflows to 0
            "0 0 1e-100 0\n0 -1e100 0 1e-100\n0 0 -1e100 0",  # two ratios 1e200 make d_3 = 1e400
        ],
        ids=["ratio", "product"],
    )
    def test_scaling_beyond_float_range_has_a_verdict(self, capsys, tmp_path, rows):
        # vertex (0)'s matrix is the payoff without its zero first row and column
        path = tmp_path / "g.txt"
        path.write_text(f"type: 4\n0 0 0 0\n{rows}\n")
        code, out, err = run(capsys, "check", str(path), "--tol", "0", "--format", "json")
        assert err == ""
        data = json.loads(out)
        assert (code, data["kind"]) == (EXIT_NOT_DISSIPATIVE, "not_dissipative")
        report = data["vertex_reports"]["(0)"]
        assert report["skew_ok"] is False and report["scaling"] is None

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/game.txt")
        assert code == EXIT_IO
        assert "error" in err

    def test_parse_error_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("type: 2\n0 zzz\n0 0\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == EXIT_IO
        assert "line 2" in err


# Finite entries whose row differences and vertex sums overflow to infinity.
BEYOND_RANGE = "type: 2 2\n0 0 1e308 -1e308\n0 0 -1e308 1e308\n1e308 -1e308 0 0\n0 0 0 0\n"
ANALYSES = [["check"], ["reduce"], ["collapse"], ["equilibrium"], ["vertices"], ["simulate", "--game"]]


class TestPayoffRange:
    @pytest.mark.parametrize("command", ANALYSES, ids=lambda c: c[0])
    def test_beyond_the_range_is_an_input_error(self, capsys, tmp_path, command):
        path = tmp_path / "g.txt"
        path.write_text(BEYOND_RANGE)
        code, out, err = run(capsys, *command, str(path))
        assert code == EXIT_IO and out == ""
        assert err == "error: payoff entry (0, 2) = 1e+308 exceeds 1e+300 in magnitude\n"

    @pytest.mark.parametrize("command", ANALYSES, ids=lambda c: c[0])
    def test_at_the_bound_gets_a_verdict(self, capsys, tmp_path, command):
        # the same game at 1e300: the analysis stays finite, and every command ends in a verdict
        path = tmp_path / "g.txt"
        path.write_text(BEYOND_RANGE.replace("1e308", "1e300"))
        code, _, err = run(capsys, *command, str(path), "--format", "json")
        assert code in range(5) and "payoff entry" not in err


CAPPED_SCRIPT = """
import contextlib, io, json, resource, sys
from polyrep.cli import main
held = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (held + 2**30, held + 2**30))
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def capped_runs(commands: list) -> list:
    """[code, stdout, stderr] of each command, run by main in a child process.

    The child's address space is capped at 1 GiB above what it holds
    after its imports, so a command that builds past a ceiling ends
    there in a MemoryError instead of taking the machine's memory.
    """
    src = str(Path(polyrep.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_SCRIPT, json.dumps(commands)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def barycentre(gt: GameType) -> str:
    """The --x0 list of the state with every group uniform."""
    return ",".join(repr(1.0 / gt.sizes[gt.group_of(i)]) for i in range(gt.n))


class TestVertexCeiling:
    """A game past vertices.MAX_VERTICES vertices or MAX_ENTRIES entries is refused before its stack is built."""

    def _refusals(self, sizes, tmp_path) -> list:
        """[code, stdout, stderr] of every vertex command on a random game of these sizes, in a capped child."""
        gt = GameType(sizes)
        path = str(tmp_path / "g.txt")
        write_game(random_game(gt, np.random.default_rng(0), integer=True), path)
        commands = [[c, path] for c in ("check", "vertices", "reduce", "collapse")]
        commands += [["check", path, "--format", "json"]]
        commands += [["simulate", "--game", path, "--x0", barycentre(gt), "--T", "0.01", "--monitors", "ratios"]]
        return capped_runs(commands)

    def test_every_vertex_command_exits_1(self, tmp_path):
        # 20 groups of two: 2**20 vertices, whose stack alone would take 3.4 GB
        refusal = f"error: the game has {2**20} vertices, more than the {MAX_VERTICES} the vertex layer handles\n"
        assert self._refusals((2,) * 20, tmp_path) == [[EXIT_IO, "", refusal]] * 6

    def test_one_large_group_is_refused_by_its_entries(self, tmp_path):
        # one group of 600: only 600 vertices, but a stack of 600 * 599**2 entries, 1.7 GB
        refusal = f"error: the game's vertex matrices hold {600 * 599**2} entries, more than the {MAX_ENTRIES} the vertex layer handles\n"
        assert self._refusals((600,), tmp_path) == [[EXIT_IO, "", refusal]] * 6

    def test_the_ceiling_itself_is_enumerated(self):
        assert len(enumerate_vertices(GameType((MAX_VERTICES,)))) == MAX_VERTICES
        with pytest.raises(ValueError, match=f"{MAX_VERTICES + 1} vertices, more than the {MAX_VERTICES}"):
            enumerate_vertices(GameType((MAX_VERTICES + 1,)))


class TestIntegrationLimits:
    """simulate on large groups: random starts come at once, and the history has a ceiling."""

    def test_a_random_start_on_a_large_group(self, tmp_path):
        # under a floor of 0.02 a group of 30 has 0.4 to spread: rejection kept one draw in 0.4**29, about 3e-12
        path = str(tmp_path / "g.txt")
        write_game(random_game(GameType((30,)), np.random.default_rng(0), integer=True), path)
        [[code, out, _]] = capped_runs([["simulate", "--game", path, "--x0", "random:0", "--T", "0.1"]])
        assert code == EXIT_OK
        assert out.startswith("integrated 10 steps, ok=True\n")

    def test_a_history_past_the_ceiling_exits_1(self, tmp_path):
        # 10**7 steps of 600 coordinates: a 44.7 GiB history, once a MemoryError traceback
        gt = GameType((600,))
        path = str(tmp_path / "g.txt")
        write_game(random_game(gt, np.random.default_rng(0), integer=True), path)
        # --monitors h: a gb or ratios monitor is refused first, by the vertex ceiling
        argv = ["simulate", "--game", path, "--x0", barycentre(gt), "--T", "100000", "--dt", "0.01", "--monitors", "h"]
        entries = (10**7 + 1) * 600
        refusal = f"error: the integration would keep {entries} state entries, more than the {MAX_HISTORY} it may hold; take fewer steps or starts\n"
        assert capped_runs([argv]) == [[EXIT_IO, "", refusal]]

    def test_the_vertex_ceiling_refuses_before_any_step(self, capsys, monkeypatch, tmp_path):
        # the entries ceiling is checked before the stack is allocated, so this runs in process
        gt = GameType((600,))
        path = str(tmp_path / "g.txt")
        write_game(random_game(gt, np.random.default_rng(0), integer=True), path)

        def integrate(*args, **kwargs):
            raise AssertionError("integrated a game past the vertex ceiling")

        monkeypatch.setattr(cli.dynamics, "integrate", integrate)
        code, out, err = run(capsys, "simulate", "--game", path, "--x0", barycentre(gt), "--T", "100", "--monitors", "ratios")
        assert (code, out) == (EXIT_IO, "")
        assert err == f"error: the game's vertex matrices hold {600 * 599**2} entries, more than the {MAX_ENTRIES} the vertex layer handles\n"


class TestUsageErrors:
    """Exit codes 2 to 4 are verdicts, so a malformed command line exits 1."""

    @pytest.mark.parametrize(
        "extra",
        [["--format", "xml"], ["--tol", "abc"], ["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"]],
    )
    def test_exits_1_without_traceback(self, capsys, example_path, extra):
        code, out, err = run(capsys, "check", example_path, *extra)
        assert code == EXIT_IO
        assert out == ""
        assert "usage:" in err and "Traceback" not in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "check", "--help")
        assert code == EXIT_OK
        assert out.startswith("usage:")

    @pytest.mark.parametrize(
        "command, option",
        [(c, ["--seed", "1"]) for c in ("check", "vertices", "reduce", "collapse", "equilibrium", "simulate", "lv2rep")]
        + [(c, ["--tol", "0"]) for c in ("equilibrium", "lv2rep")],
        ids=lambda x: x if isinstance(x, str) else x[0],
    )
    def test_an_option_the_command_does_not_read_exits_1(self, capsys, example_path, command, option):
        head = {
            "lv2rep": ["lv2rep", "--A", example_path, "--r", "1"],
            "simulate": ["simulate", "--game", example_path],
        }.get(command, [command, example_path])
        code, out, err = run(capsys, *head, *option)
        assert (code, out) == (EXIT_IO, "")
        assert f"unrecognized arguments: {' '.join(option)}" in err and "Traceback" not in err
        assert err.startswith(f"usage: polyrep {command} ")  # the subcommand's usage, not the top level's

    def test_an_unknown_monitor_exits_1(self, capsys, example_path):
        code, out, err = run(capsys, "simulate", "--game", example_path, "--T", "1", "--monitors", "h,hh,zz")
        assert (code, out) == (EXIT_IO, "")
        assert "unknown monitor 'hh'" in err and "zz" not in err and "Traceback" not in err

    def test_no_monitors(self, capsys, example_path):
        code, out, err = run(capsys, "simulate", "--game", example_path, "--T", "1", "--monitors", "")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("integrated 100 steps, ok=True\n") and "monitor" not in out


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = cli.build_parser()
    [subs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, sub in subs.choices.items()
    }
    assert options == {
        "check": ["--format", "--tol"],
        "vertices": ["--format", "--tol"],
        "reduce": ["--format", "--tol"],
        "collapse": ["--emit-game", "--format", "--tol"],
        "equilibrium": ["--format"],
        "simulate": ["--T", "--csv", "--dt", "--format", "--game", "--monitors", "--tol", "--x0"],
        "lv2rep": ["--A", "--emit-game", "--format", "--r"],
    }
    assert sum(map(len, options.values())) == 22


def test_only_main_and_emit_write_to_the_terminal():
    # a command returns its report and its notes; main writes them, so a refusal prints its error line alone
    tree = ast.parse(Path(cli.__file__).read_text())
    writers = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in ("main", "_emit")]
    inside = {id(node) for f in writers for node in ast.walk(f)}
    writes = [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and (isinstance(node, ast.Name) and node.id == "print"
             or isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
             and isinstance(node.value, ast.Name) and node.value.id == "sys")
    ]
    assert len(writers) == 2 and writes == []


class TestNoFormalEquilibrium:
    """Strategy 0 always earns 1 more than strategy 1: no formal equilibrium."""

    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "tilted.txt"
        path.write_text("type: 2\n1 1\n0 0\n")
        return str(path)

    def test_check_agrees_with_library(self, capsys, path):
        code, out, _ = run(capsys, "check", path, "--format", "json")
        data = json.loads(out)
        assert code == EXIT_NOT_DISSIPATIVE
        assert data["kind"] == "no_formal_equilibrium"
        assert data["scaling"] is None
        assert data["admissible"] is False
        assert data["admissible"] == admissible(parse_game(path))[0]

    @pytest.mark.parametrize("command", ["reduce", "collapse"])
    def test_rules_refused(self, capsys, path, command):
        code, out, err = run(capsys, command, path)
        assert code == EXIT_NOT_DISSIPATIVE
        assert out == ""
        assert "not admissible" in err


class TestVertices:
    def test_text_report(self, capsys, example_path):
        code, out, _ = run(capsys, "vertices", example_path)
        assert code == EXIT_OK
        assert "vertex (0,3)" in out
        assert "-27" in out

    def test_json_matrices_exact(self, capsys, example_path):
        _, out, _ = run(capsys, "vertices", example_path, "--format", "json")
        data = json.loads(out)
        first = data["vertices"][0]
        assert first["label"] == [0, 3]
        assert first["matrix"] == [[0, 27, 0], [-27, -9, 18], [0, -18, 0]]
        assert first["edges"] == [[1, 2], [2, 4]]

    def test_tol_sets_the_zero_rule(self, capsys, dusted_path):
        _, out, _ = run(capsys, "vertices", dusted_path, "--format", "json")
        assert json.loads(out)["vertices"][0]["edges"] == [[1, 2], [2, 4]]
        _, out, _ = run(capsys, "vertices", dusted_path, "--format", "json", "--tol", "0")
        assert json.loads(out)["vertices"][0]["edges"] == [[1, 2], [1, 4], [2, 4]]


@pytest.fixture()
def dusted_path(tmp_path):
    # the example with 1e-13 added to payoff (0, 3): the certificate and the
    # stable vertices are unchanged, and so must be the graphs the rules walk
    a = EXAMPLE_PAYOFF.copy()
    a[0, 3] += 1e-13
    path = tmp_path / "dusted.txt"
    write_game(PolymatrixGame(GameType((3, 2)), a), path)
    return str(path)


class TestReduce:
    def test_trace_table(self, capsys, example_path):
        code, out, _ = run(capsys, "reduce", example_path)
        assert code == EXIT_OK
        assert "verdict: black_plus" in out
        assert "links: (3, 4)" in out

    def test_json_trace(self, capsys, example_path):
        _, out, _ = run(capsys, "reduce", example_path, "--format", "json")
        data = json.loads(out)
        assert [row["rule"] for row in data["trace"]] == [1, 4, 6, 3]
        assert data["colors"] == {"0": "plus", "1": "plus", "2": "black", "3": "plus", "4": "plus"}
        assert data["links"] == [[3, 4]]

    def test_dust_keeps_the_example_reduction(self, capsys, example_path, dusted_path):
        _, out, _ = run(capsys, "check", dusted_path, "--format", "json")
        assert json.loads(out)["vstar"] == [[0, 3], [0, 4], [1, 3], [1, 4]]
        code, out, _ = run(capsys, "reduce", dusted_path, "--format", "json")
        _, expected, _ = run(capsys, "reduce", example_path, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == json.loads(expected)

    def test_non_admissible_rejected(self, capsys, tmp_path):
        game = PolymatrixGame(
            GameType((4,)),
            np.array(
                [
                    [0.0, 1.0, -2.0, 1.0],
                    [-1.0, 0.0, 3.0, -1.0],
                    [2.0, -3.0, 0.0, 1.0],
                    [-1.0, 1.0, -1.0, 0.0],
                ]
            ),
        )
        path = tmp_path / "g.txt"
        write_game(game, path)
        code, _, err = run(capsys, "reduce", str(path))
        assert code in (EXIT_NOT_ADMISSIBLE, EXIT_NOT_DISSIPATIVE)
        assert "not admissible" in err


class TestCollapse:
    def test_example_emits_reduced_game(self, capsys, tmp_path, example_path):
        out_path = tmp_path / "reduced.txt"
        code, out, _ = run(capsys, "collapse", example_path, "--emit-game", str(out_path))
        assert code == EXIT_OK
        assert "conservative" in out
        assert "equivalent to the trivial game" in out
        emitted = parse_game(out_path)
        npt.assert_array_equal(emitted.payoff, EXAMPLE_REDUCED)
        assert emitted.gtype == GameType((2, 2))

    def test_json_payload(self, capsys, example_path):
        _, out, _ = run(capsys, "collapse", example_path, "--format", "json")
        data = json.loads(out)
        assert data["steps"][0]["removed"] == 2
        assert data["final_type"] == [2, 2]
        assert data["final_payoff"] == EXAMPLE_REDUCED.tolist()

    def test_library_value_error_is_an_error_line(self, capsys, monkeypatch, example_path):
        def refuse(*args, **kwargs):
            raise ValueError("hamiltonian collapse requires an admissible game")

        monkeypatch.setattr(cli.collapse_mod, "hamiltonian_collapse", refuse)
        code, out, err = run(capsys, "collapse", example_path)
        assert (code, out) == (EXIT_CERTIFICATE, "")
        assert err == "error: hamiltonian collapse requires an admissible game\n"

    def test_no_interior_equilibrium_exits_3(self, capsys, tmp_path):
        # admissible, but its only equilibrium is (0, 1), on the boundary
        path = tmp_path / "game.txt"
        path.write_text("type: 2\n-1 0\n0 0\n")
        assert run(capsys, "check", str(path))[0] == EXIT_OK
        code, out, err = run(capsys, "collapse", str(path))
        assert (code, out) == (EXIT_NOT_DISSIPATIVE, "")
        assert err == "error: no interior equilibrium; the collapse is undefined\n"

    def test_the_interior_point_is_searched_once(self, capsys, monkeypatch, example_path):
        calls = []
        search = games._maximize_min_coordinate
        monkeypatch.setattr(games, "_maximize_min_coordinate", lambda *args: calls.append(args) or search(*args))
        assert run(capsys, "collapse", example_path)[0] == EXIT_OK
        assert len(calls) == 1

    def test_tol_0_collapses_what_check_admits(self, capsys, tmp_path):
        # the collapsed core's eigenvalues are rounding, about 1e-16: once exit 4, "classifies as indefinite"
        path = tmp_path / "game.txt"
        write_game(make_dissipative_game(GameType((2, 2)), np.random.default_rng(0))[0], path)
        assert run(capsys, "check", str(path), "--tol", "0")[0] == EXIT_OK
        code, out, err = run(capsys, "collapse", str(path), "--tol", "0")
        assert (code, err) == (EXIT_OK, "")
        assert "conservative" in out

    @pytest.mark.parametrize("scale", [1e9, 1e12])
    def test_large_payoff_scale(self, capsys, tmp_path, scale):
        path = tmp_path / "scaled.txt"
        write_game(PolymatrixGame(GameType((3, 2)), EXAMPLE_PAYOFF * scale), path)
        code, out, err = run(capsys, "collapse", str(path), "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        data = json.loads(out)
        assert data["final_payoff"] == (EXAMPLE_REDUCED * scale).tolist()
        assert data["certificate"] == [1.5, 1.0]

    @pytest.mark.parametrize("scale", [1e30, 1e200])
    def test_payoff_scale_past_exact_equilibria(self, capsys, tmp_path, scale):
        # no exact q at these scales: the reduced game carries the float
        # q's rounding, at the payoff's scale, where the kept block is zero
        path = tmp_path / "scaled.txt"
        write_game(PolymatrixGame(GameType((3, 2)), EXAMPLE_PAYOFF * scale), path)
        code, out, err = run(capsys, "collapse", str(path), "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        npt.assert_allclose(json.loads(out)["certificate"], [1.5, 1.0], rtol=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_corrupted_transport_is_refused(self, capsys, monkeypatch, tmp_path, scale):
        reduce = cli.collapse_mod.q_ell_reduction

        def corrupted(game, q, ell):
            out = reduce(game, q, ell)
            payoff = out.payoff.copy()
            payoff[1, 2] *= 1 + 1e-6  # enters the kept block of the example's vertex (0, 2)
            return PolymatrixGame(out.gtype, payoff)

        monkeypatch.setattr(cli.collapse_mod, "q_ell_reduction", corrupted)
        path = tmp_path / "scaled.txt"
        write_game(PolymatrixGame(GameType((3, 2)), EXAMPLE_PAYOFF * scale), path)
        code, out, err = run(capsys, "collapse", str(path))
        assert (code, out) == (EXIT_CERTIFICATE, "")
        assert err == "error: certificate transport failed; reduction is inconsistent\n"


class TestPayoffUnit:
    """Every verdict is read from the game in its unit, whatever the payoff's own unit."""

    @pytest.fixture()
    def tiny_path(self, tmp_path):
        # below a payoff of 1 the cuts used to turn absolute: this read conservative, 6 stable vertices
        path = tmp_path / "tiny.txt"
        write_game(PolymatrixGame(GameType((3, 2)), EXAMPLE_PAYOFF * 1e-12), path)
        return str(path)

    def test_check_at_1e_minus_12(self, capsys, tiny_path):
        code, out, _ = run(capsys, "check", tiny_path, "--format", "json")
        data = json.loads(out)
        assert (code, data["kind"], len(data["vstar"])) == (EXIT_OK, "dissipative", 4)

    def test_equilibrium_at_1e_minus_12(self, capsys, tiny_path):
        code, out, _ = run(capsys, "equilibrium", tiny_path, "--format", "json")
        assert (code, json.loads(out)["dimension"]) == (EXIT_OK, 1)

    def test_collapse_at_1e_minus_12(self, capsys, tiny_path):
        code, out, err = run(capsys, "collapse", tiny_path, "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        data = json.loads(out)
        assert data["final_type"] == [2, 2]
        npt.assert_allclose(data["certificate"], [1.5, 1.0], rtol=0, atol=1e-12)

    def test_collapse_at_2_to_the_minus_40(self, capsys, tmp_path):
        path = tmp_path / "scaled.txt"
        write_game(PolymatrixGame(GameType((3, 2)), EXAMPLE_PAYOFF * 2.0**-40), path)
        code, out, _ = run(capsys, "collapse", str(path), "--format", "json")
        golden = json.loads((FIXTURES / "golden" / "example_collapse.json").read_text())
        assert code == EXIT_OK
        assert json.loads(out)["final_payoff"] == np.ldexp(golden["final_payoff"], -40).tolist()

    def test_entries_spanning_past_the_float_range_lose_the_smallest(self, capsys, tmp_path):
        # 1e300 in a column with equal rows enters no vertex matrix but sets the unit, 2**996;
        # 1e-300 is 0 in that unit, so at --tol 0 its edge at vertex (0, 2) is gone and 0 is printed
        a = np.zeros((4, 4))
        a[0, 0] = a[1, 0] = 1e300
        a[1, 3] = 1e-300
        path = tmp_path / "span.txt"
        write_game(PolymatrixGame(GameType((2, 2)), a), path)
        code, out, _ = run(capsys, "vertices", str(path), "--tol", "0", "--format", "json")
        vertex = json.loads(out)["vertices"][0]
        assert code == EXIT_OK and vertex["label"] == [0, 2]
        assert (vertex["matrix"], vertex["edges"]) == ([[0.0, 0.0], [0.0, 0.0]], [])

    @pytest.mark.parametrize("j", [-60, 0, 60])
    def test_equivalent_to_trivial_in_the_cores_unit(self, capsys, tmp_path, j):
        # rock-paper-scissors is its own core; at 2**-60 every entry is below PAYOFF_TOL, once read as trivial
        path = tmp_path / "rps.txt"
        write_game(PolymatrixGame(GameType((3,)), np.ldexp([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], j)), path)
        code, out, _ = run(capsys, "collapse", str(path), "--format", "json")
        assert (code, json.loads(out)["equivalent_to_trivial"]) == (EXIT_OK, False)


class TestEqualRowOffset:
    """A game and its twin up to equal-row blocks share one field, so every verdict."""

    # the twin plus decimal equal-row blocks: the rounding leaves dust of 3.5e-18 and 6.9e-18 in
    # group 2's part of the form, which a cut without the floor max(1, |S_g|) reads as a proof
    OFFSET = (
        "type: 2 2 2\n"
        "0.1 0.1 1.2 -0.55 0.15 0.05\n0.1 0.1 -0.8 1.45 0.15 0.05\n"
        "-1.9 2.1 0.2 0.45 0.15 0.05\n2.1 -1.9 0.2 0.45 0.15 0.05\n"
        "0.1 0.1 0.2 0.45 0.15 0.05\n0.1 0.1 0.2 0.45 0.15 0.05\n"
    )
    TWIN = (
        "type: 2 2 2\n"
        "0 0 1 -1 0 0\n0 0 -1 1 0 0\n-2 2 0 0 0 0\n2 -2 0 0 0 0\n0 0 0 0 0 0\n0 0 0 0 0 0\n"
    )

    @pytest.fixture()
    def paths(self, tmp_path):
        out = []
        for name, text in (("offset", self.OFFSET), ("twin", self.TWIN)):
            (tmp_path / f"{name}.txt").write_text(text)
            out.append(str(tmp_path / f"{name}.txt"))
        return out

    def test_the_pair_is_equivalent(self):
        from polyrep.gamefile import parse_game_text

        assert games.games_equivalent(parse_game_text(self.OFFSET), parse_game_text(self.TWIN))

    @pytest.mark.parametrize("command", ["check", "reduce", "collapse"])
    def test_the_offset_reads_as_its_twin(self, capsys, paths, command):
        (code, out, err), (twin_code, twin_out, twin_err) = (
            run(capsys, command, path, "--format", "json") for path in paths
        )
        assert (code, err) == (twin_code, twin_err) == (EXIT_OK, "")
        if command == "check":
            assert (json.loads(twin_out)["kind"], json.loads(twin_out)["scaling"]) == (CONSERVATIVE, [1.0, 2.0, 5 / 3])
        if command != "collapse":
            assert out == twin_out
            return
        got, want = json.loads(out), json.loads(twin_out)
        got.pop("final_payoff"), want.pop("final_payoff")  # the core keeps each game's own equal-row blocks
        assert got == want

    # np.round(4 * make_dissipative_game(GameType((3, 3)), default_rng(1556))[0].payoff); the
    # same matrix plus 1 in every entry has the same unit and byte-identical vertex matrices
    ROWS = ("-2 5 -1 -9 12 18", "4 -1 6 -11 17 7", "2 -7 -4 20 -31 -31",
            "7 7 -9 1 29 -22", "11 8 25 -14 0 -17", "-12 -8 4 17 24 -20")

    def test_a_certificate_reads_only_the_vertex_matrices(self, capsys, tmp_path):
        # the search's parts are A_v's column blocks with unsigned zeros: no sign of a raw-payoff zero reaches its bits
        outs = []
        for name, shift in (("game", 0), ("plus_one", 1)):
            rows = (" ".join(str(int(x) + shift) for x in row.split()) for row in self.ROWS)
            (tmp_path / f"{name}.txt").write_text("type: 3 3\n" + "\n".join(rows) + "\n")
            outs.append(run(capsys, "check", str(tmp_path / f"{name}.txt"), "--format", "json"))
        assert outs[0] == outs[1]
        assert outs[0][0] == EXIT_NOT_ADMISSIBLE and json.loads(outs[0][1])["kind"] == DISSIPATIVE


class TestEquilibrium:
    def test_example(self, capsys, example_path):
        code, out, _ = run(capsys, "equilibrium", example_path, "--format", "json")
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["interior"] is True
        npt.assert_allclose(data["particular"], [1 / 3, 1 / 3, 1 / 3, 0.5, 0.5], atol=1e-9)
        assert data["dimension"] == 1

    def test_no_formal_equilibrium_is_a_report(self, capsys, tmp_path):
        # strategy 1 pays 1 less than strategy 0 at every state: an answer, not a refusal
        path = tmp_path / "g.txt"
        path.write_text("type: 2\n0 1\n-1 0\n")
        code, out, err = run(capsys, "equilibrium", str(path), "--format", "json")
        data = json.loads(out)
        assert (code, err) == (EXIT_OK, "")
        assert (data["exists"], data["interior_point"]) == (False, None)


class TestSimulate:
    def test_csv_output(self, capsys, tmp_path, example_path):
        csv_path = tmp_path / "run.csv"
        code, out, _ = run(
            capsys,
            "simulate",
            "--game",
            example_path,
            "--x0=random:7",
            "--T=1",
            "--dt=0.01",
            "--csv",
            str(csv_path),
        )
        assert code == EXIT_OK
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["t", "x0", "x1", "x2", "x3", "x4"]
        assert "h" in header and any(h.startswith("g") for h in header)
        assert len(lines) == 102  # header + 101 sampled times

    def test_explicit_start(self, capsys, example_path):
        code, out, _ = run(
            capsys, "simulate", "--game", example_path, "--x0", "0.2,0.3,0.5,0.4,0.6", "--T=0.5"
        )
        assert code == EXIT_OK
        assert "integrated 50 steps" in out

    def test_a_fraction_start_reads_as_game_files_do(self, capsys, example_path):
        # 1/3 is the float game files read for it, so the run is the decimal one's
        decimal = ",".join([repr(1 / 3)] * 3 + ["0.5"] * 2)
        runs = [run(capsys, *filled(SIMULATE, ex=example_path), "--x0", x0, "--format", "json")
                for x0 in ("1/3,1/3,1/3,1/2,1/2", decimal)]
        assert runs[0] == runs[1] and runs[0][0] == EXIT_OK

    def test_wrong_length_start(self, capsys, example_path):
        code, _, err = run(capsys, "simulate", "--game", example_path, "--x0", "0.5,0.5")
        assert code == EXIT_IO
        assert "x0 needs 5 coordinates" in err

    def test_start_off_the_prism(self, capsys, example_path):
        code, out, err = run(capsys, "simulate", "--game", example_path, "--x0", "0.5,0.5,0,2,-1")
        assert code == EXIT_IO
        assert out == ""
        assert "negative coordinate -1.0" in err and "Traceback" not in err

    def test_nan_start_exits_1(self, capsys, example_path):
        # `nan` is no number (REFUSALS, x0-nan); 1e400 reads as the infinity the prism check refuses
        code, out, err = run(
            capsys, "simulate", "--game", example_path, "--x0", "1e400,0.5,0.5,0.5,0.5", "--format", "json"
        )
        assert code == EXIT_IO
        assert out == ""
        assert "coordinate 0 is inf" in err and "Traceback" not in err

    def test_face_start_writes_strict_json(self, capsys, example_path):
        # x0 = 0 on the face, so the ratio monitor r1_0 = x1 / x0 is infinite
        code, out, _ = run(
            capsys, "simulate", "--game", example_path, "--x0", "0,0.5,0.5,0.5,0.5", "--T", "0.05",
            "--format", "json",
        )
        assert code == EXIT_OK

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        data = json.loads(out, parse_constant=reject)
        assert data["monitors"]["r1_0"] == {"first": None, "last": None}
        assert data["min_coordinate"] == 0.0

    def test_min_coordinate_reported(self, capsys, example_path):
        x0 = "0.2,0.3,0.5,0.4,0.6"
        code, out, _ = run(capsys, "simulate", "--game", example_path, "--x0", x0, "--T=0.5", "--format", "json")
        data = json.loads(out)
        assert 0.0 < data["min_coordinate"] <= min(data["final_state"] + [0.2])
        code, out, _ = run(capsys, "simulate", "--game", example_path, "--x0", x0, "--T=0.5")
        assert f"min coordinate: {data['min_coordinate']:.3e}" in out

    def test_monitors_are_the_library_forms_at_the_run_states(self, capsys, example_path, example_game):
        # h and each g_k read the run through lyapunov_h and the FirstIntegral, bit for bit
        code, out, _ = run(capsys, "simulate", "--game", example_path, "--T=2", "--format", "json")
        assert code == EXIT_OK
        an = stability.Analysis(example_game, stability.SEMIDEF_TOL)
        states = dynamics.integrate(example_game, cli._parse_x0("random", example_game), 2.0, 0.01).states
        expect = {"h": dynamics.lyapunov_h(example_game, an.equilibria.particular, an.scaling, states)}
        for k, g in enumerate(dynamics.first_integrals(example_game, an.vstar[0])):
            expect[f"g{k}"] = g(states)
        monitors = json.loads(out)["monitors"]
        assert set(expect) <= set(monitors) and "g0" in expect
        for name, col in expect.items():
            assert monitors[name] == {"first": col[0], "last": col[-1]}

    def test_step_scale_reported(self, capsys, example_path, example_game):
        code, out, err = run(capsys, "simulate", "--game", example_path, "--T=0.5", "--format", "json")
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["step_scale"] == 0.01 * np.max(np.abs(example_game.payoff))
        code, out, _ = run(capsys, "simulate", "--game", example_path, "--T=0.5")
        assert "step scale dt*max|a_ij|: 0.11" in out.splitlines()

    def test_step_scale_above_1_notes_on_stderr(self, capsys, example_path):
        code, out, err = run(capsys, "simulate", "--game", example_path, "--T=0.5", "--dt=0.1", "--format", "json")
        data = json.loads(out)
        assert code == EXIT_OK and data["ok"] is True
        assert data["step_scale"] == pytest.approx(1.1)
        assert err.startswith("note: step_scale dt*max|a_ij| = 1.1 exceeds 1")

    @pytest.mark.parametrize(
        "extra, notes",
        [
            ([], []),
            (
                ["--x0", "0,0.5,0.5,0.5,0.5"],
                [
                    "h monitor skipped (needs equilibrium, certificate, interior orbit)",
                    "gb monitors skipped (orbit touches the boundary)",
                ],
            ),
            (
                ["--dt=0.1"],
                [
                    "step_scale dt*max|a_ij| = 1.1 exceeds 1; "
                    "the final state is not to be trusted, take a smaller --dt"
                ],
            ),
        ],
        ids=["none", "face", "step-scale"],
    )
    def test_json_notes_are_the_stderr_notes(self, capsys, example_path, extra, notes):
        code, out, err = run(capsys, "simulate", "--game", example_path, "--T=0.5", *extra, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["notes"] == notes
        assert err == "".join(f"note: {note}\n" for note in notes)
        _, _, text_err = run(capsys, "simulate", "--game", example_path, "--T=0.5", *extra)
        assert text_err == err

    @pytest.mark.parametrize(
        "extra", [["--dt", "0"], ["--dt", "nan"], ["--T", "-1"], ["--T", "inf"], ["--T", "1/0"], ["--T", "1_0"]]
    )
    def test_bad_duration_or_step_exits_1(self, capsys, example_path, extra):
        code, out, err = run(capsys, "simulate", "--game", example_path, "--x0", "random:1", *extra)
        assert code == EXIT_IO
        assert out == ""
        assert "usage:" in err and "Traceback" not in err
        bound = ">= 0" if extra[0] == "--T" else "> 0"
        assert err.splitlines()[-1].endswith(f"argument {extra[0]}: expected a finite number {bound}, got {extra[1]!r}")

    def test_duration_and_step_read_as_game_files_do(self, capsys, example_path):
        code, out, _ = run(capsys, "simulate", "--game", example_path, "--T", "1/2", "--dt", "1/100", "--format", "json")
        assert (code, json.loads(out)["steps"]) == (EXIT_OK, 50)

    @pytest.mark.parametrize("extra", [["--T", "1e300"], ["--T", "1", "--dt", "1e-320"]])
    def test_step_count_beyond_the_ceiling_exits_1(self, capsys, example_path, extra):
        code, out, err = run(capsys, "simulate", "--game", example_path, *extra, "--format", "json")
        assert code == EXIT_IO
        assert out == ""
        assert err.startswith("error: T / dt = ") and "steps is not a finite count" in err


class TestLv2Rep:
    def test_predator_prey(self, capsys, tmp_path):
        a_path = tmp_path / "a.txt"
        a_path.write_text("0 -1\n1 0\n")
        out_path = tmp_path / "game.txt"
        code, out, _ = run(
            capsys,
            "lv2rep",
            "--A",
            str(a_path),
            "--r",
            "1,-1",
            "--emit-game",
            str(out_path),
        )
        assert code == EXIT_OK
        game = parse_game(out_path)
        assert game.gtype == GameType((3,))
        npt.assert_array_equal(game.payoff, [[0, -1, 1], [1, 0, -1], [0, 0, 0]])

    @pytest.mark.parametrize(
        "matrix,rates",
        [("0 -1\n1 0\n", "1,abc"), ("0 -1\n1 0\n", "1,nan"), ("0 -1\n1 0\n", "1,inf"),
         ("0 nan\n1 0\n", "1,-1"), ("0 -inf\n1 0\n", "1,-1"), ("0 1e305\n-1 0\n", "1,-1")],
        ids=["r-not-a-number", "r-nan", "r-inf", "A-nan", "A-inf", "A-beyond-range"],
    )
    def test_bad_entry_is_an_input_error(self, capsys, tmp_path, matrix, rates):
        a_path = tmp_path / "a.txt"
        a_path.write_text(matrix)
        code, out, err = run(capsys, "lv2rep", "--A", str(a_path), "--r", rates, "--emit-game", str(tmp_path / "g.txt"))
        assert code == EXIT_IO
        assert out == "" and err.startswith("error: ")
        assert not (tmp_path / "g.txt").exists()


class TestUnwritableOutput:
    """An output file in a missing directory is an input error, whichever command writes it."""

    @pytest.mark.parametrize("command", ["collapse", "lv2rep", "simulate"])
    def test_missing_directory(self, capsys, tmp_path, example_path, command):
        target = str(tmp_path / "missing" / "out.txt")
        a_path = tmp_path / "a.txt"
        a_path.write_text("0 -1\n1 0\n")
        argv = {
            "collapse": ["collapse", example_path, "--emit-game", target],
            "lv2rep": ["lv2rep", "--A", str(a_path), "--r", "1,-1", "--emit-game", target],
            "simulate": ["simulate", "--game", example_path, "--T=0.1", "--csv", target],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_IO
        assert err.startswith("error: ") and "No such file or directory" in err

    @pytest.mark.parametrize("command", ["collapse", "lv2rep"])
    def test_a_failed_write_prints_no_report(self, capsys, tmp_path, example_path, command):
        # the game is written before the report is emitted, so a write that fails leaves stdout empty
        a_path = tmp_path / "a.txt"
        a_path.write_text("0 -1\n1 0\n")
        argv = {
            "collapse": ["collapse", example_path],
            "lv2rep": ["lv2rep", "--A", str(a_path), "--r", "1,-1"],
        }[command]
        code, out, err = run(capsys, *argv, "--format", "json", "--emit-game", str(tmp_path))
        assert code == EXIT_IO
        assert out == ""
        assert err.startswith("error: ") and "Is a directory" in err


NO_FILE = "error: [Errno 2] No such file or directory: '{d}/{name}'\n"
IS_DIR = "error: [Errno 21] Is a directory: '{d}'\n"
CEILING = f"error: the game has {2**15} vertices, more than the {MAX_VERTICES} the vertex layer handles\n"
NOT_ADMISSIBLE = "error: game is not admissible; "
SIMULATE = ["simulate", "--game", "{ex}", "--T", "0.1"]
HUGE = "1" + "0" * 400 + "/7"  # a fraction past the float range
# (argv, exit code, stderr); {ex} is the example game, {d} the directory of REFUSAL_FILES
REFUSALS = [
    *[pytest.param([*c, "{d}/missing.txt"], EXIT_IO, NO_FILE.replace("{name}", "missing.txt"),
                   id=f"{c[0]}-missing") for c in ANALYSES],
    *[pytest.param([*c, "{d}"], EXIT_IO, IS_DIR, id=f"{c[0]}-directory") for c in ANALYSES],
    *[pytest.param([*c, "{d}/parse.txt"], EXIT_IO, "error: line 2: cannot parse number 'zzz'\n",
                   id=f"{c[0]}-parse") for c in ANALYSES],
    *[pytest.param([*c, "{d}/range.txt"], EXIT_IO,
                   "error: payoff entry (0, 2) = 1e+308 exceeds 1e+300 in magnitude\n", id=f"{c[0]}-range")
      for c in ANALYSES],
    *[pytest.param([*c, "{d}/ceiling.txt"], EXIT_IO, CEILING, id=f"{c[0]}-ceiling")
      for c in ANALYSES if c != ["equilibrium"]],
    pytest.param(["check", "{d}/sizes_words.txt"], EXIT_IO, "error: line 1: group sizes must be integers\n",
                 id="header-words"),
    pytest.param(["check", "{d}/sizes_none.txt"], EXIT_IO, "error: line 1: no group sizes given\n",
                 id="header-empty"),
    pytest.param(["check", "{d}/sizes_zero.txt"], EXIT_IO,
                 "error: line 1: group sizes must be positive, got (0, 2)\n", id="header-zero"),
    pytest.param(["reduce", "{d}/dissipative.txt"], EXIT_NOT_ADMISSIBLE,
                 NOT_ADMISSIBLE + "the reduction rules do not apply\n", id="reduce-not-admissible"),
    pytest.param(["reduce", "{d}/tilted.txt"], EXIT_NOT_DISSIPATIVE,
                 NOT_ADMISSIBLE + "the reduction rules do not apply\n", id="reduce-no-formal-equilibrium"),
    pytest.param(["collapse", "{d}/dissipative.txt"], EXIT_NOT_ADMISSIBLE,
                 NOT_ADMISSIBLE + "nothing to collapse\n", id="collapse-not-admissible"),
    pytest.param(["collapse", "{d}/tilted.txt"], EXIT_NOT_DISSIPATIVE,
                 NOT_ADMISSIBLE + "nothing to collapse\n", id="collapse-no-formal-equilibrium"),
    pytest.param(["collapse", "{d}/boundary.txt"], EXIT_NOT_DISSIPATIVE,
                 "error: no interior equilibrium; the collapse is undefined\n", id="collapse-no-interior"),
    pytest.param(["collapse", "{ex}", "--emit-game", "{d}"], EXIT_IO, IS_DIR, id="collapse-emit-directory"),
    pytest.param(["collapse", "{d}/grow.txt", "--emit-game", "{d}/core.txt"], EXIT_IO,
                 "error: payoff entry (0, 0) = -1.6e+300 exceeds 1e+300 in magnitude\n", id="collapse-emit-range"),
    pytest.param(["collapse", "{ex}", "--emit-game", "{d}/none/g.txt"], EXIT_IO,
                 NO_FILE.replace("{name}", "none/g.txt"), id="collapse-emit-missing-directory"),
    pytest.param([*SIMULATE, "--x0", "0.2,0.3,abc,0.5,0.5"], EXIT_IO,
                 "error: cannot parse --x0: 'abc' is not a number\n", id="x0-words"),
    pytest.param([*SIMULATE, "--x0", "1/3,1/3,1/3,1/2,1/0"], EXIT_IO,  # fractions read, as in game files
                 "error: cannot parse --x0: '1/0' is not a number\n", id="x0-fraction"),
    pytest.param([*SIMULATE, "--x0", "\u0661,0.5,0.5,0.5,0.5"], EXIT_IO,  # an Arabic-Indic one is no ASCII digit
                 "error: cannot parse --x0: '\u0661' is not a number\n", id="x0-non-ascii-digit"),
    pytest.param([*SIMULATE, "--x0", "nan,0.5,0.5,0.5,0.5"], EXIT_IO,
                 "error: cannot parse --x0: 'nan' is not a number\n", id="x0-nan"),
    pytest.param([*SIMULATE, "--x0", "random:x"], EXIT_IO,
                 "error: cannot parse --x0: expected an integer >= 0, got 'x'\n", id="x0-seed-words"),
    pytest.param([*SIMULATE, "--x0", "random:-3"], EXIT_IO,
                 "error: cannot parse --x0: expected an integer >= 0, got '-3'\n", id="x0-seed-negative"),
    pytest.param([*SIMULATE, "--x0", "0.5,0.5"], EXIT_IO, "error: x0 needs 5 coordinates\n", id="x0-length"),
    pytest.param([*SIMULATE, "--x0", "0.5,0.5,0,2,-1"], EXIT_IO,
                 "error: --x0 is not a prism state: negative coordinate -1.0\n", id="x0-off-the-prism"),
    pytest.param([*SIMULATE, "--T", "1e300"], EXIT_IO,
                 "error: T / dt = 1e+302 steps is not a finite count of at most 1e+07\n", id="step-count"),
    pytest.param(["simulate", "--game", "{d}/zero14.txt", "--T", "100000", "--dt", "0.01", "--monitors", ""], EXIT_IO,
                 "error: the integration would keep 140000014 state entries, more than the 134217728 it may hold; "
                 "take fewer steps or starts\n", id="history-ceiling"),  # (10**7 + 1) steps x 14 strategies
    pytest.param([*SIMULATE, "--csv", "{d}"], EXIT_IO, IS_DIR, id="csv-directory"),
    pytest.param([*SIMULATE, "--csv", "{d}/none/run.csv"], EXIT_IO,
                 NO_FILE.replace("{name}", "none/run.csv"), id="csv-missing-directory"),
    pytest.param(["lv2rep", "--A", "{d}/a.txt", "--r", "1,abc"], EXIT_IO,
                 "error: cannot parse --r: 'abc' is not a number\n", id="lv2rep-r"),
    pytest.param(["lv2rep", "--A", "{d}/a.txt", "--r", "1,nan"], EXIT_IO,
                 "error: cannot parse --r: 'nan' is not a number\n", id="lv2rep-r-nan"),
    pytest.param(["lv2rep", "--A", "{d}/a_inf.txt", "--r", "1,-1"], EXIT_IO,
                 "error: A entry (0, 1) = inf is not finite\n", id="lv2rep-A"),
    pytest.param(["lv2rep", "--A", "{d}/a.txt", "--r", "1,1e400"], EXIT_IO,
                 "error: r entry (1) = inf is not finite\n", id="lv2rep-r-range"),
    pytest.param(["lv2rep", "--A", "{d}/missing.txt", "--r", "1,-1"], EXIT_IO,
                 NO_FILE.replace("{name}", "missing.txt"), id="lv2rep-missing"),
    pytest.param(["lv2rep", "--A", "{d}/a.txt", "--r", "1,-1", "--emit-game", "{d}"], EXIT_IO, IS_DIR,
                 id="lv2rep-emit-directory"),
]
REFUSAL_FILES = {
    "parse.txt": "type: 2\n0 zzz\n0 0\n",
    "range.txt": BEYOND_RANGE,
    "ceiling.txt": "type:" + " 2" * 15 + "\n" + ("0 " * 30 + "\n") * 30,
    "sizes_words.txt": "type: 2 x\n0 0\n0 0\n",
    "sizes_none.txt": "type:\n0 0\n0 0\n",
    "sizes_zero.txt": "type: 0 2\n0 0\n0 0\n",
    "dissipative.txt": "type: 3\n-4 5 -4\n3 -4 -4\n-1 -1 -5\n",  # dissipative, but no stable vertex
    "tilted.txt": "type: 2\n1 1\n0 0\n",  # no formal equilibrium
    "boundary.txt": "type: 2\n-1 0\n0 0\n",  # admissible, its only equilibrium (0, 1)
    "zero14.txt": "type: 14\n" + ("0 " * 14 + "\n") * 14,
    "a.txt": "0 -1\n1 0\n",
    "a_inf.txt": "0 1e400\n1 0\n",
    "huge.txt": f"type: 2\n0 {HUGE}\n0 0\n",
    "a_huge.txt": f"0 {HUGE}\n1 0\n",
    # an admissible integer game times 3e299: it parses, but its core's largest entry is 16/9 of the game's
    "grow.txt": "type: 2 2\n9e299 6e299 -9e299 -6e299\n9e299 3e299 6e299 -6e299\n"
                "-9e299 0 3e299 9e299\n-9e299 9e299 0 6e299\n",
}


def filled(argv: list, **fill) -> list:
    """The argv with its {placeholders} filled in."""
    return [a.format(**fill) for a in argv]


class TestRefusals:
    """Every refusal is one `error:` line on stderr, nothing on stdout, no file written, and its exit code.

    Three need more than an input file: a RuntimeError from the rule
    engine (exit 4) below, collapse's internal failure (exit 4) in
    TestCollapse, and the history ceiling of a 600-strategy game, run
    under a memory cap in TestIntegrationLimits.
    """

    @pytest.fixture()
    def refusal_dir(self, tmp_path):
        for name, text in REFUSAL_FILES.items():
            (tmp_path / name).write_text(text)
        return tmp_path

    @pytest.mark.parametrize("argv, code, err", REFUSALS)
    def test_one_error_line(self, capsys, refusal_dir, example_path, argv, code, err):
        fill = {"d": str(refusal_dir), "ex": example_path}
        assert run(capsys, *filled(argv, **fill)) == (code, "", err.format(**fill))
        assert sorted(p.name for p in refusal_dir.iterdir()) == sorted(REFUSAL_FILES)

    def test_a_runtime_error_is_an_internal_failure(self, capsys, monkeypatch, example_path):
        def fail(*args, **kwargs):
            raise RuntimeError("rule applications exceeded the monotonicity budget")

        monkeypatch.setattr(cli.reduction, "run_to_fixpoint", fail)
        err = "error: rule applications exceeded the monotonicity budget\n"
        assert run(capsys, "reduce", example_path) == (EXIT_CERTIFICATE, "", err)

    @pytest.mark.parametrize("command", [*ANALYSES, ["lv2rep", "--r", "1,-1", "--A"]], ids=lambda c: c[0])
    def test_a_file_that_is_not_utf8(self, capsys, tmp_path, command):
        path = tmp_path / "g.txt"
        path.write_bytes(b"type: 2\n\xff 1\n0 0\n")
        named = f"{path}: " if command[0] == "lv2rep" else ""  # a matrix file's errors name it
        assert run(capsys, *command, str(path)) == (EXIT_IO, "", f"error: {named}line 2: byte 0xff is not UTF-8 text\n")

    @pytest.mark.parametrize("spec", ["randomly", "random-3", "random 3"])
    def test_x0_is_random_or_random_seed(self, capsys, example_path, spec):
        argv = filled(SIMULATE, ex=example_path)
        err = f"error: cannot parse --x0: {spec.split()[0]!r} is not a number\n"
        assert run(capsys, *argv, "--x0", spec) == (EXIT_IO, "", err)

    @pytest.mark.parametrize(
        "argv, last",
        [
            (["check", "{d}/huge.txt"], "error: payoff entry (0, 1) = inf is not finite"),
            (["lv2rep", "--A", "{d}/a_huge.txt", "--r", "1,-1"], "error: A entry (0, 1) = inf is not finite"),
            (["check", "{ex}", "--tol", HUGE], f"argument --tol: expected a finite number >= 0, got {HUGE!r}"),
            (["simulate", "--game", "{ex}", "--T", HUGE], f"argument --T: expected a finite number >= 0, got {HUGE!r}"),
            (["simulate", "--game", "{ex}", "--dt", HUGE], f"argument --dt: expected a finite number > 0, got {HUGE!r}"),
            ([*SIMULATE, "--x0", f"{HUGE},0.5,0.5,0.5,0.5"],
             "error: --x0 is not a prism state: coordinate 0 is inf; group 0 sums to inf, expected 1"),
            (["lv2rep", "--A", "{d}/a.txt", "--r", f"1,{HUGE}"], "error: r entry (1) = inf is not finite"),
        ],
        ids=["game-file", "matrix-file", "tol", "T", "dt", "x0", "r"],
    )
    def test_a_fraction_past_the_float_range(self, capsys, refusal_dir, example_path, argv, last):
        # it reads as the infinity 1e400 reads as, so the range check that refuses 1e400 names it
        code, out, err = run(capsys, *filled(argv, d=str(refusal_dir), ex=example_path))
        assert (code, out) == (EXIT_IO, "")
        lines = err.splitlines()
        assert [line for line in lines if "error:" in line] == [lines[-1]] and lines[-1].endswith(last)
        assert "Traceback" not in err


class TestNumberGrammar:
    """Every reader of a number gives a token the same verdict: read, or refused as no number."""

    @pytest.mark.parametrize("token", ["0", "-0", "+1", "1.", ".5", "2.5e-1", "1E2", "1/3", "+3/4", *NOT_NUMBERS])
    def test_one_verdict_from_every_reader(self, capsys, tmp_path, example_path, token):
        game, matrix, rates = tmp_path / "g.txt", tmp_path / "m.txt", tmp_path / "a.txt"
        game.write_text(f"type: 2\n0 {token}\n0 0\n")
        matrix.write_text(f"0 {token}\n0 0\n")
        rates.write_text("0 -1\n1 0\n")
        no_number = f"cannot parse number {token!r}"
        err = {
            "game file": run(capsys, "check", str(game))[2],
            "matrix file": run(capsys, "lv2rep", "--A", str(matrix), "--r", "1,1")[2],
            "--tol": run(capsys, "check", example_path, "--tol", token)[2],
            "--T": run(capsys, "simulate", "--game", example_path, "--T", token, "--dt", "1")[2],
            "--x0": run(capsys, "simulate", "--game", example_path, "--T", "0", "--x0", f"{token},0.5,0.5,0.5,0.5")[2],
            "--r": run(capsys, "lv2rep", "--A", str(rates), "--r", f"1,{token}")[2],
        }
        refused = {
            "game file": err["game file"] == f"error: line 2: {no_number}\n",
            "matrix file": err["matrix file"] == f"error: {matrix}: line 1: {no_number}\n",
            # every accepted token here is finite and >= 0, so a usage error is a refused token
            "--tol": f"argument --tol: expected a finite number >= 0, got {token!r}" in err["--tol"],
            "--T": f"argument --T: expected a finite number >= 0, got {token!r}" in err["--T"],
            "--x0": err["--x0"] == f"error: cannot parse --x0: {token!r} is not a number\n",
            "--r": err["--r"] == f"error: cannot parse --r: {token!r} is not a number\n",
        }
        assert refused == dict.fromkeys(refused, token in NOT_NUMBERS)

    @pytest.mark.parametrize(
        "argv",
        [["check", "{game}"], ["simulate", "--game", "{example}", "--T", "0.1", "--x0", "random:" + "7" * 700]],
        ids=["fraction", "seed"],
    )
    def test_no_verdict_depends_on_the_int_digit_limit(self, tmp_path, example_path, argv):
        # 700 digits are within int()'s default limit, 4300, and past 640, the smallest Python accepts
        game = tmp_path / "g.txt"
        game.write_text(f"type: 2\n-1 {'1' * 700}/3{'0' * 699}\n0 0\n")
        argv = [a.format(game=game, example=example_path) for a in argv]
        src = str(Path(polyrep.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        runs = [
            subprocess.run([sys.executable, "-m", "polyrep.cli", *argv], capture_output=True, text=True, env=e)
            for e in (env, dict(env, PYTHONINTMAXSTRDIGITS="640"))
        ]
        assert [(r.returncode, r.stdout) for r in runs] == [(EXIT_OK, runs[0].stdout)] * 2

    def test_spaces_around_an_option_value_are_no_part_of_it(self, capsys, example_path):
        # as around a token of a game file, --x0 or --r
        assert run(capsys, "check", example_path, "--tol", " 1e-9 ") == run(capsys, "check", example_path)
        padded = run(capsys, "simulate", "--game", example_path, "--T", " 1/2", "--dt", "1/100 ")
        assert padded == run(capsys, "simulate", "--game", example_path, "--T", "1/2", "--dt", "1/100")
        assert padded[0] == 0


class TestDeterminism:
    def test_json_outputs_byte_identical(self, capsys, example_path):
        _, out1, _ = run(capsys, "reduce", example_path, "--format", "json")
        _, out2, _ = run(capsys, "reduce", example_path, "--format", "json")
        assert out1 == out2
        _, c1, _ = run(capsys, "check", example_path, "--format", "json")
        _, c2, _ = run(capsys, "check", example_path, "--format", "json")
        assert c1 == c2

    def test_seeded_simulation_deterministic(self, capsys, tmp_path, example_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run(capsys, "simulate", "--game", example_path, "--x0=random:3", "--T=1", "--csv", str(path))
            outs.append(path.read_text())
        assert outs[0] == outs[1]


class TestMalformedEnvironmentSeed:
    """No command reads POLYREP_SEED: `--x0 random:SEED` is the one seed, and `random` is `random:0`."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "{path}"),
            ("simulate", "--game", "{path}", "--x0", "random:3", "--T=0.1"),
            ("simulate", "--game", "{path}", "--x0", "random", "--T=0.1"),
        ],
    )
    def test_ignored_where_not_read(self, capsys, monkeypatch, example_path, argv):
        monkeypatch.setenv("POLYREP_SEED", "abc")
        code, _, err = run(capsys, *(a.format(path=example_path) for a in argv))
        assert code == EXIT_OK
        assert "POLYREP_SEED" not in err

    def test_a_bare_random_start_is_seed_0(self, capsys, monkeypatch, tmp_path, example_path):
        monkeypatch.setenv("POLYREP_SEED", "abc")
        runs = []
        for i, spec in enumerate(("random", "random:0")):
            path = tmp_path / f"{i}.csv"
            code, out, err = run(capsys, "simulate", "--game", example_path, "--x0", spec, "--T=0.1", "--csv", str(path))
            runs.append((code, out, err, path.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == EXIT_OK


class TestSharedParser:
    """main parses with one parser per process, and no call leaves a trace in the next."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_built_once(self, capsys, monkeypatch, example_path):
        real, built = cli.build_parser, []

        def spy():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", spy)
        for argv in (["check", example_path], ["equilibrium", example_path], ["check", "--bogus"]):
            run(capsys, *argv)
        assert len(built) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_seed_does_not_persist(self, capsys, tmp_path, example_path):
        starts = {}
        for i, spec in enumerate(("random:5", "random", "random:11")):
            path = tmp_path / f"{i}.csv"
            run(capsys, "simulate", "--game", example_path, "--T=0.1", "--csv", str(path), "--x0", spec)
            starts[spec] = path.read_text().splitlines()[1]
        assert len(set(starts.values())) == 3  # a bare random is random:0, not the seed before it

    def test_format_does_not_persist(self, capsys, example_path):
        _, out, _ = run(capsys, "check", example_path, "--format", "json")
        assert out.startswith("{")
        _, out, _ = run(capsys, "check", example_path)
        assert out.startswith("kind: ")

    def test_usage_error_leaves_no_trace(self, capsys, example_path):
        src = str(Path(polyrep.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        fresh = subprocess.run(
            [sys.executable, "-m", "polyrep.cli", "check", example_path, "--format", "json"],
            capture_output=True, text=True, env=env,
        )
        assert fresh.returncode == EXIT_OK
        assert run(capsys, "check", example_path, "--tol", "abc")[0] == EXIT_IO
        assert run(capsys, "check", example_path, "--format", "json") == (EXIT_OK, fresh.stdout, fresh.stderr)


class TestColdImports:
    """The subcommands on the bundled example never need scipy.

    Nor numpy.random, which numpy loads lazily, until simulate draws its
    random start.  Nor does a verdict proved before the first Kelley cut.
    """

    SCRIPT = """
import contextlib, io, json, sys
from polyrep.cli import main
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main([*argv, "--format", "json"])
def loaded(prefix):
    return sorted(m for m in sys.modules if m.startswith(prefix))
path = sys.argv[1]
codes = [run(sub, path) for sub in ("check", "vertices", "reduce", "collapse", "equilibrium")]
random = loaded("numpy.random")
codes.append(run("simulate", "--game", path, "--T", "1"))
print(json.dumps({"codes": codes, "random": random, "scipy": loaded("scipy")}))
"""

    def cold(self, path) -> dict:
        """The exit codes and the modules the SCRIPT's fresh interpreter loaded, on the game at path."""
        src = str(Path(polyrep.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, path],
            capture_output=True, text=True, env=env, check=True,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    def test_no_scipy_loaded(self, example_path):
        got = self.cold(example_path)
        assert got["codes"] == [EXIT_OK] * 6
        assert got["random"] == []
        assert got["scipy"] == []

    def test_not_dissipative_before_the_cuts_loads_no_scipy(self, tmp_path):
        # a one-vector proof decides it: scipy was once loaded before that proof was tried
        path = tmp_path / "game.txt"
        write_game(PolymatrixGame(GameType((3, 3)), np.random.default_rng(3).integers(-5, 6, (6, 6))), path)
        got = self.cold(str(path))
        assert got["codes"] == [EXIT_NOT_DISSIPATIVE, EXIT_OK, EXIT_NOT_DISSIPATIVE, EXIT_NOT_DISSIPATIVE, EXIT_OK, EXIT_OK]
        assert got["random"] == []
        assert got["scipy"] == []


class TestAnyGame:
    """Every subcommand on random small games: a documented exit, never a traceback.

    Games have up to 6 strategies in up to 3 groups, with integer or
    uniform payoffs, or dissipative by construction so that reduce and
    collapse get past the verdict.  Each command runs in text and in JSON.
    """

    KINDS = {CONSERVATIVE, DISSIPATIVE, NO_FORMAL_EQUILIBRIUM, NO_CERTIFICATE, NOT_DISSIPATIVE}
    COMMANDS = ("check", "vertices", "reduce", "collapse", "equilibrium", "simulate")

    @staticmethod
    def call(*argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=40, deadline=5000, derandomize=True, database=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda s: sum(s) <= 6),
        payoff=st.sampled_from(["integer", "uniform", "dissipative"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_documented_exits_and_one_line_json(self, sizes, payoff, seed):
        gt, rng = GameType(tuple(sizes)), np.random.default_rng(seed)
        if payoff == "dissipative":
            game = make_dissipative_game(gt, rng)[0]
        else:
            game = random_game(gt, rng, integer=payoff == "integer")
        with tempfile.TemporaryDirectory() as directory:
            path = str(Path(directory) / "game.txt")
            write_game(game, path)
            for command in self.COMMANDS:
                head = [command, path]
                if command == "simulate":
                    head = [command, "--game", path, "--T", "1", "--x0", f"random:{seed}"]
                code, _, err = self.call(*head)
                assert code in range(5) and "Traceback" not in err, (command, code, err)
                json_code, out, err = self.call(*head, "--format", "json")
                assert json_code == code and "Traceback" not in err, (command, json_code, err)
                if out or command == "check":
                    assert out.count("\n") == 1 and out.endswith("\n")
                    data = json.loads(out)
                if command == "check":
                    assert data["kind"] in self.KINDS
                    assert data["admissible"] == admissible(game)[0]
