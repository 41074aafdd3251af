"""The shared per-game analysis: one certificate search, one vertex pass."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import polyrep
import reference_vertex_layer as ref_layer
from polyrep import games, stability, vertices
from polyrep.cli import main
from polyrep.collapse import hamiltonian_collapse
from polyrep.dynamics import integrate_batch
from polyrep.gamefile import parse_game, write_game
from polyrep.games import DiagonalScaling, GameType, PolymatrixGame
from polyrep.reduction import run_to_fixpoint
from polyrep.vertices import enumerate_vertices

from conftest import FIXTURES, make_admissible_game, make_dissipative_game

GOLDEN = FIXTURES / "golden"


@pytest.fixture()
def example_path(example_game_file):
    return str(example_game_file)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(stability, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(stability, name, counted)
    return calls


class TestGoldenOutput:
    """JSON output recorded before the analysis was shared, byte for byte,
    in the one-line, keys-sorted layout of json's C encoder.

    These four commands print no LAPACK-computed float, so the files hold
    across numpy builds.
    """

    @pytest.mark.parametrize("command", ["check", "vertices", "reduce", "collapse"])
    def test_example_json(self, capsys, example_path, command):
        code = main([command, example_path, "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / f"example_{command}.json").read_text()

    def test_example_sum_check(self, capsys):
        # two scaled copies of the example: 36 vertices sharing a few zero patterns
        code = main(["check", str(FIXTURES / "example_sum2.txt"), "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / "sum2_check.json").read_text()

    @pytest.mark.parametrize("command", ["reduce", "collapse"])
    def test_example_sum_json(self, capsys, command):
        # its equilibrium rationalizes to halves, so these too hold no LAPACK-computed float
        code = main([command, str(FIXTURES / "example_sum2.txt"), "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / f"sum2_{command}.json").read_text()


class TestOnePassPerCommand:
    @pytest.mark.parametrize("command", ["check", "reduce", "collapse"])
    def test_example(self, capsys, monkeypatch, example_path, command):
        searches = _counting(monkeypatch, "_search")
        singles = _counting(monkeypatch, "stably_dissipative")
        stacks = _counting(monkeypatch, "_decide")
        assert main([command, example_path, "--format", "json"]) == 0
        capsys.readouterr()
        assert len(searches) == 1
        # one stack evaluation over every vertex, no per-vertex test
        assert singles == []
        assert [len(t) for t, *_ in stacks] == [len(enumerate_vertices(GameType((3, 2))))]

    @pytest.mark.parametrize("command", ["check", "reduce", "collapse"])
    def test_no_report_objects(self, capsys, monkeypatch, example_path, command):
        # the verdicts stay arrays over the vertex stack; check prints them from the rows
        reports = _counting(monkeypatch, "StableDissipativityReport")
        assert main([command, example_path, "--format", "json"]) == 0
        capsys.readouterr()
        assert reports == []

    @pytest.mark.parametrize("command", ["check", "vertices", "reduce", "collapse"])
    def test_one_vertex_graph(self, capsys, monkeypatch, example_path, command):
        # the stability test reads the analysis's graph, so reduce and collapse build it once too
        graphs = _counting(monkeypatch, "graph_pattern")
        monkeypatch.setattr(vertices, "graph_pattern", stability.graph_pattern)
        assert main([command, example_path, "--format", "json"]) == 0
        capsys.readouterr()
        assert [len(t) for t, _ in graphs] == [len(enumerate_vertices(GameType((3, 2))))]

    @pytest.mark.parametrize(
        "argv", [["check"], ["vertices"], ["reduce"], ["collapse"], ["simulate", "--T", "1", "--game"]], ids=lambda a: a[0]
    )
    def test_one_analysis(self, capsys, monkeypatch, example_path, argv):
        # each command builds its game's analysis once and hands it to every stage
        built = []
        post_init = stability.Analysis.__post_init__
        monkeypatch.setattr(stability.Analysis, "__post_init__", lambda an: built.append(an) or post_init(an))
        assert main([*argv, example_path, "--format", "json"]) == 0
        capsys.readouterr()
        assert len(built) == 1

    def test_collapse_solves_for_the_equilibria_once(self, capsys, monkeypatch, example_path):
        solved = _counting(monkeypatch, "formal_equilibria")
        monkeypatch.setattr(games, "formal_equilibria", stability.formal_equilibria)
        assert main(["collapse", example_path, "--format", "json"]) == 0
        capsys.readouterr()
        # once for the game, once for the conservative core it collapses to
        assert [g.gtype for g, in solved] == [GameType((3, 2)), GameType((2, 2))]


class TestOneCertificateVerdict:
    """The analysis's kind is the verdict the search accepted its certificate by."""

    @pytest.mark.parametrize("sizes,seed", [((2, 2, 2), 30), ((3, 3), 56)])
    def test_certificate_at_tol_0_is_not_indefinite(self, capsys, tmp_path, sizes, seed):
        # (2,2,2) seed 30: rounding put the top eigenvalue at -4.4e-16 for the search, +5.6e-17 for a second eigh
        game, _, _ = make_dissipative_game(GameType(sizes), np.random.default_rng(seed))
        an = stability.Analysis(game, 0.0)
        assert an.kind in (stability.CONSERVATIVE, stability.DISSIPATIVE)
        assert stability.check_with_scaling(game, an.scaling, 0.0).kind == an.kind
        path = tmp_path / "game.txt"
        write_game(game, path)
        assert main(["check", str(path), "--tol", "0", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == stability.DISSIPATIVE


class TestAnalysis:
    def test_each_stage_reads_the_analysis_it_is_handed(self, example_game, monkeypatch):
        # one search per game, whatever order the stages run in
        a1 = stability.Analysis(example_game)
        a2 = stability.Analysis(make_admissible_game(GameType((2, 2, 2)), np.random.default_rng(3))[0])
        searches = _counting(monkeypatch, "_search")
        run_to_fixpoint(a1)
        run_to_fixpoint(a2)
        hamiltonian_collapse(a1)
        assert [game.gtype.sizes for game, _ in searches] == [(3, 2), (2, 2, 2)]

    def test_fields_are_lazy(self, example_game, monkeypatch):
        searches = _counting(monkeypatch, "_search")
        an = stability.Analysis(example_game)
        assert [v.chosen for v in an.vstar] == [(0, 3), (0, 4), (1, 3), (1, 4)]
        assert searches == []
        assert an.admissible and an.kind == stability.DISSIPATIVE
        assert len(searches) == 1

    def test_no_formal_equilibrium_skips_the_search(self, monkeypatch):
        searches = _counting(monkeypatch, "_search")
        an = stability.Analysis(PolymatrixGame(GameType((2,)), np.array([[1.0, 1.0], [0.0, 0.0]])))
        assert an.kind == stability.NO_FORMAL_EQUILIBRIUM
        assert an.scaling is None and not an.admissible
        assert searches == []

    def test_agrees_with_admissible(self):
        rng = np.random.default_rng(5)
        for gt in (GameType((3, 2)), GameType((2, 2, 2)), GameType((3,))):
            for _ in range(3):
                game, _, _ = make_dissipative_game(gt, rng)
                an = stability.Analysis(game)
                assert stability.admissible(game) == (an.admissible, list(an.vstar))

    @pytest.mark.parametrize("tol", [-1.0, float("inf"), float("nan")])
    def test_rejects_a_tolerance_that_is_not_finite_and_nonnegative(self, example_game, tol):
        # -1 used to prove the admissible example not_dissipative, inf to call it conservative
        with pytest.raises(ValueError, match="finite number >= 0"):
            stability.Analysis(example_game, tol)
        with pytest.raises(ValueError, match="finite number >= 0"):
            stability.admissible(example_game, tol=tol)
        with pytest.raises(ValueError, match="finite number >= 0"):
            stability.stable_vertices(example_game, tol=tol)

    def test_diagonal_signs_use_the_stability_tolerance(self):
        # a diagonal entry of 1e-12 is zero to stably_dissipative at tol 1e-9,
        # and the vertex graph reads the same zero rule; the payoff's unit is
        # set by a column of ones with equal rows, which no vertex matrix reads
        a = np.zeros((3, 3))
        a[0, 0] = -1e-12
        a[:2, 2] = 1.0
        an = stability.Analysis(PolymatrixGame(GameType((2, 1)), a))
        assert an.unit[1] == 0
        v = enumerate_vertices(GameType((2, 1)))[1]
        idx, m = ref_layer.vertex_matrix(an.game, v)
        assert ref_layer.vertex_graph(idx, m).diagonal_sign == {0: 0}
        assert an.tensor[1][1].tolist() == list(idx) and an.pattern[1][1].tolist() == [0]


class TestSimulateMonitors:
    SCRIPT = """
import contextlib, io, json, sys
from polyrep.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["simulate", "--game", sys.argv[1], "--T", "1", "--monitors", sys.argv[2]])
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""

    @pytest.fixture(scope="class")
    def uncertified_path(self, tmp_path_factory):
        game, _, _ = make_dissipative_game(GameType((3, 3)), np.random.default_rng(0))
        path = tmp_path_factory.mktemp("sim") / "game.txt"
        write_game(game, path)
        game = parse_game(path)
        identity = stability.check_with_scaling(game, DiagonalScaling.identity(game.gtype))
        assert identity.kind == stability.INDEFINITE  # the search must leave the identity
        return str(path)

    def _run(self, path, monitors):
        src = str(Path(polyrep.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, path, monitors],
            capture_output=True, text=True, env=env, check=True,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    def test_ratios_need_no_certificate(self, uncertified_path):
        got = self._run(uncertified_path, "ratios")
        assert got == {"code": 0, "scipy": []}

    def test_h_searches_for_one(self, uncertified_path):
        got = self._run(uncertified_path, "h")
        assert got["code"] == 0 and "scipy.optimize" in got["scipy"]


class TestLeftovers:
    def test_aborted_run_is_silent(self, example_game):
        starts = np.array([[0.2, 0.3, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trajs = integrate_batch(example_game, starts, T=0.1, dt=0.01)
        assert [t.ok for t in trajs] == [False, False]


class TestTracedNames:
    def test_every_traced_function_resolves(self):
        # perfbench's tracer wraps these by name: a renamed or deleted one breaks the traced run
        path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        missing = [
            (module, name)
            for module, name in tracer.TRACED
            if not callable(getattr(importlib.import_module(f"polyrep.{module}"), name, None))
        ]
        assert missing == []
