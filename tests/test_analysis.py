"""The shared per-game analysis: one certificate search, one vertex pass."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import polyrep
from polyrep import stability
from polyrep.cli import main
from polyrep.dynamics import integrate_batch
from polyrep.gamefile import parse_game, write_game
from polyrep.games import DiagonalScaling, GameType, PolymatrixGame, _nullspace
from polyrep.vertices import enumerate_vertices, numerical_rank

from conftest import FIXTURES, make_dissipative_game

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
    """JSON output recorded before the analysis was shared, byte for byte.

    These four commands print no LAPACK-computed float, so the files hold
    across numpy builds.
    """

    @pytest.mark.parametrize("command", ["check", "vertices", "reduce", "collapse"])
    def test_example_json(self, capsys, example_path, command):
        code = main([command, example_path, "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / f"example_{command}.json").read_text()


class TestOnePassPerCommand:
    @pytest.mark.parametrize("command", ["check", "reduce", "collapse"])
    def test_example(self, capsys, monkeypatch, example_path, command):
        searches = _counting(monkeypatch, "find_scaling")
        reports = _counting(monkeypatch, "stably_dissipative")
        assert main([command, example_path, "--format", "json"]) == 0
        capsys.readouterr()
        assert len(searches) == 1
        assert len(reports) == len(enumerate_vertices(GameType((3, 2))))


class TestAnalysis:
    def test_memo_keeps_the_last_game(self, example_game):
        first = stability.analyse(example_game, stability.SEMIDEF_TOL)
        assert stability.analyse(example_game, stability.SEMIDEF_TOL) is first
        other = PolymatrixGame(example_game.gtype, example_game.payoff)
        assert stability.analyse(other, stability.SEMIDEF_TOL) is not first
        assert stability.analyse.cache_info().currsize == 1

    def test_fields_are_lazy(self, example_game, monkeypatch):
        searches = _counting(monkeypatch, "find_scaling")
        an = stability.Analysis(example_game)
        assert [v.chosen for v in an.vstar] == [(0, 3), (0, 4), (1, 3), (1, 4)]
        assert searches == []
        assert an.admissible and an.kind == stability.DISSIPATIVE
        assert len(searches) == 1

    def test_no_formal_equilibrium_skips_the_search(self, monkeypatch):
        searches = _counting(monkeypatch, "find_scaling")
        an = stability.Analysis(PolymatrixGame(GameType((2,)), np.array([[1.0, 1.0], [0.0, 0.0]])))
        assert an.kind == stability.NO_FORMAL_EQUILIBRIUM
        assert an.scaling is None and not an.admissible
        assert searches == []

    def test_agrees_with_admissible(self):
        rng = np.random.default_rng(5)
        for gt in (GameType((3, 2)), GameType((2, 2, 2)), GameType((3,))):
            for _ in range(3):
                game, _, d = make_dissipative_game(gt, rng)
                an = stability.Analysis(game)
                assert stability.admissible(game) == (an.admissible, list(an.vstar))
                ok, _ = stability.admissible(game, d)
                assert ok == bool(an.vstar)

    def test_diagonal_signs_use_the_stability_tolerance(self):
        # a diagonal entry of 1e-12 is zero to stably_dissipative at tol 1e-9,
        # though the exact-zero vertex graph sees it as negative
        a = np.zeros((2, 2))
        a[0, 0] = -1e-12
        an = stability.Analysis(PolymatrixGame(GameType((2,)), a))
        v = enumerate_vertices(GameType((2,)))[1]
        assert an.diagonal_signs[v, 0] == 0
        assert an.graphs[v].diagonal_sign == {0: -1}


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

    def test_numerical_rank_is_the_nullspace_complement(self):
        rng = np.random.default_rng(3)
        for shape, rank in (((4, 4), 2), ((3, 5), 3), ((5, 3), 1), ((0, 3), 0)):
            m = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
            assert numerical_rank(m) == rank == shape[1] - len(_nullspace(m))
