"""The array rules against the one-graph-at-a-time reference engine.

run_to_fixpoint reads the analysis's edge and sign arrays; the engine in
reference_reduction rescans per-vertex graphs.  On every game both must
give the same ReducedInformationSet, trace included, in the
deterministic scan and for each seeded random order.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_reduction as ref
from polyrep import cli, stability, vertices
from polyrep.games import GameType, PolymatrixGame
from polyrep.reduction import run_to_fixpoint

from conftest import EXAMPLE_PAYOFF, make_admissible_game, random_equal_rows

SEEDS = (0, 1, 2)


def _assert_same_reduction(game):
    assert run_to_fixpoint(game) == ref.run_to_fixpoint(game)
    for seed in SEEDS:
        got = run_to_fixpoint(game, rng=np.random.default_rng(seed))
        assert got == ref.run_to_fixpoint(game, rng=np.random.default_rng(seed))


def _example_sum(copies: int, seed: int) -> PolymatrixGame:
    """Scaled copies of the worked example plus equal-row blocks, which the analysis cannot see."""
    rng = np.random.default_rng(seed)
    gt = GameType((3, 2) * copies)
    scales = rng.integers(1, 4, copies)
    payoff = np.kron(np.diag(scales), EXAMPLE_PAYOFF) + random_equal_rows(gt, rng, integer=True)
    return PolymatrixGame(gt, payoff)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple), seed=st.integers(0, 2**32 - 1))
@example(sizes=(1,), seed=0)  # k = 0: rule 5 alone
@example(sizes=(1, 2), seed=0)
@example(sizes=(3, 1, 2), seed=1)
def test_admissible_games_match_the_reference(sizes, seed):
    game, _, _ = make_admissible_game(GameType(sizes), np.random.default_rng(seed))
    _assert_same_reduction(game)


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (1, 2, 3)])
def test_zero_games_match_the_reference(sizes):
    gt = GameType(sizes)
    _assert_same_reduction(PolymatrixGame(gt, np.zeros((gt.n, gt.n))))


@pytest.mark.parametrize("copies, seed", [(1, 0), (2, 0), (2, 1), (3, 0)])
def test_example_sums_match_the_reference(copies, seed):
    _assert_same_reduction(_example_sum(copies, seed))


def test_reduce_and_collapse_never_build_the_graphs(monkeypatch, capsys, example_game_file):
    # graph objects are vertex_graph's alone; the commands, vertices too, read the pattern arrays
    calls = []
    build = vertices.StrategyGraph.__init__
    monkeypatch.setattr(vertices.StrategyGraph, "__init__", lambda *a: calls.append(1) or build(*a))
    for command in ("reduce", "collapse", "vertices"):
        stability.analyse.cache_clear()
        assert cli.main([command, str(example_game_file)]) == cli.EXIT_OK
        assert calls == [], command
    capsys.readouterr()
