"""Metamorphic relations: changes to a game whose effect the theory fixes exactly.

A direct sum G1 + G2, the block-diagonal payoff of two games, has the
vertex matrix blockdiag(A1_v1, A2_v2) at the vertex (v1, v2).  Its zero
graph is the union of the two, the ratio walk runs through the first
block and then the second, and the definiteness splits by block.  So
its stable vertices are the products of the copies' stable vertices,
and each product's scaling is the two copies' scalings laid end to end,
the same floats.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrep.games import GameType, PolymatrixGame
from polyrep.stability import Analysis
from polyrep.vertices import VertexLabel

from conftest import make_admissible_game

TYPES = [(2, 2), (3, 2), (2, 2, 2), (3, 3)]


def direct_sum(g1: PolymatrixGame, g2: PolymatrixGame) -> PolymatrixGame:
    n1, n2 = g1.gtype.n, g2.gtype.n
    payoff = np.zeros((n1 + n2, n1 + n2))
    payoff[:n1, :n1] = g1.payoff
    payoff[n1:, n1:] = g2.payoff
    return PolymatrixGame(GameType(g1.gtype.sizes + g2.gtype.sizes), payoff)


@settings(max_examples=40, deadline=10000, derandomize=True, database=None)
@given(first=st.sampled_from(TYPES), second=st.sampled_from(TYPES), seed=st.integers(0, 2**32 - 1))
def test_direct_sum_multiplies_the_stable_vertices(first, second, seed):
    rng = np.random.default_rng(seed)
    g1 = make_admissible_game(GameType(first), rng)[0]
    g2 = make_admissible_game(GameType(second), rng)[0]
    a1, a2, both = Analysis(g1), Analysis(g2), Analysis(direct_sum(g1, g2))
    offset = g1.gtype.n
    pairs = {VertexLabel(v1.chosen + tuple(c + offset for c in v2.chosen)): (v1, v2) for v1 in a1.vstar for v2 in a2.vstar}
    assert list(both.vstar) == list(pairs)
    for v, (v1, v2) in pairs.items():
        joined = np.concatenate([a1.reports[v1].scaling, a2.reports[v2].scaling])
        assert both.reports[v].scaling.tobytes() == joined.tobytes()
