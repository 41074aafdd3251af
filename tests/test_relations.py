"""Metamorphic relations: changes to a game whose effect the theory fixes exactly.

A direct sum G1 + G2, the block-diagonal payoff of two games, has the
vertex matrix blockdiag(A1_v1, A2_v2) at the vertex (v1, v2).  Its zero
graph is the union of the two, the ratio walk runs through the first
block and then the second, and the definiteness splits by block.  So
its stable vertices are the products of the copies' stable vertices,
and each product's scaling is the two copies' scalings laid end to end,
the same floats.  The reduction of the sum runs each copy's rules side
by side: its colours are the copies' colours laid end to end, its
links theirs, the second copy's moved by its offset.

Relabelling the groups, and the strategies within each group, permutes
every vertex matrix's rows and columns and changes no entry.  So the
kind, the admissibility, the stable vertices (through the relabelling)
and every vertex's cycle condition, which reads the zero pattern alone,
stay as they were.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrep.games import GameType, PolymatrixGame
from polyrep.reduction import run_to_fixpoint
from polyrep.stability import Analysis
from polyrep.vertices import VertexLabel

from conftest import make_admissible_game

TYPES = [(2, 2), (3, 2), (2, 2, 2), (3, 3)]
RELABEL_TYPES = [(2, 2), (3, 2), (2, 2, 2), (3, 3), (3, 2, 2)]


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


@settings(max_examples=60, deadline=10000, derandomize=True, database=None)
@given(first=st.sampled_from(TYPES), second=st.sampled_from(TYPES), seed=st.integers(0, 2**32 - 1))
def test_direct_sum_lays_the_colours_end_to_end(first, second, seed):
    rng = np.random.default_rng(seed)
    g1 = make_admissible_game(GameType(first), rng)[0]
    g2 = make_admissible_game(GameType(second), rng)[0]
    r1, r2, both = run_to_fixpoint(g1), run_to_fixpoint(g2), run_to_fixpoint(direct_sum(g1, g2))
    offset = g1.gtype.n
    assert both.final.colors == r1.final.colors + r2.final.colors
    assert both.final.links == r1.final.links | {(a + offset, b + offset) for a, b in r2.final.links}


def relabel(game: PolymatrixGame, rng: np.random.Generator) -> tuple[PolymatrixGame, np.ndarray]:
    """The game with its groups, and the strategies within each, in a seeded random order.

    Returns the relabelled game and new, the new index of each old strategy.
    """
    gt = game.gtype
    groups = rng.permutation(gt.p)
    old = np.concatenate([rng.permutation(gt.group_indices(a)) for a in groups])  # old index of each new one
    new = np.argsort(old)
    return PolymatrixGame(GameType(tuple(gt.sizes[a] for a in groups)), game.payoff[np.ix_(old, old)]), new


@settings(max_examples=100, deadline=10000, derandomize=True, database=None)
@given(sizes=st.sampled_from(RELABEL_TYPES), seed=st.integers(0, 2**32 - 1))
def test_relabelling_permutes_the_stable_vertices(sizes, seed):
    rng = np.random.default_rng(seed)
    game = make_admissible_game(GameType(sizes), rng)[0]
    moved, new = relabel(game, rng)
    an, am = Analysis(game), Analysis(moved)
    assert (am.kind, am.admissible) == (an.kind, an.admissible)

    def image(v: VertexLabel) -> VertexLabel:
        # a vertex is its set of chosen strategies, listed in the relabelled group order
        return VertexLabel(sorted(new[list(v.chosen)].tolist()))

    assert {image(v) for v in an.vstar} == set(am.vstar)
    assert {image(v): rep.cycle_ok for v, rep in an.reports.items()} == {
        v: rep.cycle_ok for v, rep in am.reports.items()
    }
