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

Multiplying the payoff by 2**j is exact in floating point, and the
analysis reads the game in its unit, so every verdict, scaling and
proof, and the formal equilibrium, stay the same bits, and the outputs
in the game's unit (the vertex matrices, the collapsed payoff) are
exactly 2**j times the unscaled ones.

Scaling the payoff's columns by a positive group diagonal C multiplies
every vertex matrix M by a positive diagonal on the right, and M is
stably dissipative exactly when M C is, so the stable vertices stay as
they were.  Whether a certificate exists is left out: the scaled game
may have no formal equilibrium.

Adding a matrix whose blocks have equal rows changes no vertex matrix
in exact arithmetic.  In floats the vertex matrices then carry its
rounding, so the kind and the stable vertices are asserted up to
magnitudes of 1e4 times the payoff's.  A zero group appended to a
dissipative game keeps a part of the form that is exactly zero, which
the rounding turns into dust far below every cut.

A certificate accepted at one tolerance is accepted at every larger
one, because the acceptance rule's cut only grows with the tolerance.
So a game certified at tol1 is certified at every tol2 > tol1, though
its label may move between dissipative and conservative.
"""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrep.cli import main
from polyrep.collapse import hamiltonian_collapse
from polyrep.gamefile import parse_game, write_game
from polyrep.games import GameType, PolymatrixGame
from polyrep.reduction import run_to_fixpoint
from polyrep.stability import INDEFINITE, Analysis, check_with_scaling
from polyrep.vertices import VertexLabel

from conftest import FIXTURES, make_admissible_game, make_dissipative_game, random_equal_rows, random_game

TYPES = [(2, 2), (3, 2), (2, 2, 2), (3, 3)]
RELABEL_TYPES = [(2, 2), (3, 2), (2, 2, 2), (3, 3), (3, 2, 2)]
UNIT_TYPES = [(2, 2), (3, 2), (2, 2, 2), (3, 3), (2, 2, 2, 2)]


def seeded_game(sizes, kind: str, rng: np.random.Generator) -> PolymatrixGame:
    """A dissipative-by-construction game, the same plus a zero group of two, or a random integer game."""
    if kind == "dissipative":
        return make_dissipative_game(GameType(sizes), rng)[0]
    if kind == "neutral":  # the zero group's part of the form is exactly 0: it proves nothing
        return direct_sum(make_dissipative_game(GameType(sizes), rng)[0], PolymatrixGame(GameType((2,)), np.zeros((2, 2))))
    return random_game(GameType(sizes), rng, integer=True)


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
    labels1, labels2 = a1.tensor[0], a2.tensor[0]
    pairs = {
        VertexLabel(labels1[r1].chosen + tuple(c + offset for c in labels2[r2].chosen)): (r1, r2)
        for r1 in a1.stable_rows.tolist()
        for r2 in a2.stable_rows.tolist()
    }
    assert list(both.vstar) == list(pairs)
    for row, (r1, r2) in zip(both.stable_rows.tolist(), pairs.values()):
        joined = np.concatenate([a1.verdicts[2][r1], a2.verdicts[2][r2]])
        assert both.verdicts[2][row].tobytes() == joined.tobytes()


@settings(max_examples=60, deadline=10000, derandomize=True, database=None)
@given(first=st.sampled_from(TYPES), second=st.sampled_from(TYPES), seed=st.integers(0, 2**32 - 1))
def test_direct_sum_lays_the_colours_end_to_end(first, second, seed):
    rng = np.random.default_rng(seed)
    g1 = make_admissible_game(GameType(first), rng)[0]
    g2 = make_admissible_game(GameType(second), rng)[0]
    r1, r2, both = (run_to_fixpoint(Analysis(g)) for g in (g1, g2, direct_sum(g1, g2)))
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
    assert dict(zip(map(image, an.tensor[0]), an.verdicts[0].tolist())) == dict(
        zip(am.tensor[0], am.verdicts[0].tolist())
    )


def _bits(an: Analysis) -> tuple:
    """Every verdict of an analysis, its floats as bytes."""
    search, eq = an.search, an.equilibria
    cycle_ok, skew_ok, d = an.verdicts
    return (
        search.kind,
        None if search.scaling is None else np.array(search.scaling.values).tobytes(),
        None if search.proof is None else search.proof.tobytes(),
        an.vstar,
        [(c and s, c, s, row.tobytes() if s else None) for c, s, row in zip(cycle_ok.tolist(), skew_ok.tolist(), d)],
        None if eq.particular is None else eq.particular.tobytes(),
    )


def _vertex_matrices(game: PolymatrixGame, directory: str) -> list[np.ndarray]:
    """The matrices `polyrep vertices --format json` prints for the game."""
    path = Path(directory) / "game.txt"
    write_game(game, path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["vertices", str(path), "--format", "json"]) == 0
    return [np.array(v["matrix"], dtype=float) for v in json.loads(out.getvalue())["vertices"]]


def _collapsed(game: PolymatrixGame) -> np.ndarray | str:
    """The collapsed payoff, or the error the collapse raised."""
    try:
        return hamiltonian_collapse(Analysis(game)).final_game.payoff
    except (RuntimeError, ValueError) as exc:
        return str(exc)


@settings(max_examples=60, deadline=10000, derandomize=True, database=None)
@given(
    sizes=st.sampled_from(UNIT_TYPES),
    kind=st.sampled_from(["dissipative", "integer"]),
    seed=st.integers(0, 2**32 - 1),
    j=st.integers(-60, 60),
)
@example(sizes=(3, 2), kind="integer", seed=0, j=-30)
@example(sizes=(2, 2, 2), kind="dissipative", seed=0, j=-40)
@example(sizes=(2, 2, 2, 2), kind="integer", seed=1, j=-60)
def test_power_of_two_scaling_changes_no_bit(sizes, kind, seed, j):
    game = seeded_game(sizes, kind, np.random.default_rng(seed))
    scaled = PolymatrixGame(game.gtype, np.ldexp(game.payoff, j))
    an, am = Analysis(game), Analysis(scaled)
    assert _bits(am) == _bits(an)
    with tempfile.TemporaryDirectory() as directory:
        matrices = zip(_vertex_matrices(game, directory), _vertex_matrices(scaled, directory))
        assert all(np.ldexp(m, j).tobytes() == ms.tobytes() for m, ms in matrices)
    if an.admissible and an.equilibria.interior_point is not None:
        final, final_scaled = _collapsed(game), _collapsed(scaled)
        if isinstance(final, str):
            assert final_scaled == final
        else:
            assert np.ldexp(final, j).tobytes() == final_scaled.tobytes()


@settings(max_examples=60, deadline=10000, derandomize=True, database=None)
@given(
    sizes=st.sampled_from(UNIT_TYPES),
    kind=st.sampled_from(["dissipative", "neutral", "integer"]),
    seed=st.integers(0, 2**32 - 1),
    magnitude=st.sampled_from([1.0, 1e2, 1e4]),
)
@example(sizes=(3, 3), kind="neutral", seed=0, magnitude=1.0)
@example(sizes=(2, 2, 2), kind="neutral", seed=1, magnitude=1e4)
def test_equal_row_blocks_change_no_verdict(sizes, kind, seed, magnitude):
    rng = np.random.default_rng(seed)
    game = seeded_game(sizes, kind, rng)
    c = random_equal_rows(game.gtype, rng)
    c *= magnitude * np.abs(game.payoff).max() / np.abs(c).max()
    an, am = Analysis(game), Analysis(PolymatrixGame(game.gtype, game.payoff + c))
    assert (am.kind, am.vstar) == (an.kind, an.vstar)


@pytest.mark.xfail(strict=True, reason="defect N: the skew test tries d = 1 only, which the scaling moves")
def test_column_scaling_keeps_the_stable_vertices():
    # 40 games each of five types, rng seed 1: V* changes in 24 of them while defect N stands
    rng = np.random.default_rng(1)
    moved = []
    for sizes in [(3, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2,) * 5]:
        for k in range(40):
            game = make_dissipative_game(GameType(sizes), rng)[0]
            c = 10.0 ** rng.uniform(-1, 1, game.gtype.p)
            scaled = PolymatrixGame(game.gtype, game.payoff * c[game.gtype.groups])
            if Analysis(scaled).vstar != Analysis(game).vstar:
                moved.append((sizes, k))
    assert moved == []


@pytest.mark.xfail(
    strict=True, reason="defect N: the skew test tries d = 1 only, so it rejects a restriction the full d makes almost skew"
)
def test_a_stable_vertex_restricts_to_a_stable_vertex_of_each_subset():
    # The sub-game on a set S of groups, payoff[idx, idx] with idx their strategies, has at the
    # vertex's choices in S, strategy idx[t] renamed t, the principal submatrix of the vertex matrix
    # on those groups, and a principal submatrix of a stably dissipative matrix is stably
    # dissipative.  Over 40 dissipative games each of five types (rng seed 1), 3260 (vertex, S)
    # pairs in 23 games fail while defect N stands, and so do 0, 768, 1134, 23552 and 144 pairs
    # of the five admissible games of rng seed 2.
    rng = np.random.default_rng(1)
    dissipative = [(3, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2,) * 5]
    games = [make_dissipative_game(GameType(sizes), rng)[0] for sizes in dissipative for _ in range(40)]
    rng = np.random.default_rng(2)
    admissible = [(3, 3, 3), (2,) * 6, (3,) * 5, (2,) * 8, (4, 3, 3, 2)]
    games += [make_admissible_game(GameType(sizes), rng)[0] for sizes in admissible]
    broken = []
    for k, game in enumerate(games):
        gt, vstar = game.gtype, Analysis(game).vstar
        for r in range(1, gt.p):
            for subset in itertools.combinations(range(gt.p), r):
                idx = [i for a in subset for i in gt.group_indices(a)]
                sub_game = PolymatrixGame(GameType(tuple(gt.sizes[a] for a in subset)), game.payoff[np.ix_(idx, idx)])
                sub = set(Analysis(sub_game).vstar)
                restricted = [(v, VertexLabel(tuple(idx.index(v.chosen[a]) for a in subset))) for v in vstar]
                broken += [(k, subset, v) for v, w in restricted if w not in sub]
    assert broken == []


TOL_LADDER = (0.0, 1e-12, 1e-9, 1e-6, 1e-3)
# The five games of tests/fixtures/tol_ladder, drawn by this recipe: rng = default_rng(7); for sizes
# in (2,2), (3,2), (3,3), (2,2,2), (3,3,3), (2,)*5, (2,)*8, (4,4), (3,)*4 and k in range(300), the
# payoff is, by k % 3, rng.integers(-5, 6, size=(n, n)), rng.uniform(-3, 3, size=(n, n)), or
# make_dissipative_game(gt, rng)[0].payoff + 0.05 * rng.standard_normal((n, n)).  Of those 2700 games
# these five are certified at 1e-6 and not at 1e-3: (2,2) k=77, (2,2,2) k=200, (2,)*8 k=14, 215, 290.
TOL_LADDER_GAMES = ["2x2_k77", "2x2x2_k200", "2x8_k14", "2x8_k215", "2x8_k290"]
ITEM_16 = "ROADMAP item 16: at 1e-3 the search forces a kernel that empties the face, so it finds no certificate"


@pytest.mark.parametrize("name", TOL_LADDER_GAMES)
def test_the_certificate_at_1e6_is_accepted_at_1e3(name):
    # so the search at 1e-3 misses a certificate its own acceptance rule takes
    game = parse_game(FIXTURES / "tol_ladder" / f"{name}.txt")
    assert check_with_scaling(game, Analysis(game, 1e-6).scaling, 1e-3).kind != INDEFINITE


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=ITEM_16)) for name in TOL_LADDER_GAMES]
)
def test_a_game_certified_at_one_tol_is_certified_at_every_larger_tol(name):
    game = parse_game(FIXTURES / "tol_ladder" / f"{name}.txt")
    certified = [Analysis(game, tol).scaling is not None for tol in TOL_LADDER]
    assert certified == sorted(certified), dict(zip(TOL_LADDER, certified))
