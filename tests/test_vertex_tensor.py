"""The stacked vertex layer against the per-vertex reference, bit for bit.

Analysis builds every vertex matrix, zero pattern, graph (the edge and
sign arrays of graph_pattern) and stable dissipativity verdict as one
stack, from the game in its unit (games.in_unit); vertex_matrix,
vertex_graph and stably_dissipative are the stack of one, on the numbers
they are given.  Each must equal the loop version in
reference_vertex_layer in every bit, scalings included.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_vertex_layer as ref
from polyrep import stability
from polyrep.games import SEMIDEF_TOL, GameType, PolymatrixGame, in_unit
from polyrep.stability import Analysis, almost_skew_symmetric, find_almost_skew_scaling, stably_dissipative
from polyrep.vertices import (
    BLOCK,
    VertexLabel,
    VertexMatrix,
    graph_pattern,
    vertex_graph,
    vertex_matrix,
    vertex_tensor,
    zero_entries,
)

from conftest import EXAMPLE_PAYOFF, make_dissipative_game

KINDS = ("zero", "sparse", "skew", "scaled_skew", "float", "dust", "dissipative", "sum")

# Distinct non-dyadic factors: copies scaled by them share zero patterns, not values.
FACTORS = (1.0, 3 / 7, 11 / 5, 5 / 3)


def _core(n: int, rng: np.random.Generator) -> np.ndarray:
    """A seeded integer skew core minus a sparse nonnegative diagonal."""
    s = rng.integers(-3, 4, (n, n)) * (rng.random((n, n)) < 0.4)
    return (s - s.T - np.diag(rng.integers(0, 3, n) * (rng.random(n) < 0.5))).astype(float)


def _payoff(sizes: tuple[int, ...], kind: str, seed: int) -> np.ndarray:
    """A seeded payoff of one kind; one_sided, same_sign and cycle need two or three groups of size >= 2."""
    gt = GameType(sizes)
    n, rng = gt.n, np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((n, n))
    if kind in ("one_sided", "same_sign"):
        # at the first vertex, strategies i and k (each group's second) have zero
        # diagonals and are coupled by A_v[i, k] = 1 and A_v[k, i] = 0 or 2
        i, k = gt.offsets[0] + 1, gt.offsets[1] + 1
        a = np.zeros((n, n))
        a[i, k] = 1.0
        a[k, i] = 2.0 if kind == "same_sign" else 0.0
        return a
    if kind == "cycle":
        # at the first vertex, three zero-diagonal strategies whose ratios d_j / d_i
        # (1, 1 and 1 + 1e-6) disagree around their triangle
        idx = [off + 1 for off in gt.offsets[:3]]
        a = np.zeros((n, n))
        a[np.ix_(idx, idx)] = [[0, 1, 1], [-1, 0, 1], [-1, -1 - 1e-6, 0]]
        return a
    if kind == "sparse":
        return rng.integers(-2, 3, (n, n)) * (rng.random((n, n)) < 0.3).astype(float)
    if kind == "float":
        return rng.uniform(-3, 3, (n, n)) * (rng.random((n, n)) < 0.5)
    if kind == "dissipative":
        return make_dissipative_game(gt, rng)[0].payoff
    if kind == "sum":
        # the direct sum of one core per group size, each group's copy scaled by its own
        # factor and its columns by powers of another: the vertex matrices repeat zero
        # patterns with other values and other ratios
        cores = {size: _core(size, rng) for size in sorted(set(sizes))}
        a = np.zeros((n, n))
        for g, (off, size) in enumerate(zip(gt.offsets, sizes)):
            columns = FACTORS[(g + 1) % len(FACTORS)] ** np.arange(size)
            a[off : off + size, off : off + size] = FACTORS[g % len(FACTORS)] * cores[size] * columns
        return a
    core = _core(n, rng)
    if kind == "scaled_skew":
        return core / np.repeat(rng.integers(1, 5, gt.p), gt.sizes)
    if kind == "dust":
        return core + rng.uniform(-1e-12, 1e-12, (n, n))
    return core


def _report_key(rep):
    scaling = None if rep.scaling is None else (rep.scaling.dtype, rep.scaling.shape, rep.scaling.tobytes())
    return rep.stable, rep.cycle_ok, rep.skew_ok, rep.failures, scaling


def _row_key(verdicts, r):
    """_report_key of row r of the arrays (cycle_ok, skew_ok, d) of stably_dissipative_stack."""
    cycle_ok, skew_ok, d = verdicts
    cycle, skew = bool(cycle_ok[r]), bool(skew_ok[r])
    scaling = (d.dtype, d[r].shape, d[r].tobytes()) if skew else None
    return cycle and skew, cycle, skew, stability.FAILURES[cycle, skew], scaling


def _stable(verdicts):
    """Which rows of stably_dissipative_stack's arrays are stably dissipative."""
    return verdicts[0] & verdicts[1]


def _graph_key(g):
    return g.vertices, g.edges, list(g.diagonal_sign.items())


def _pattern_key(idx, edges, signs):
    """_graph_key of one vertex's graph_pattern rows, on its index set idx."""
    ends = frozenset((idx[a], idx[b]) for a, b in np.argwhere(np.triu(edges)).tolist())
    return tuple(idx), ends, list(zip(idx, signs.tolist()))


@settings(max_examples=200, deadline=5000, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([SEMIDEF_TOL, 0.0, 1e-3, 0.5]),
)
@example(sizes=(1,), kind="sparse", seed=0, tol=SEMIDEF_TOL)  # k = 0, V = 1
@example(sizes=(1, 1, 1), kind="float", seed=1, tol=SEMIDEF_TOL)
@example(sizes=(2, 3), kind="zero", seed=0, tol=SEMIDEF_TOL)
@example(sizes=(2, 2), kind="one_sided", seed=0, tol=SEMIDEF_TOL)
@example(sizes=(3, 2, 1), kind="same_sign", seed=0, tol=SEMIDEF_TOL)
@example(sizes=(2, 2, 2), kind="cycle", seed=0, tol=1e-3)
@example(sizes=(3, 3, 3, 3), kind="sum", seed=1, tol=SEMIDEF_TOL)
def test_stack_matches_the_per_vertex_reference(sizes, kind, seed, tol):
    game = PolymatrixGame(GameType(sizes), _payoff(sizes, kind, seed))
    unit, e = in_unit(game)
    an = Analysis(game, tol)
    labels, rows, t = an.tensor
    edges, signs = an.pattern
    assert [len(a) for a in an.verdicts] == [len(labels)] * 3
    for r, (v, row, entries, row_edges, row_signs) in enumerate(zip(labels, rows.tolist(), t, edges, signs)):
        # the analysis reads the game in its unit, whose matrices times 2**e are the game's own
        idx, m_unit = ref.vertex_matrix(unit, v)
        assert tuple(row) == idx and entries.tobytes() == m_unit.tobytes()
        assert _row_key(an.verdicts, r) == _report_key(ref.stably_dissipative(m_unit, tol))
        assert _pattern_key(row, row_edges, row_signs) == _graph_key(ref.vertex_graph(idx, m_unit, tol))

        idx, m = ref.vertex_matrix(game, v)
        assert np.ldexp(entries, e).tobytes() == m.tobytes()
        one = vertex_matrix(game, v)
        assert one.index_set == idx and one.entries.tobytes() == m.tobytes()
        assert _report_key(stably_dissipative(m, tol)) == _report_key(ref.stably_dissipative(m, tol))
        assert _graph_key(vertex_graph(one, tol)) == _graph_key(ref.vertex_graph(idx, m, tol))

        zero = ref.zero_entries(m, tol)
        scaling = ref._almost_skew_scaling(m, zero, tol)
        got = find_almost_skew_scaling(m, tol)
        assert (got is None) == (scaling is None)
        assert got is None or got.tobytes() == scaling.tobytes()
        assert almost_skew_symmetric(m, tol) == ref._almost_skew(m, np.diagonal(zero), tol)


@pytest.mark.parametrize(
    "sizes, kind, tol",
    [((2, 2), "one_sided", SEMIDEF_TOL), ((3, 2, 1), "same_sign", SEMIDEF_TOL), ((2, 2, 2), "cycle", 1e-3)],
)
def test_examples_reach_the_constraint_checks(sizes, kind, tol):
    # the first vertex has no scaling, and d = 1 fails the verification only
    # where the constraint check is not the one to reject it
    game = PolymatrixGame(GameType(sizes), _payoff(sizes, kind, 0))
    an = Analysis(game, tol)
    assert not an.verdicts[1][0]
    m = an.tensor[2][0]
    assert ref._almost_skew(m, np.diagonal(ref.zero_entries(m, tol)), tol) == (kind == "cycle")


def test_singletons_have_one_empty_vertex():
    labels, ii, t = vertex_tensor(PolymatrixGame(GameType((1, 1, 1)), np.ones((3, 3))))
    assert len(labels) == 1 and ii.shape == (1, 0) and t.shape == (1, 0, 0)
    rep = stably_dissipative(t[0])
    assert rep.stable and rep.scaling.shape == (0,)


def test_blocks_span_more_than_one_block():
    # four copies of the worked example: V = 6^4 = 1296 vertices in six blocks, 256 of them stable
    game = PolymatrixGame(GameType((3, 2) * 4), np.kron(np.eye(4), EXAMPLE_PAYOFF))
    labels, ii, t = vertex_tensor(game)
    assert len(labels) > 5 * BLOCK
    verdicts = stability.stably_dissipative_stack(t, zero_entries(t, SEMIDEF_TOL), SEMIDEF_TOL)
    edges, signs = graph_pattern(t, zero_entries(t, SEMIDEF_TOL))
    for r, (v, row, row_edges, row_signs, m) in enumerate(zip(labels, ii.tolist(), edges, signs, t)):
        idx, expected = ref.vertex_matrix(game, v)
        assert m.tobytes() == expected.tobytes()
        assert _row_key(verdicts, r) == _report_key(ref.stably_dissipative(expected))
        assert _pattern_key(row, row_edges, row_signs) == _graph_key(ref.vertex_graph(idx, expected))
    assert _stable(verdicts).sum() == 4**4


def test_reports_allocate_less_than_the_stack():
    # the per-pair arrays of the decision are bounded per block of rows, not per stack
    an = Analysis(make_dissipative_game(GameType((4,) * 6), np.random.default_rng(0))[0])
    stack = an.tensor[2].nbytes
    tracemalloc.start()
    try:
        an.verdicts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * stack


def _assert_matches_the_reference(t, tol):
    verdicts = stability.stably_dissipative_stack(t, zero_entries(t, tol), tol)
    for r, m in enumerate(t):
        assert _row_key(verdicts, r) == _report_key(ref.stably_dissipative(m, tol))
    return verdicts


def _shared_patterns(t, tol):
    """The number of distinct (zero pattern, damped set) keys of a stack."""
    zero = zero_entries(t, tol)
    damped = (np.diagonal(t, axis1=1, axis2=2) < 0) & ~np.diagonal(zero, axis1=1, axis2=2)
    return len({(z.tobytes(), d.tobytes()) for z, d in zip(zero, damped)})


def _scaled_copies(copies):
    """Copies of the example scaled by distinct non-dyadic factors, their columns by non-dyadic group factors."""
    payoff = np.zeros((5 * copies, 5 * copies))
    for c, f in enumerate(FACTORS[:copies]):
        payoff[5 * c : 5 * c + 5, 5 * c : 5 * c + 5] = f * EXAMPLE_PAYOFF
    columns = np.repeat([1.0, 5 / 3, 2 / 9, 7 / 11, 13 / 3, 3 / 5, 17 / 7, 9 / 13][: 2 * copies], (3, 2) * copies)
    _, _, t = vertex_tensor(PolymatrixGame(GameType((3, 2) * copies), payoff * columns))
    assert _shared_patterns(t, SEMIDEF_TOL) == 2**copies
    verdicts = _assert_matches_the_reference(t, SEMIDEF_TOL)
    assert _stable(verdicts).sum() == 4**copies
    return verdicts


def test_scaled_copies_match_the_reference():
    # 216 vertices in 8 zero patterns, each holding other values
    _, skew_ok, d = _scaled_copies(3)
    assert len({row.tobytes() for row in d[skew_ok]}) > 1


def test_scaled_copies_across_blocks_match_the_reference():
    # 1296 vertices in 16 zero patterns, in six blocks of rows: each block reads its own rows
    assert len(_scaled_copies(4)[0]) > 5 * BLOCK


def _hub(a, b, c, e):
    """Strategies 0 and 2 with zero diagonals, coupled to a damped strategy 1 by a, b and c, e."""
    return [[0.0, a, 0.0], [b, -1.0, c], [0.0, e, 0.0]]


def test_one_pattern_with_passing_and_failing_ratios():
    # one zero pattern and damped set; the ratios -b/a and -e/c decide each row
    t = np.array(
        [
            _hub(1, -1, 2, -2),  # ratios 1 and 1
            _hub(3 / 7, -11 / 5, 1 / 3, -5 / 9),  # non-dyadic ratios, d = (1, 77/15, ...)
            _hub(1, 1, 2, -2),  # equal signs: no d > 0
            _hub(1e200, -1e-200, 1, -1),  # the ratio 1e-400 underflows to 0
            _hub(3, -7, -1, 2),
            _hub(-4, 2, 2, -3),
        ]
    )
    assert _shared_patterns(t, 0.0) == 1
    verdicts = _assert_matches_the_reference(t, 0.0)
    assert _stable(verdicts).tolist() == [True, True, False, False, True, True]
    assert len({row.tobytes() for row in verdicts[2][_stable(verdicts)]}) == 4


def test_a_scaling_that_underflows_along_the_forest_is_refused():
    # each ratio d_j / d_i = 1e-200 is in range, but their product along the path 0-1-2
    # underflows to 0, and a d with a zero entry is not positive (the reference accepts it)
    m = np.array([[0.0, 1.0, 0.0], [-1e-200, 0.0, 1.0], [0.0, -1e-200, 0.0]])
    rep = stably_dissipative(m, 0.0)
    assert rep.cycle_ok and not rep.skew_ok and rep.scaling is None


@pytest.mark.parametrize("tol", [0.0, SEMIDEF_TOL, 1e-3])
def test_non_finite_rows_leave_their_group_alone(tol):
    # finite rows of one pattern, and copies of them holding an inf, a -inf or a NaN; the
    # per-vertex reference is undefined on the non-finite rows (it divides by 0 or hands
    # LAPACK a NaN), so those are checked against the stack of one, and no d > 0 holds them
    finite = np.array([_hub(1, -1, 2, -2), _hub(3 / 7, -11 / 5, 1 / 3, -5 / 9), _hub(3, -7, -1, 2)])
    broken = []
    for x in (np.inf, -np.inf, np.nan):
        for at in ((0, 1), (1, 1), (2, 0)):
            m = finite[len(broken) % len(finite)].copy()
            m[at] = x
            broken.append(m)
    t = np.concatenate([finite, np.array(broken), finite[::-1]])
    verdicts = stability.stably_dissipative_stack(t, zero_entries(t, tol), tol)
    for r, m in enumerate(t):
        if np.isfinite(m).all():
            assert _row_key(verdicts, r) == _report_key(ref.stably_dissipative(m, tol))
        else:
            assert not verdicts[1][r] and _row_key(verdicts, r)[-1] is None
            assert _row_key(verdicts, r) == _report_key(stably_dissipative(m, tol))


def test_a_nan_diagonal_is_not_damped():
    # graph_pattern is the one sign rule, so its damped set (-1) is the stability test's:
    # negative diagonals only, not a NaN one
    t = np.array([[[np.nan, 1.0], [-1.0, -2.0]]])
    zero = zero_entries(t, 0.0)
    assert graph_pattern(t, zero)[1].tolist() == [[1, -1]]
    assert vertex_graph(VertexMatrix(VertexLabel(()), (0, 1), t[0]), 0.0).diagonal_sign == {0: 1, 1: -1}


def test_symmetric_part_past_the_float_range_is_not_almost_skew():
    # finite entries whose symmetric part overflows: no eigenvalues to check, so no scaling
    m = np.array([[-1e308, 1e308], [1e308, -1e308]])
    rep = stably_dissipative(m)
    assert (rep.cycle_ok, rep.skew_ok, rep.scaling) == (True, False, None)
    assert find_almost_skew_scaling(m) is None


@pytest.mark.parametrize(
    "m",
    [[[np.inf, 1.0], [-1.0, -1.0]], [[-np.inf, 1.0], [-1.0, -1.0]], [[-1.0, 1.5e308], [1.5e308, -1.0]]],
    ids=["inf", "-inf", "overflow"],
)
def test_non_finite_input_is_not_almost_skew(m):
    # an infinite entry, or a symmetric part past the float range, has no eigenvalues to
    # check: almost_skew_symmetric fails it without a warning, as the stack does
    m = np.array(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not almost_skew_symmetric(m)
        assert not almost_skew_symmetric(m, 0.0)
        assert not stably_dissipative(m).skew_ok
