"""The buffered RK4 kernel against the reference loops.

dynamics._rk4_paths writes (dt/2)-scaled increments into preallocated
strategy-major (n, m) buffers, one column per start, so each stage
product is one (n, n) x (n, m) BLAS call; it keeps a time-major history
written by one transposing copy per step, and finds aborted runs after
the loop.  reference_dynamics keeps the whole-vector loop on (m, n)
rows that it replaced.  On every batch both must keep the same samples
per run, and the states and drifts must agree to 1e-12, not bitwise,
since the products sum in an order that depends on the operand layout.
Against reference_dynamics.buffered_rk4_paths, the same strategy-major
arithmetic with a run-major history and the drift made every step, they
must agree bit for bit, and so must a run restarted from one of its own
states.  A single start must also agree bit for bit with
reference_dynamics.row_rk4_path, the same loop on a (1, n) row: the
kernel's Fortran-ordered operands make numpy call the same gemv, so a
single start's output does not depend on the layout.  Each increment is
checked against vector_field on the transposed stage, g.T against
(dt/2) f(y.T).

The payoffs stay within |a_ij| <= 5, so dt * |A| <= 0.5 even at
dt = 0.1: inside RK4's stability region.  Far outside it (dt * |A| near
3) the discrete map amplifies rounding exponentially, and even the
reference's batch and single-start runs of one start part by O(1).
"""

from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_dynamics as ref
from polyrep import dynamics
from polyrep.games import GameType, PolymatrixGame, random_prism_state, vector_field

PAYOFF_BOUND = 5
BAD_ROWS = ("none", "zero_group", "nan_payoff")


def _start(gt: GameType, rng: np.random.Generator, face: bool) -> np.ndarray:
    """An interior start, or one with zeros in every group but a kept coordinate."""
    x = random_prism_state(gt, rng)
    if face:
        for a in range(gt.p):
            idx = np.array(gt.group_indices(a))
            zeros = idx[rng.random(len(idx)) < 0.5]
            if len(zeros) < len(idx):
                x[zeros] = 0.0
                x[idx] /= np.sum(x[idx])
    return x


def _batch(sizes, integer, faces, bad, seed):
    rng = np.random.default_rng(seed)
    gt = GameType(sizes)
    if integer:
        payoff = rng.integers(-PAYOFF_BOUND, PAYOFF_BOUND + 1, (gt.n, gt.n)).astype(float)
    else:
        payoff = rng.uniform(-PAYOFF_BOUND, PAYOFF_BOUND, (gt.n, gt.n))
    starts = [_start(gt, rng, face) for face in faces]
    if bad == "zero_group":
        row, group = _start(gt, rng, False), gt.group_indices(int(rng.integers(gt.p)))
        row[group.start : group.stop] = 0.0  # its first step divides 0 by 0
        starts.insert(int(rng.integers(len(starts) + 1)), row)
    elif bad == "nan_payoff":
        payoff[tuple(rng.integers(gt.n, size=2))] = np.nan
    return PolymatrixGame(gt, payoff), np.array(starts)


def _checked_increment(game, dt, seen):
    """_half_increment, asserting each increment is (dt/2) vector_field to rounding."""
    half_increment = dynamics._half_increment

    def check(y, half_a, same, ay, avg, g):
        half_increment(y, half_a, same, ay, avg, g)
        npt.assert_allclose(g.T, 0.5 * dt * vector_field(game, y.T), rtol=0, atol=1e-13 * dt * PAYOFF_BOUND)
        seen.append(1)

    return check


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
    integer=st.booleans(),
    faces=st.lists(st.booleans(), min_size=1, max_size=3),
    bad=st.sampled_from(BAD_ROWS),
    dt=st.sampled_from([0.001, 0.01, 0.1]),
    steps=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=(3, 2), integer=True, faces=[False, True], bad="zero_group", dt=0.01, steps=100, seed=0)
@example(sizes=(2,), integer=False, faces=[False], bad="nan_payoff", dt=0.1, steps=3, seed=0)
@example(sizes=(1,), integer=True, faces=[True], bad="none", dt=0.1, steps=1, seed=0)
@example(sizes=(2, 2), integer=True, faces=[False], bad="zero_group", dt=0.01, steps=0, seed=0)
def test_kernel_matches_the_reference(sizes, integer, faces, bad, dt, steps, seed):
    game, x0 = _batch(sizes, integer, faces, bad, seed)
    seen = []
    with mock.patch.object(dynamics, "_half_increment", _checked_increment(game, dt, seen)):
        states, drift, kept = dynamics._rk4_paths(game, x0, steps, dt)
    assert len(seen) == 4 * steps
    ref_states, ref_drift, ref_kept = ref.rk4_paths(game, x0, steps, dt)
    npt.assert_array_equal(kept, ref_kept)
    assert states.shape == ref_states.shape and drift.shape == ref_drift.shape
    for i, k in enumerate(kept):
        npt.assert_array_equal(states[i, 0], x0[i])
        npt.assert_allclose(states[i, :k], ref_states[i, :k], rtol=0, atol=1e-12)
        npt.assert_allclose(drift[i, :k], ref_drift[i, :k], rtol=0, atol=1e-12)
        assert np.all(drift[i, :k] >= 0.0)
        assert np.all(states[i, :k][:, x0[i] == 0.0] == 0.0)
    if bad == "zero_group":
        assert min(kept) == 1
    if bad == "nan_payoff":
        npt.assert_array_equal(kept, 1)  # a NaN payoff reaches every row in the first step


def test_clipped_steps_match_the_reference():
    # dt * |A| = 10, far outside the stability region: the steps overshoot
    # the boundary and the clip fires, which the draws above never reach
    c = 100.0
    game = PolymatrixGame(GameType((2, 2)), c * np.array([[0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0]]))
    x0 = np.array([[0.9, 0.1, 0.2, 0.8], [0.5, 0.5, 0.5, 0.5], [0.99, 0.01, 0.3, 0.7]])
    states, drift, kept = dynamics._rk4_paths(game, x0, 5, 0.1)
    ref_states, ref_drift, ref_kept = ref.rk4_paths(game, x0, 5, 0.1)
    npt.assert_array_equal(kept, ref_kept)
    npt.assert_allclose(states, ref_states, rtol=0, atol=1e-12)
    npt.assert_allclose(drift, ref_drift, rtol=1e-12)
    assert np.max(drift) > 1.0 and np.any(states[:, 1:] == 0.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
    integer=st.booleans(),
    faces=st.lists(st.booleans(), min_size=1, max_size=3),
    bad=st.sampled_from(BAD_ROWS),
    dt=st.sampled_from([0.001, 0.01, 0.1]),
    steps=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=(3, 2), integer=True, faces=[False, True], bad="zero_group", dt=0.01, steps=100, seed=0)
@example(sizes=(2,), integer=False, faces=[False], bad="nan_payoff", dt=0.1, steps=3, seed=0)
@example(sizes=(1,), integer=True, faces=[True], bad="none", dt=0.1, steps=1, seed=0)
@example(sizes=(2, 2), integer=True, faces=[False], bad="zero_group", dt=0.01, steps=0, seed=0)
def test_kernel_is_the_buffered_loop_bit_for_bit(sizes, integer, faces, bad, dt, steps, seed):
    game, x0 = _batch(sizes, integer, faces, bad, seed)
    states, drift, kept = dynamics._rk4_paths(game, x0, steps, dt)
    ref_states, ref_drift, ref_kept = ref.buffered_rk4_paths(game, x0, steps, dt)
    npt.assert_array_equal(kept, ref_kept)
    npt.assert_array_equal(states, ref_states)
    npt.assert_array_equal(drift, ref_drift)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=5).map(tuple),
    integer=st.booleans(),
    face=st.booleans(),
    bad=st.sampled_from(BAD_ROWS),
    dt=st.sampled_from([0.001, 0.01, 0.1]),
    steps=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=(3, 2), integer=True, face=False, bad="none", dt=0.01, steps=100, seed=0)
def test_a_single_start_is_the_row_loop_bit_for_bit(sizes, integer, face, bad, dt, steps, seed):
    # strategy-major on one start makes the gemv calls of a (1, n) row
    game, x0 = _batch(sizes, integer, [face], bad, seed)
    states, drift, _ = dynamics._rk4_paths(game, x0[:1], steps, dt)
    ref_states, ref_drift = ref.row_rk4_path(game, x0[0], steps, dt)
    npt.assert_array_equal(states[0], ref_states)
    npt.assert_array_equal(drift[0], ref_drift)


RESTART_SIZES = (2,) * 16  # 16 groups keep the block of a single start at 4096 steps


@pytest.mark.parametrize("m, abort", [(1, False), (3, False), (3, True), (1000, True)])
def test_restart_is_bit_for_bit(m, abort):
    # RK4 has no memory: a steps run is an a-step run, then a b-step run
    # from its last state, for splits on either side of a drift block's end
    gt = GameType(RESTART_SIZES)
    game, x0 = _batch(RESTART_SIZES, False, [False] * (m - abort), "zero_group" if abort else "none", m)
    block = dynamics._DRIFT_BLOCK // (m * gt.p)
    lengths = [0, 1, block - 1, block, block + 1]
    for a, b in zip(lengths, lengths[2:] + lengths[:2]):
        states, drift, kept = dynamics._rk4_paths(game, x0, a + b, 0.01)
        head_states, head_drift, head_kept = dynamics._rk4_paths(game, x0, a, 0.01)
        tail_states, tail_drift, tail_kept = dynamics._rk4_paths(game, head_states[:, a], b, 0.01)
        npt.assert_array_equal(states, np.concatenate([head_states, tail_states[:, 1:]], axis=1))
        npt.assert_array_equal(drift, np.concatenate([head_drift, tail_drift[:, 1:]], axis=1))
        npt.assert_array_equal(kept, np.where(head_kept <= a, head_kept, a + tail_kept))
        assert (kept.min() == 1) == (abort or a + b == 0)  # the zero-group row aborts at its first step
