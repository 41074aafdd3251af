"""Three reference RK4 loops the kernel in dynamics._rk4_paths must match.

rk4_paths is the loop on whole stage vectors, as it was before the
kernel wrote every stage into preallocated (dt/2)-scaled increments.
Each stage calls the replicator field with its two indicator products,
the step is combined from fresh temporaries, and a run that turns
non-finite is dropped from the batch at once.  Up to rounding (1e-12),
any difference in a state, a drift or a kept count is a defect of the
kernel.

buffered_rk4_paths is the buffered loop as it was before the kernel kept
its history time-major and computed the drift once per block of steps,
with the kernel's strategy-major (n, m) stage buffers and its
Fortran-ordered BLAS operands.  It makes the same floating-point
operations on the same operands, so the kernel must match it bit for
bit.

row_rk4_path is that loop for one start held as a (1, n) row, with the
C-contiguous (dt/2) A^T, ind^T ind, ind^T and ind whose memory the
kernel's Fortran-ordered operands share.  numpy makes each of its
products the same gemv call as the kernel's on an (n, 1) column, so a
single start must match it bit for bit.
"""

from __future__ import annotations

import numpy as np


def vector_field(game, x):
    """The replicator field through the (p, n) indicator, twice."""
    x = np.asarray(x, dtype=float)
    ax = x @ game.payoff.T
    ind = game.gtype.indicator
    group_avg = (x * ax) @ ind.T  # (..., p): average payoff per group
    return x * (ax - group_avg @ ind)


def rk4_paths(game, x0, steps, dt):
    """Integrate a batch (m, n) of starts; returns (m, steps+1, n) states.

    Also returns the drift and, per run, the number of samples it kept: a
    run stops before its first non-finite state and the others go on
    without it; steps + 1 when it never had one.
    """
    gt = game.gtype
    ind = gt.indicator
    x = np.array(x0, dtype=float)
    out = np.empty((x.shape[0], steps + 1, gt.n))
    drift = np.zeros((x.shape[0], steps + 1))
    kept = np.full(x.shape[0], steps + 1)
    rows = slice(None)  # the runs still going: all of them until one aborts
    out[:, 0] = x
    # a run that goes non-finite is reported through kept, not as a warning
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for k in range(1, steps + 1):
            k1 = vector_field(game, x)
            k2 = vector_field(game, x + 0.5 * dt * k1)
            k3 = vector_field(game, x + 0.5 * dt * k2)
            k4 = vector_field(game, x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            np.clip(x, 0.0, None, out=x)
            sums = x @ ind.T  # (m, p)
            drift[rows, k] = np.max(np.abs(sums - 1.0), axis=1)
            x = x / (sums @ ind)
            if not np.all(np.isfinite(x)):
                finite = np.all(np.isfinite(x), axis=1)
                live = np.arange(len(kept))[rows]
                kept[live[~finite]] = k  # drop the bad step
                rows, x = live[finite], x[finite]
                if not rows.size:
                    break
            out[rows, k] = x
    return out, drift, kept


def _half_increment(y, half_a, same, ay, avg, g):
    """g = (dt/2) f(y) for half_a = (dt/2) A, in five calls into the strategy-major (n, m) buffers ay, avg, g."""
    np.dot(half_a, y, out=ay)
    np.multiply(y, ay, out=g)
    np.dot(same, g, out=avg)
    np.subtract(ay, avg, out=ay)
    np.multiply(y, ay, out=g)


# x + 2 G3 as the kernel forms it, one product over x, G1, G2, G3
_STAGE4_WEIGHTS = np.array([1.0, 0.0, 0.0, 2.0])

# x_{k+1} = x + (G1 + 2 G2 + 2 G3 + G4) / 3 for the (dt/2)-scaled increments
_RK4_WEIGHTS = np.array([1.0, 1 / 3, 2 / 3, 2 / 3, 1 / 3])


def buffered_rk4_paths(game, x0, steps, dt):
    """Integrate a batch (m, n) of starts; returns (m, steps+1, n) states, run-major.

    Also returns the drift, its subtract, abs and max made every step,
    and per run the number of samples it kept, read off the stored
    samples of the runs whose last state is not finite.  The stage
    buffers are strategy-major, (n, m), as the kernel's.
    """
    gt = game.gtype
    ind = gt.indicator
    # Fortran-ordered operands, as the kernel's: another memory order moves the last bits
    half_a = np.asfortranarray(0.5 * dt * game.payoff)
    same = np.asfortranarray(ind.T @ ind)
    ind_f = np.asfortranarray(ind)
    m = x0.shape[0]
    out = np.empty((m, steps + 1, gt.n))
    drift = np.zeros((m, steps + 1))
    stack = np.empty((5, gt.n, m))
    x, g1, g2, g3, g4 = stack
    y, ay, avg = np.empty((3, gt.n, m))
    stages, y_flat = stack.reshape(5, -1), y.reshape(-1)
    sums, dev = np.empty((2, gt.p, m))
    x[:] = x0.T
    out[:, 0] = x0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for k in range(1, steps + 1):
            _half_increment(x, half_a, same, ay, avg, g1)
            np.add(x, g1, out=y)
            _half_increment(y, half_a, same, ay, avg, g2)
            np.add(x, g2, out=y)
            _half_increment(y, half_a, same, ay, avg, g3)
            np.add(g3, g3, out=y)
            np.add(x, y, out=y)
            _half_increment(y, half_a, same, ay, avg, g4)
            np.dot(_RK4_WEIGHTS, stages, out=y_flat)
            np.maximum(y, 0.0, out=y)
            np.dot(ind_f, y, out=sums)
            np.subtract(sums, 1.0, out=dev)
            np.abs(dev, out=dev)
            np.maximum.reduce(dev, axis=0, out=drift[:, k])
            np.dot(ind.T, sums, out=ay)
            np.divide(y, ay, out=x)
            out[:, k] = x.T
    kept = np.full(m, steps + 1)
    if steps:
        for i in np.flatnonzero(~np.isfinite(x).all(axis=0)):
            kept[i] = 1 + np.argmin(np.isfinite(out[i, 1:]).all(axis=1))
    return out, drift, kept


def row_rk4_path(game, x0, steps, dt):
    """Integrate one start (n,) held as a (1, n) row; returns (steps+1, n) states and the drift."""
    gt = game.gtype
    ind = gt.indicator
    same = ind.T @ ind
    half_at = np.ascontiguousarray(0.5 * dt * game.payoff.T)
    ind_t = np.ascontiguousarray(ind.T)

    def increment(y):
        ay = np.dot(y, half_at)
        return y * (ay - np.dot(y * ay, same))

    states = np.empty((steps + 1, gt.n))
    drift = np.zeros(steps + 1)
    states[0] = x0
    x = states[:1].copy()
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for k in range(1, steps + 1):
            g1 = increment(x)
            g2 = increment(x + g1)
            g3 = increment(x + g2)
            g4 = increment(np.dot(_STAGE4_WEIGHTS, np.concatenate([x, g1, g2, g3]))[None, :])
            y = np.dot(_RK4_WEIGHTS, np.concatenate([x, g1, g2, g3, g4]))[None, :]
            np.maximum(y, 0.0, out=y)
            sums = np.dot(y, ind_t)
            drift[k] = np.max(np.abs(sums - 1.0))
            x = y / np.dot(sums, ind)
            states[k] = x[0]
    return states, drift
