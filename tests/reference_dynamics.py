"""The RK4 loop on whole stage vectors: the reference the buffered kernel must match.

Kept as it was before dynamics._rk4_paths wrote every stage into
preallocated (dt/2)-scaled increments.  Each stage calls the replicator
field with its two indicator products, the step is combined from fresh
temporaries, and a run that turns non-finite is dropped from the batch
at once.  Up to rounding (1e-12), any difference in a state, a drift or
a kept count is a defect of the kernel.
"""

from __future__ import annotations

import numpy as np


def vector_field(game, x):
    """The replicator field through the (p, n) indicator, twice."""
    x = np.asarray(x, dtype=float)
    ax = x @ game.payoff.T
    ind = game.gtype.indicator()
    group_avg = (x * ax) @ ind.T  # (..., p): average payoff per group
    return x * (ax - group_avg @ ind)


def rk4_paths(game, x0, steps, dt):
    """Integrate a batch (m, n) of starts; returns (m, steps+1, n) states.

    Also returns the drift and, per run, the number of samples it kept: a
    run stops before its first non-finite state and the others go on
    without it; steps + 1 when it never had one.
    """
    gt = game.gtype
    ind = gt.indicator()
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
