"""Flow integration, monitored quantities, and the Lotka-Volterra bridge.

Integration is classical fixed-step fourth-order Runge-Kutta; after every
step each group is clipped at zero and renormalized to unit sum, and the
size of that correction is recorded.  Faces of the prism are invariant
exactly: a coordinate that starts at zero stays at zero.

Monitored quantities: the Lyapunov function -sum q_i/d_i log x_i of a
dissipative certificate, the log-ratio first integrals coming from the
kernel of a transposed vertex matrix, and frequency ratios of same-group
strategy pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import MAX_PAYOFF, DiagonalScaling, GameType, PolymatrixGame, _nullspace, vector_field
from .vertices import VertexLabel, expand_vertex_vector, vertex_matrix

# Log-based monitors are meaningless this close to the boundary.
LOG_FLOOR = 1e-300

# Most RK4 steps one integration takes: every step keeps a state row per start.
MAX_STEPS = 10**7
# Most state entries one integration keeps, (steps + 1) * starts * n doubles: 1 GiB.
MAX_HISTORY = 2**27


@dataclass(eq=False)
class Trajectory:
    """Time grid, state history, and per-step renormalization drift.

    ``ok`` is False when integration aborted on a non-finite state; the
    arrays then hold the partial run.
    """

    times: np.ndarray
    states: np.ndarray  # (len(times), n)
    renorm_drift: np.ndarray  # (len(times),), max group-sum correction per step
    ok: bool = True

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _half_increment(y, half_at, same, ay, avg, g, dot=np.dot, multiply=np.multiply, subtract=np.subtract):
    """g = (dt/2) f(y) for half_at = (dt/2) A^T, in five calls into the buffers ay, avg, g.

    The rule of vector_field, payoffs less group averages through
    same = ind^T ind, with the payoff scaled beforehand.  The
    dispatchers are bound defaults and out is passed positionally: on a
    single start the arrays are tiny and numpy's per-call overhead is
    most of the step, so lookups and keywords are a visible share.
    """
    dot(y, half_at, ay)
    multiply(y, ay, g)
    dot(g, same, avg)
    subtract(ay, avg, ay)
    multiply(y, ay, g)


# x + 2 G3, the fourth stage's input, as one product over x, G1, G2, G3: for
# finite values the zero weights add exact zeros and 2 G3 is exact, so it is
# x + (G3 + G3) bit for bit.
_STAGE4_WEIGHTS = np.array([1.0, 0.0, 0.0, 2.0])

# x_{k+1} = x + (G1 + 2 G2 + 2 G3 + G4) / 3 for the (dt/2)-scaled increments
_RK4_WEIGHTS = np.array([1.0, 1 / 3, 2 / 3, 2 / 3, 1 / 3])

# Doubles in the buffer of group sums that the drift of one block of steps
# is computed from when the block ends: 0.5 MB whatever the batch.
_DRIFT_BLOCK = 2**16


def _rk4_paths(
    game: PolymatrixGame, x0: np.ndarray, steps: int, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate a batch (m, n) of starts; returns (m, steps+1, n) states.

    Also returns the (m, steps+1) drift and, per run, the number of
    samples it kept: the samples before its first non-finite state,
    steps + 1 when it never had one, and at least 1, since the start is
    always sample 0.  ValueError when x0 is not (m, n), or when the
    history would hold more than MAX_HISTORY state entries.

    Classical RK4 on the increments G = (dt/2) f: a stage is five calls
    into buffers allocated once per call, and x, G1..G4 share one
    (5, m, n) buffer.  So the fourth stage's input x + 2 G3 is one
    product of (1, 0, 0, 2) with the first four rows, which never reads
    the stale G4, and the step is one weighted sum over all five.  After
    it each group is clipped at zero and renormalized.  The numpy
    dispatchers are bound once per call and take out positionally
    (np.maximum by keyword, where a positional out is deprecated), and
    BLAS gets C-contiguous copies of (dt/2) A^T and ind^T rather than
    transposed views.  The history is kept time-major, in (steps+1, m, n)
    and (steps+1, m) buffers, so a step writes one contiguous block; the
    returned arrays are their transposed views.  A single start's states
    are therefore contiguous, and a batch run's states are a strided
    view of the shared buffer.  Each step leaves its group sums in one
    row of a block buffer of _DRIFT_BLOCK doubles, and the drift, the
    largest |sum - 1| of each state, is computed for the whole block
    when it ends.

    The loop makes no finiteness check: a non-finite state holds a NaN
    after the renormalization (0/0 or inf/inf), the next payoff product
    carries it to every coordinate of the row, and it stays there.  So
    each run aborts on its own, and `kept` is read off the stored
    samples of the runs whose last state is not finite.  A batch in
    which every run aborts therefore still runs all its steps.

    Batches and single starts agree to rounding, not bitwise: the BLAS
    products sum in an order that depends on the batch shape.
    """
    gt = game.gtype
    if x0.ndim != 2 or x0.shape[1] != gt.n:
        raise ValueError(f"starts must be an array of shape (m, {gt.n}), got {x0.shape}")
    m = x0.shape[0]
    entries = (steps + 1) * m * gt.n
    if entries > MAX_HISTORY:
        raise ValueError(
            f"the integration would keep {entries} state entries, more than the {MAX_HISTORY} it may hold; "
            "take fewer steps or starts"
        )
    ind = gt.indicator()
    same = ind.T @ ind  # 1 where two strategies share a group
    half_at = np.ascontiguousarray(0.5 * dt * game.payoff.T)
    ind_t = np.ascontiguousarray(ind.T)
    out = np.empty((steps + 1, m, gt.n))
    drift = np.zeros((steps + 1, m))
    stack = np.empty((5, m, gt.n))
    x, g1, g2, g3, g4 = stack
    y, ay, avg = np.empty((3, m, gt.n))
    stages, y_flat = stack.reshape(5, -1), y.reshape(-1)
    head = stages[:4]
    block = np.empty((max(1, min(steps, _DRIFT_BLOCK // max(1, m * gt.p))), m, gt.p))
    x[:] = x0
    out[0] = x
    half, dot, add, maximum, divide = _half_increment, np.dot, np.add, np.maximum, np.divide
    w4, w = _STAGE4_WEIGHTS, _RK4_WEIGHTS
    # a run that goes non-finite is reported through kept, not as a warning
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for first in range(1, steps + 1, len(block)):
            sums_block = block[: steps + 1 - first]
            for k, sums in enumerate(sums_block, first):
                half(x, half_at, same, ay, avg, g1)
                add(x, g1, y)
                half(y, half_at, same, ay, avg, g2)
                add(x, g2, y)
                half(y, half_at, same, ay, avg, g3)
                dot(w4, head, y_flat)
                half(y, half_at, same, ay, avg, g4)
                dot(w, stages, y_flat)
                maximum(y, 0.0, out=y)
                dot(y, ind_t, sums)
                dot(sums, ind, ay)
                divide(y, ay, x)
                out[k] = x
            np.subtract(sums_block, 1.0, out=sums_block)
            np.abs(sums_block, out=sums_block)
            np.maximum.reduce(sums_block, axis=2, out=drift[first : first + len(sums_block)])
    kept = np.full(m, steps + 1)
    if steps:
        for i in np.flatnonzero(~np.isfinite(x).all(axis=1)):
            kept[i] = 1 + np.argmin(np.isfinite(out[1:, i]).all(axis=1))
    return out.transpose(1, 0, 2), drift.T, kept


def _trajectory(
    states: np.ndarray, drift: np.ndarray, kept: int, dt: float, times: np.ndarray | None = None
) -> Trajectory:
    """The first `kept` samples of one run; `times` is a grid of at least that many, else dt * arange(kept)."""
    times = dt * np.arange(kept) if times is None else times[:kept]
    return Trajectory(times, states[:kept], drift[:kept], bool(kept == len(states)))


def step_count(T: float, dt: float) -> int:
    """The RK4 steps for duration T, round(T / dt).

    ValueError unless T is a finite number >= 0, dt a finite number > 0,
    and T / dt at most MAX_STEPS.
    """
    if T < 0 or not 0.0 < dt < np.inf:  # a NaN or infinite T fails the count below
        raise ValueError(f"expected T >= 0 and a finite dt > 0, got T = {T!r}, dt = {dt!r}")
    steps = T / dt
    if not steps <= MAX_STEPS:
        raise ValueError(f"T / dt = {steps:g} steps is not a finite count of at most {MAX_STEPS:g}")
    return int(round(steps))


def integrate(game: PolymatrixGame, x0: np.ndarray, T: float, dt: float = 0.01) -> Trajectory:
    """Integrate the replicator flow from one start for duration T."""
    states, drift, kept = _rk4_paths(game, np.asarray(x0, dtype=float)[None, :], step_count(T, dt), dt)
    return _trajectory(states[0], drift[0], kept[0], dt)


def integrate_batch(
    game: PolymatrixGame, x0: np.ndarray, T: float, dt: float = 0.01
) -> list[Trajectory]:
    """Integrate several starts at once (rows of x0); each run aborts on its own.

    The runs' states are strided views of one (steps+1, m, n) buffer, and
    their times are slices of one read-only grid.
    """
    steps = step_count(T, dt)
    states, drift, kept = _rk4_paths(game, np.asarray(x0, dtype=float), steps, dt)
    times = dt * np.arange(steps + 1)
    times.flags.writeable = False
    return [_trajectory(states[i], drift[i], kept[i], dt, times) for i in range(len(kept))]


def lyapunov_h(
    game: PolymatrixGame, q: np.ndarray, d: DiagonalScaling, x: np.ndarray
) -> float | np.ndarray:
    """-sum_i q_i/d_i log x_i; rejects states touching the boundary.

    Nonincreasing along trajectories of a certified dissipative pair
    (q, d); constant when the certificate is conservative.  Accepts
    batches shaped (..., n).
    """
    x = np.asarray(x, dtype=float)
    if np.min(x) <= 0:
        raise ValueError("the Lyapunov function is undefined off the open interior")
    w = np.asarray(q, dtype=float) / d.expand(game.gtype)
    val = -np.log(x) @ w
    return float(val) if val.ndim == 0 else val


def h_derivative(
    game: PolymatrixGame, q: np.ndarray, d: DiagonalScaling, x: np.ndarray
) -> float:
    """Flow derivative of the Lyapunov function: (x-q)^T D^-1 A (x-q)."""
    w = np.asarray(x, dtype=float) - np.asarray(q, dtype=float)
    dv = d.expand(game.gtype)
    return float((w / dv) @ game.payoff @ w)


@dataclass(frozen=True, eq=False)
class FirstIntegral:
    """A log-ratio quantity conserved by the flow.

    Built from a kernel vector b of the transposed vertex matrix:
    evaluates sum_i b_i log(x_i / x_partner(i)) over the vertex index
    set, stored in expanded form as coefficients on all n coordinates.
    """

    vertex: VertexLabel
    kernel_vector: np.ndarray
    coefficients: np.ndarray  # length n; group sums are zero

    def __call__(self, x: np.ndarray) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.min(x) < LOG_FLOOR:
            raise ValueError("state too close to the boundary for log monitors")
        val = np.log(x) @ self.coefficients
        return float(val) if val.ndim == 0 else val


def first_integrals(game: PolymatrixGame, v: VertexLabel) -> list[FirstIntegral]:
    """A basis of log-ratio first integrals read off Ker(A_v^T).

    Empty when the vertex matrix has full rank (no foliation directions).
    """
    vm = vertex_matrix(game, v)
    if vm.dim == 0:
        return []
    return [FirstIntegral(v, b.copy(), expand_vertex_vector(game.gtype, v, b)) for b in _nullspace(vm.entries.T)]


def quotient_rule_check(
    game: PolymatrixGame, q: np.ndarray, v: VertexLabel, x: np.ndarray
) -> float:
    """Largest relative residual of the ratio derivative identity at x.

    For every index pair (i, j) of the vertex, d/dt(x_i/x_j) computed
    from the vector field must match (x_i/x_j) times the vertex-matrix
    row contracted with x - q.
    """
    x = np.asarray(x, dtype=float)
    vm = vertex_matrix(game, v)
    f = vector_field(game, x)
    w = (x - np.asarray(q, dtype=float))[list(vm.index_set)]
    worst = 0.0
    for a, i in enumerate(vm.index_set):
        j = v.partner(game.gtype, i)
        lhs = (f[i] * x[j] - x[i] * f[j]) / (x[j] * x[j])
        rhs = (x[i] / x[j]) * float(vm.entries[a] @ w)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return worst


@dataclass(eq=False)
class ProbeReport:
    """Tail statistics of simulated runs against the inferred attractor.

    Residuals are suprema over the runs; they are reported, not
    asserted, since the true limit set is not computable.  Expected
    behavior: pinned residuals and plus velocities tend to zero, linked
    ratios stop drifting.
    """

    pinned_residual: dict[int, float]
    plus_velocity: dict[int, float]
    link_drift: dict[tuple[int, int], float]
    runs: int
    T: float


def attractor_probe(
    game: PolymatrixGame,
    q: np.ndarray,
    reduced,
    runs: int = 10,
    T: float = 500.0,
    dt: float = 0.01,
    seed: int = 0,
    min_coord: float = 0.05,
) -> ProbeReport:
    """Simulate seeded interior starts and measure the claimed constraints.

    The starts keep every coordinate above min_coord, lowered to what the
    largest group can clear (games.clearable_floor).
    """
    from .games import clearable_floor, random_prism_state

    rng = np.random.default_rng(seed)
    floor = clearable_floor(game.gtype, min_coord)
    starts = np.array([random_prism_state(game.gtype, rng, floor) for _ in range(runs)])
    trajs = integrate_batch(game, starts, T, dt)
    q = np.asarray(q, dtype=float)

    pinned = {i: 0.0 for i in reduced.black()}
    plus = {i: 0.0 for i in reduced.plus()}
    links = {pair: 0.0 for pair in sorted(reduced.final.links)}
    for tr in trajs:
        xT = tr.final
        fT = vector_field(game, xT)
        for i in pinned:
            pinned[i] = max(pinned[i], abs(float(xT[i] - q[i])))
        for i in plus:
            plus[i] = max(plus[i], abs(float(fT[i])))
        tail = tr.states[tr.states.shape[0] // 2 :]
        for (i, j) in links:
            r = tail[:, i] / tail[:, j]
            links[(i, j)] = max(links[(i, j)], float(np.max(r) - np.min(r)))
    return ProbeReport(pinned, plus, links, runs, T)


@dataclass(frozen=True, eq=False)
class LVSystem:
    """A Lotka-Volterra system: interaction matrix and intrinsic rates."""

    a: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or r.shape != (a.shape[0],):
            raise ValueError(f"inconsistent dimensions: A {a.shape}, r {r.shape}")
        # the compactified game holds A and r as they are, so they share its range
        if not ((np.abs(a) <= MAX_PAYOFF).all() and (np.abs(r) <= MAX_PAYOFF).all()):
            raise ValueError(f"A and r must be finite and at most {MAX_PAYOFF:g} in magnitude")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def field(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return z * (self.r + z @ self.a.T)


def lv_to_replicator(lv: LVSystem) -> PolymatrixGame:
    """Embed an n-species Lotka-Volterra system in an (n+1)-strategy game.

    The payoff matrix is the interaction matrix with the rate vector as
    an extra column and a zero last row; the flows are orbit equivalent
    under z -> (z, 1) / (1 + sum z).
    """
    n = lv.n
    payoff = np.zeros((n + 1, n + 1))
    payoff[:n, :n] = lv.a
    payoff[:n, n] = lv.r
    return PolymatrixGame(GameType((n + 1,)), payoff)


def lv_embedding(z: np.ndarray) -> np.ndarray:
    """The compactifying diffeomorphism z -> (z, 1)/(1 + sum z)."""
    z = np.asarray(z, dtype=float)
    return np.append(z, 1.0) / (1.0 + np.sum(z))


def lv_pushforward_residual(lv: LVSystem, z: np.ndarray) -> float:
    """Relative mismatch between the embedded LV field and the game field.

    The push-forward of the LV field under the embedding must equal the
    replicator field of the compactified game divided by the last
    coordinate; the Jacobian of the embedding is applied analytically.
    """
    z = np.asarray(z, dtype=float)
    n = lv.n
    s = 1.0 + np.sum(z)
    x = lv_embedding(z)
    jac = np.zeros((n + 1, n))
    jac[:n, :] = np.eye(n) / s - np.outer(z, np.ones(n)) / (s * s)
    jac[n, :] = -1.0 / (s * s)
    lhs = jac @ lv.field(z)
    game = lv_to_replicator(lv)
    rhs = vector_field(game, x) / x[n]
    return float(np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs))))
