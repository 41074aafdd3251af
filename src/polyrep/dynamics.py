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

from dataclasses import dataclass, field

import numpy as np

from .games import DiagonalScaling, GameType, PolymatrixGame, _nullspace, vector_field
from .vertices import VertexLabel, vertex_matrix

# Log-based monitors are meaningless this close to the boundary.
LOG_FLOOR = 1e-300


@dataclass(eq=False)
class Trajectory:
    """Time grid, state history, and per-step renormalization drift.

    ``monitors`` is filled by the caller (named scalar series aligned
    with ``times``).  ``ok`` is False when integration aborted on a
    non-finite state; the arrays then hold the partial run.
    """

    times: np.ndarray
    states: np.ndarray  # (len(times), n)
    renorm_drift: np.ndarray  # (len(times),), max group-sum correction per step
    ok: bool = True
    monitors: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _rk4_paths(
    game: PolymatrixGame, x0: np.ndarray, steps: int, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def _trajectory(states: np.ndarray, drift: np.ndarray, kept: int, dt: float) -> Trajectory:
    return Trajectory(dt * np.arange(kept), states[:kept], drift[:kept], bool(kept == len(states)))


def integrate(game: PolymatrixGame, x0: np.ndarray, T: float, dt: float = 0.01) -> Trajectory:
    """Integrate the replicator flow from one start for duration T."""
    steps = int(round(T / dt))
    states, drift, kept = _rk4_paths(game, np.asarray(x0, dtype=float)[None, :], steps, dt)
    return _trajectory(states[0], drift[0], kept[0], dt)


def integrate_batch(
    game: PolymatrixGame, x0: np.ndarray, T: float, dt: float = 0.01
) -> list[Trajectory]:
    """Integrate several starts at once (rows of x0); each run aborts on its own."""
    steps = int(round(T / dt))
    states, drift, kept = _rk4_paths(game, np.asarray(x0, dtype=float), steps, dt)
    return [_trajectory(states[i], drift[i], kept[i], dt) for i in range(len(kept))]


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
    out = []
    for b in _nullspace(vm.entries.T):
        coeff = np.zeros(game.gtype.n)
        for bi, i in zip(b, vm.index_set):
            coeff[i] += bi
            coeff[v.partner(game.gtype, i)] -= bi
        out.append(FirstIntegral(v, b.copy(), coeff))
    return out


def ratio_bounds(
    traj: Trajectory, pairs: list[tuple[int, int]]
) -> dict[tuple[int, int], tuple[float, float]]:
    """Observed (min, max) of x_i/x_j along the trajectory, per pair."""
    out = {}
    for i, j in pairs:
        r = traj.states[:, i] / traj.states[:, j]
        out[(i, j)] = (float(np.min(r)), float(np.max(r)))
    return out


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
    """Simulate seeded interior starts and measure the claimed constraints."""
    from .games import random_prism_state

    rng = np.random.default_rng(seed)
    starts = np.array([random_prism_state(game.gtype, rng, min_coord) for _ in range(runs)])
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
