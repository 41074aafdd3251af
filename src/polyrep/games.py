"""Polymatrix games, their replicator vector field, and equilibria.

A polymatrix game is a pair (type, payoff): the population is split into
p groups with sizes (n_1, ..., n_p), and a single n x n payoff matrix
carries the pairwise payoffs, block (a, b) holding the payoffs of group-a
strategies against group-b strategies.  Strategies are indexed 0..n-1,
groups 0..p-1, and the strategies of group a occupy a contiguous index
range.

The phase space is the prism (product of simplexes): one probability
vector per group, concatenated.  All functions here are pure; game
objects are immutable after construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance for comparing payoff data; integer-valued inputs stay
# exact under every formula used in this package, so exact comparisons of
# integer matrices are also fine.
PAYOFF_TOL = 1e-12

# Group sums of a prism state must be 1 within this tolerance.
STATE_TOL = 1e-9

# Vectors in the tangent space H must have zero group sums within this.
TANGENT_TOL = 1e-10

# Relative singular-value cutoff for numerical rank / nullspace decisions.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class GameType:
    """Group sizes (n_1, ..., n_p) plus derived index bookkeeping."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError(f"group sizes must be positive, got {self.sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def p(self) -> int:
        return len(self.sizes)

    @functools.cached_property
    def offsets(self) -> tuple[int, ...]:
        """Start index of each group."""
        out, acc = [], 0
        for s in self.sizes:
            out.append(acc)
            acc += s
        return tuple(out)

    def group_of(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"strategy {i} out of range for {self}")
        acc = 0
        for a, s in enumerate(self.sizes):
            acc += s
            if i < acc:
                return a
        raise AssertionError

    def group_indices(self, a: int) -> range:
        off = self.offsets[a]
        return range(off, off + self.sizes[a])

    def indicator(self) -> np.ndarray:
        """(p, n) 0/1 matrix whose row a selects the strategies of group a.

        Built once per type and shared, hence read-only.
        """
        return self._indicator

    @functools.cached_property
    def _indicator(self) -> np.ndarray:
        m = np.zeros((self.p, self.n))
        for a in range(self.p):
            m[a, self.group_indices(a)] = 1.0
        m.setflags(write=False)
        return m

    def __str__(self):
        return "(" + ",".join(str(s) for s in self.sizes) + ")"


@dataclass(frozen=True, eq=False)
class PolymatrixGame:
    """A game type together with its n x n payoff matrix."""

    gtype: GameType
    payoff: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.payoff, dtype=float)
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "payoff", a)

    @property
    def n(self) -> int:
        return self.gtype.n

    def block(self, a: int, b: int) -> np.ndarray:
        ga, gb = self.gtype.group_indices(a), self.gtype.group_indices(b)
        return self.payoff[ga.start : ga.stop, gb.start : gb.stop]


@dataclass(frozen=True)
class DiagonalScaling:
    """Positive diagonal matrix constant on each group: one value per group."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(v <= 0 for v in vals):
            raise ValueError(f"scaling entries must be positive, got {self.values}")
        object.__setattr__(self, "values", vals)

    def group_values(self, gtype: GameType) -> np.ndarray:
        """Length-p array, one entry per group of the type."""
        if len(self.values) != gtype.p:
            raise ValueError(
                f"scaling has {len(self.values)} entries, type {gtype} has {gtype.p} groups"
            )
        return np.array(self.values)

    def expand(self, gtype: GameType) -> np.ndarray:
        """Length-n diagonal, one entry per strategy."""
        return np.repeat(self.group_values(gtype), gtype.sizes)

    @staticmethod
    def identity(gtype: GameType) -> "DiagonalScaling":
        return DiagonalScaling((1.0,) * gtype.p)


@dataclass(frozen=True, eq=False)
class EquilibriumSet:
    """Affine set of formal equilibria: particular point + direction basis.

    ``particular`` is None when the defining linear system is inconsistent
    (no formal equilibrium exists).  ``basis`` rows span the direction
    space.  ``interior_point`` is a strictly positive member when one was
    found; ``interior_flag`` records whether the search succeeded.
    """

    particular: np.ndarray | None
    basis: np.ndarray
    interior_flag: bool = False
    interior_point: np.ndarray | None = None

    @property
    def exists(self) -> bool:
        return self.particular is not None

    @property
    def dimension(self) -> int:
        return 0 if not self.exists else self.basis.shape[0]

    def contains(self, q: np.ndarray, tol: float = 1e-9) -> bool:
        """Whether q lies in particular + span(basis)."""
        if not self.exists:
            return False
        d = np.asarray(q, dtype=float) - self.particular
        if self.basis.shape[0]:
            coef, *_ = np.linalg.lstsq(self.basis.T, d, rcond=None)
            d = d - self.basis.T @ coef
        return float(np.max(np.abs(d))) <= tol


def check_prism_state(gtype: GameType, x: np.ndarray, tol: float = STATE_TOL) -> list[str]:
    """Violations of the prism-state invariants (empty list when valid)."""
    x = np.asarray(x, dtype=float)
    problems = []
    if x.shape != (gtype.n,):
        return [f"state has shape {x.shape}, expected ({gtype.n},)"]
    if np.min(x) < -tol:
        problems.append(f"negative coordinate {np.min(x)}")
    for a in range(gtype.p):
        s = float(np.sum(x[gtype.group_indices(a)]))
        if abs(s - 1.0) > tol:
            problems.append(f"group {a} sums to {s}, expected 1")
    return problems


def in_tangent_space(gtype: GameType, w: np.ndarray, tol: float = TANGENT_TOL) -> bool:
    """Whether w has zero group sums (lies in the prism's tangent space)."""
    w = np.asarray(w, dtype=float)
    return all(
        abs(float(np.sum(w[gtype.group_indices(a)]))) <= tol for a in range(gtype.p)
    )


def random_prism_state(
    gtype: GameType, rng: np.random.Generator, min_coord: float = 0.0
) -> np.ndarray:
    """Random interior prism state, one Dirichlet(1) draw per group.

    With min_coord > 0 the draw is resampled until every coordinate
    clears that floor, keeping log-based monitors well away from the
    boundary.
    """
    while True:
        parts = [rng.dirichlet(np.ones(s)) for s in gtype.sizes]
        x = np.concatenate(parts)
        if min_coord <= 0.0 or np.min(x) > min_coord:
            return x


def random_tangent_vector(gtype: GameType, rng: np.random.Generator) -> np.ndarray:
    """Random vector with exactly zero group sums."""
    w = rng.standard_normal(gtype.n)
    for a in range(gtype.p):
        idx = gtype.group_indices(a)
        w[idx] -= np.mean(w[idx])
    return w


def validate_game(game: PolymatrixGame) -> list[str]:
    """Consistency violations of a game's dimensions (empty when valid)."""
    problems = []
    n = game.gtype.n
    if game.payoff.ndim != 2:
        problems.append(f"payoff must be a matrix, got ndim={game.payoff.ndim}")
    elif game.payoff.shape != (n, n):
        problems.append(
            f"payoff has shape {game.payoff.shape}, type {game.gtype} needs ({n},{n})"
        )
    elif not np.all(np.isfinite(game.payoff)):
        problems.append("payoff contains non-finite entries")
    return problems


def games_equivalent(a: PolymatrixGame, b: PolymatrixGame, tol: float = PAYOFF_TOL) -> bool:
    """Whether the two games induce the same replicator field.

    Equivalent means every block of the payoff difference has all rows
    identical, which is exactly the condition for the difference to
    contribute nothing to the dynamics on the prism.
    """
    if a.gtype != b.gtype:
        raise ValueError(f"type mismatch: {a.gtype} vs {b.gtype}")
    return has_equal_row_blocks(a.gtype, a.payoff - b.payoff, tol=tol)


def has_equal_row_blocks(gtype: GameType, c: np.ndarray, tol: float = PAYOFF_TOL) -> bool:
    """Whether every block of c (per the game type) has identical rows."""
    c = np.asarray(c, dtype=float)
    for a in range(gtype.p):
        rows = gtype.group_indices(a)
        block = c[rows.start : rows.stop, :]
        if block.shape[0] > 1 and np.max(np.abs(block - block[0])) > tol:
            return False
    return True


def zero_row_representative(game: PolymatrixGame, ell: int) -> PolymatrixGame:
    """Equivalent game whose row ``ell`` is identically zero.

    Within each block row of ell's group, the ell-row is subtracted from
    every row, which changes the game only by an equal-row-blocks matrix.
    """
    g = game.gtype.group_of(ell)
    a = game.payoff.copy()
    rows = game.gtype.group_indices(g)
    a[rows.start : rows.stop, :] -= game.payoff[ell, :]
    return PolymatrixGame(game.gtype, a)


def vector_field(game: PolymatrixGame, x: np.ndarray) -> np.ndarray:
    """Replicator velocity at state x (accepts batches shaped (..., n)).

    Component i, for i in group a, is
    x_i * ((A x)_i - sum_{j in a} x_j (A x)_j):
    payoff of strategy i minus the average payoff within its own group.
    """
    x = np.asarray(x, dtype=float)
    ax = x @ game.payoff.T
    ind = game.gtype.indicator()
    group_avg = (x * ax) @ ind.T  # (..., p): average payoff per group
    return x * (ax - group_avg @ ind)


def _equilibrium_system(game: PolymatrixGame) -> tuple[np.ndarray, np.ndarray]:
    """Linear system M q = rhs defining formal equilibria."""
    gt = game.gtype
    rows, rhs = [], []
    for a in range(gt.p):
        idx = list(gt.group_indices(a))
        first = idx[0]
        for i in idx[1:]:
            rows.append(game.payoff[i] - game.payoff[first])
            rhs.append(0.0)
        one = np.zeros(gt.n)
        one[idx] = 1.0
        rows.append(one)
        rhs.append(1.0)
    return np.array(rows), np.array(rhs)


def _nullspace(m: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Rows span the nullspace; rank decided by relative SVD threshold."""
    if m.size == 0:
        return np.eye(m.shape[1])
    _, s, vt = np.linalg.svd(m)
    cutoff = rtol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vt[rank:]


def formal_equilibria(game: PolymatrixGame) -> EquilibriumSet:
    """All q with equal payoffs within each group and unit group sums.

    Solves the defining linear system by SVD least squares; an
    inconsistent system yields an empty set (flagged, not raised).
    """
    m, rhs = _equilibrium_system(game)
    q, *_ = np.linalg.lstsq(m, rhs, rcond=RANK_RTOL)
    scale = max(1.0, float(np.linalg.norm(rhs)), float(np.abs(m).max()))
    if float(np.max(np.abs(m @ q - rhs))) > 1e-9 * scale:
        return EquilibriumSet(None, np.zeros((0, game.gtype.n)))
    return EquilibriumSet(q, _nullspace(m))


def _maximize_min_coordinate(
    particular: np.ndarray, basis: np.ndarray, margin: float
) -> np.ndarray | None:
    """Search q + span(basis) for a point with min coordinate > margin.

    The objective c -> min_i (q + B^T c)_i is concave, so a bounded
    cyclic coordinate search is enough at desk scale; no LP needed.
    """
    if np.min(particular) > margin:
        return particular
    if basis.shape[0] == 0:
        return None
    coef = np.zeros(basis.shape[0])
    best = particular.copy()

    def value(c):
        return float(np.min(particular + basis.T @ c))

    span = 2.0 * (1.0 + float(np.max(np.abs(particular))))
    for _ in range(60):
        improved = False
        for k in range(len(coef)):
            lo, hi = coef[k] - span, coef[k] + span
            for _ in range(80):  # ternary search on the concave section
                m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                c1, c2 = coef.copy(), coef.copy()
                c1[k], c2[k] = m1, m2
                if value(c1) < value(c2):
                    lo = m1
                else:
                    hi = m2
            mid = 0.5 * (lo + hi)
            trial = coef.copy()
            trial[k] = mid
            if value(trial) > value(coef) + 1e-15:
                coef = trial
                improved = True
        best = particular + basis.T @ coef
        if np.min(best) > margin:
            return best
        if not improved:
            break
        span *= 0.7
    return best if np.min(best) > margin else None


def interior_equilibria(game: PolymatrixGame, margin: float = 1e-12) -> EquilibriumSet:
    """Formal equilibria restricted to the strictly positive prism interior."""
    eq = formal_equilibria(game)
    if not eq.exists:
        return eq
    point = _maximize_min_coordinate(eq.particular, eq.basis, margin)
    return EquilibriumSet(
        eq.particular,
        eq.basis,
        interior_flag=point is not None,
        interior_point=point,
    )
