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

# Largest payoff magnitude a game may hold.  The analysis adds up to eight
# entries (the symmetric part of a vertex matrix) and subtracts rows; from
# entries up to this bound those stay far inside the float range.
MAX_PAYOFF = 1e300

# Relative semidefiniteness tolerance: eigenvalue cuts scale with
# max(1, |eigenvalue|), zero-entry cuts with max(1, |entry|).  The analysis
# applies it to the game in its unit (in_unit), where max|A| is in [1, 2),
# so that its verdicts do not depend on the payoff's unit.
SEMIDEF_TOL = 1e-9


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

    def same_group(self) -> np.ndarray:
        """(n, n) 0/1 matrix ind^T ind: entry (i, j) is 1 when i and j share a group.

        Right-multiplying a batch of per-strategy values by it puts each
        group's sum on every strategy of the group.  Built once per type
        and shared, hence read-only.
        """
        return self._same_group

    @functools.cached_property
    def _same_group(self) -> np.ndarray:
        m = self._indicator.T @ self._indicator
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

    def with_interior_point(self, margin: float = 1e-12) -> "EquilibriumSet":
        """This set, with the interior-point search run on it."""
        if not self.exists:
            return self
        point = _maximize_min_coordinate(self.particular, self.basis, margin)
        return EquilibriumSet(
            self.particular, self.basis, interior_flag=point is not None, interior_point=point
        )


def check_prism_state(gtype: GameType, x: np.ndarray, tol: float = STATE_TOL) -> list[str]:
    """Violations of the prism-state invariants (empty list when valid).

    Every non-finite coordinate is one: NaN fails no comparison, so the
    sign and sum checks alone would let it through.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (gtype.n,):
        return [f"state has shape {x.shape}, expected ({gtype.n},)"]
    problems = [f"coordinate {i} is {x[i]}" for i in np.flatnonzero(~np.isfinite(x))]
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
    """Random prism state: per group, a Dirichlet(1) draw conditioned on every coordinate exceeding min_coord.

    For a group of k that law is min_coord + (1 - k min_coord) Dirichlet(1),
    so each group takes one draw, and at min_coord = 0 it is the plain
    Dirichlet(1) draw.  A floor keeps log-based monitors away from the
    boundary.  ValueError unless 0 <= min_coord and k min_coord < 1 for
    every group: no state clears a larger floor.
    """
    k = max(gtype.sizes)
    if not (min_coord >= 0 and k * min_coord < 1):
        raise ValueError(f"min_coord = {min_coord} is outside [0, 1/{k}), the floors a group of {k} strategies can clear")
    return np.concatenate([min_coord + (1.0 - s * min_coord) * rng.dirichlet(np.ones(s)) for s in gtype.sizes])


def clearable_floor(gtype: GameType, floor: float) -> float:
    """floor, or half the barycentre of the largest group where that is lower: a floor random_prism_state can meet."""
    return min(floor, 0.5 / max(gtype.sizes))


def random_tangent_vector(gtype: GameType, rng: np.random.Generator) -> np.ndarray:
    """Random vector with exactly zero group sums."""
    w = rng.standard_normal(gtype.n)
    for a in range(gtype.p):
        idx = gtype.group_indices(a)
        w[idx] -= np.mean(w[idx])
    return w


def in_unit(game: PolymatrixGame) -> tuple[PolymatrixGame, int]:
    """The game with its payoff times 2**-e, e putting max|A| * 2**-e in [1, 2), and e.

    The one place the payoff's unit is decided.  Scaling by 2**j is exact
    until an entry goes subnormal, so what is read from the unit game holds
    for the game times any power of two; np.ldexp(., e) maps back.  A zero,
    in-range or non-finite payoff is returned as it is, with e = 0.
    """
    top = float(np.max(np.abs(game.payoff), initial=0.0))
    e = int(np.frexp(top)[1]) - 1 if 0 < top < np.inf else 0
    if e == 0:
        return game, 0
    return PolymatrixGame(game.gtype, np.ldexp(game.payoff, -e)), e


def validate_game(game: PolymatrixGame) -> list[str]:
    """Consistency violations of a game's dimensions and entries (empty when valid).

    Every entry must be finite and at most MAX_PAYOFF in magnitude; the
    first that is not is named by its row and column.
    """
    problems = []
    n = game.gtype.n
    if game.payoff.ndim != 2:
        problems.append(f"payoff must be a matrix, got ndim={game.payoff.ndim}")
    elif game.payoff.shape != (n, n):
        problems.append(
            f"payoff has shape {game.payoff.shape}, type {game.gtype} needs ({n},{n})"
        )
    else:
        bad = np.argwhere(~(np.abs(game.payoff) <= MAX_PAYOFF))  # NaN included
        if len(bad):
            r, c = bad[0].tolist()
            x = float(game.payoff[r, c])
            limit = "is not finite" if not np.isfinite(x) else f"exceeds {MAX_PAYOFF:g} in magnitude"
            problems.append(f"payoff entry ({r}, {c}) = {x!r} {limit}")
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
    # (x * ax) @ same_group: each strategy's group-average payoff
    return x * (ax - (x * ax) @ game.gtype.same_group())


def _equilibrium_system(game: PolymatrixGame) -> tuple[np.ndarray, np.ndarray]:
    """Linear system M q = rhs defining formal equilibria.

    The payoff-difference rows are divided by max|A| (by 1 for a zero
    payoff), so that the unit group-sum rows keep their weight in the
    rank decision whatever the payoff's unit, and the system is the same
    for the game times any power of two.
    """
    gt = game.gtype
    scale = float(np.max(np.abs(game.payoff), initial=0.0)) or 1.0
    rows, rhs = [], []
    for a in range(gt.p):
        idx = list(gt.group_indices(a))
        first = idx[0]
        for i in idx[1:]:
            rows.append((game.payoff[i] - game.payoff[first]) / scale)
            rhs.append(0.0)
        one = np.zeros(gt.n)
        one[idx] = 1.0
        rows.append(one)
        rhs.append(1.0)
    return np.array(rows), np.array(rhs)


def _svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The full SVD of a nonempty m and its rank: the singular values above RANK_RTOL times the largest."""
    u, s, vt = np.linalg.svd(m)
    return u, s, vt, int(np.sum(s > RANK_RTOL * s[0]))


def _nullspace(m: np.ndarray) -> np.ndarray:
    """Rows span the nullspace; rank decided by _svd's relative threshold."""
    if m.size == 0:
        return np.eye(m.shape[1])
    _, _, vt, rank = _svd(m)
    return vt[rank:]


def formal_equilibria(game: PolymatrixGame) -> EquilibriumSet:
    """All q with equal payoffs within each group and unit group sums.

    One SVD of the defining linear system gives the least-squares point
    and the direction basis, so its rank is decided once for both; an
    inconsistent system yields an empty set (flagged, not raised).
    """
    m, rhs = _equilibrium_system(game)
    u, s, vt, rank = _svd(m)
    q = vt[:rank].T @ ((u[:, :rank].T @ rhs) / s[:rank])
    scale = max(float(np.linalg.norm(rhs)), float(np.abs(m).max()))  # |rhs| = sqrt(p) >= 1
    if float(np.max(np.abs(m @ q - rhs))) > 1e-9 * scale:
        return EquilibriumSet(None, np.zeros((0, game.gtype.n)))
    return EquilibriumSet(q, vt[rank:])


def _maximize_min_coordinate(
    particular: np.ndarray, basis: np.ndarray, margin: float
) -> np.ndarray | None:
    """The point of q + span(basis) with the largest min coordinate, if above margin.

    Maximizing t subject to q + B^T c >= t is one linear program.
    """
    if np.min(particular) > margin:
        return particular
    if basis.shape[0] == 0:
        return None
    import scipy.optimize

    r = basis.shape[0]
    res = scipy.optimize.linprog(
        np.r_[np.zeros(r), -1.0],
        A_ub=np.hstack([-basis.T, np.ones((basis.shape[1], 1))]),
        b_ub=particular,
        bounds=[(None, None)] * (r + 1),
        method="highs",
    )
    if res.x is None:
        return None
    best = particular + basis.T @ res.x[:r]
    return best if np.min(best) > margin else None


def interior_equilibria(game: PolymatrixGame, margin: float = 1e-12) -> EquilibriumSet:
    """Formal equilibria restricted to the strictly positive prism interior."""
    return formal_equilibria(game).with_interior_point(margin)
