"""Vertex-indexed coefficient matrices and the quadratic form they represent.

Each vertex of the prism picks one strategy per group.  The remaining
n - p strategies index a square coefficient matrix whose entry for
strategies i, k (with chosen partners j, l in their groups) is

    a_ik + a_jl - a_il - a_jk.

That matrix represents the payoff quadratic form on the tangent space in
the vertex basis {e_i - e_j}, and its zero pattern defines a graph used
throughout the reduction machinery.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .games import (
    SEMIDEF_TOL,
    TANGENT_TOL,
    DiagonalScaling,
    GameType,
    PolymatrixGame,
    _nullspace,
    in_tangent_space,
)


@dataclass(frozen=True)
class VertexLabel:
    """One chosen strategy per group; determines the prism vertex uniquely."""

    chosen: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "chosen", tuple(int(c) for c in self.chosen))

    def validate(self, gtype: GameType) -> None:
        if len(self.chosen) != gtype.p:
            raise ValueError(f"label {self.chosen} has wrong arity for type {gtype}")
        for a, c in enumerate(self.chosen):
            if c not in gtype.group_indices(a):
                raise ValueError(f"strategy {c} not in group {a} of type {gtype}")

    def support(self, gtype: GameType) -> tuple[int, ...]:
        """The non-chosen strategies, ascending: the index set of A_v."""
        chosen = set(self.chosen)
        return tuple(i for i in range(gtype.n) if i not in chosen)

    def partner(self, gtype: GameType, i: int) -> int:
        """The chosen strategy of i's group."""
        return self.chosen[gtype.group_of(i)]

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.chosen) + ")"


@dataclass(frozen=True, eq=False)
class VertexMatrix:
    """The (n-p) x (n-p) coefficient matrix at a vertex.

    Rows and columns are indexed by ``index_set`` (the non-chosen
    strategies, ascending); the chosen partner of each index is implicit
    in the vertex label.
    """

    vertex: VertexLabel
    index_set: tuple[int, ...]
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float).copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def dim(self) -> int:
        return len(self.index_set)


@dataclass(frozen=True)
class StrategyGraph:
    """Zero-pattern graph of a vertex matrix.

    An edge joins two distinct strategies when either of the two
    coefficients between them is nonzero by zero_entries; loops are kept
    as the sign of the diagonal entry, zero by the same rule.
    """

    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    diagonal_sign: dict[int, int] = field(hash=False)

    @functools.cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each strategy's neighbors, ascending; built once per graph."""
        out: dict[int, set[int]] = {i: set() for i in self.vertices}
        for a, b in self.edges:
            out.setdefault(a, set()).add(b)
            out.setdefault(b, set()).add(a)
        return {i: tuple(sorted(ns)) for i, ns in out.items()}

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Adjacent strategies, excluding i itself (loops are not neighbors)."""
        return self.adjacency.get(i, ())


def enumerate_vertices(gtype: GameType) -> list[VertexLabel]:
    """All prism vertices in lexicographic order of chosen strategies."""
    return [
        VertexLabel(c)
        for c in itertools.product(*(gtype.group_indices(a) for a in range(gtype.p)))
    ]


def first_vertex(gtype: GameType) -> VertexLabel:
    """The first vertex in enumeration order: each group's first strategy."""
    return VertexLabel(gtype.offsets)


def vertex_blocks(
    game: PolymatrixGame, v: VertexLabel
) -> tuple[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The index set and the payoff blocks whose signed sum is A_v.

    With i, k over the index set and j, l their partners, the blocks are
    [a_ik], [a_jl], [a_il], [a_jk]; A_v is the first plus the second
    minus the third minus the fourth, summed in that order.
    """
    idx = v.support(game.gtype)
    a = game.payoff
    ii = np.array(idx, dtype=int)
    jj = np.array([v.partner(game.gtype, i) for i in idx], dtype=int)
    return idx, (a[np.ix_(ii, ii)], a[np.ix_(jj, jj)], a[np.ix_(ii, jj)], a[np.ix_(jj, ii)])


def vertex_matrix(game: PolymatrixGame, v: VertexLabel) -> VertexMatrix:
    """Coefficient matrix of the game at a vertex."""
    v.validate(game.gtype)
    idx, (ik, jl, il, jk) = vertex_blocks(game, v)
    return VertexMatrix(v, idx, ik + jl - il - jk)


def quadratic_form(game: PolymatrixGame, w: np.ndarray) -> float:
    """w^T A w for a tangent vector w (zero group sums required)."""
    w = np.asarray(w, dtype=float)
    if not in_tangent_space(game.gtype, w, tol=TANGENT_TOL):
        raise ValueError("vector does not have zero group sums")
    return float(w @ game.payoff @ w)


def quadratic_via_vertex(
    game: PolymatrixGame, v: VertexLabel, x: np.ndarray, q: np.ndarray
) -> float:
    """The quadratic form of x - q evaluated through the vertex matrix.

    Equals quadratic_form(game, x - q) for any prism states x, q; only
    the coordinates of the non-chosen strategies enter.
    """
    vm = vertex_matrix(game, v)
    c = (np.asarray(x, dtype=float) - np.asarray(q, dtype=float))[list(vm.index_set)]
    return float(c @ vm.entries @ c)


def expand_vertex_vector(
    gtype: GameType, v: VertexLabel, coeffs: np.ndarray
) -> np.ndarray:
    """Map coefficients on the vertex index set to the tangent vector.

    Returns sum_i coeffs_i (e_i - e_{partner(i)}), the tangent-space
    vector represented by those coordinates in the vertex basis.
    """
    idx = v.support(gtype)
    w = np.zeros(gtype.n)
    for c, i in zip(np.asarray(coeffs, dtype=float), idx):
        w[i] += c
        w[v.partner(gtype, i)] -= c
    return w


def zero_entries(m: np.ndarray, tol: float = SEMIDEF_TOL) -> np.ndarray:
    """Which entries of a square matrix count as zero: |x| <= tol * max(1, max|m|).

    The one zero rule of the package: the vertex graphs, the stable
    dissipativity test, the inference rules and the collapse all read
    the zero pattern from here.  Integer matrices with entries below
    1 / tol keep exactly their zero entries.
    """
    m = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    return np.abs(m) <= tol * scale


def vertex_graph(vm: VertexMatrix, tol: float = SEMIDEF_TOL) -> StrategyGraph:
    """Graph on the index set read off the zero pattern of the matrix.

    An entry is zero by zero_entries, so the graph is the one the
    stability test sees.
    """
    idx = vm.index_set
    zero = zero_entries(vm.entries, tol).tolist()
    edges = {
        (idx[a], idx[b])
        for a in range(vm.dim)
        for b in range(a + 1, vm.dim)
        if not (zero[a][b] and zero[b][a])
    }
    diag = {
        i: 0 if zero[a][a] else (1 if x > 0 else -1)
        for a, (i, x) in enumerate(zip(idx, vm.entries.diagonal().tolist()))
    }
    return StrategyGraph(idx, frozenset(edges), diag)


def scaled_game(game: PolymatrixGame, d: DiagonalScaling) -> PolymatrixGame:
    """The game with payoff A D (columns scaled by the diagonal)."""
    return PolymatrixGame(game.gtype, game.payoff * d.expand(game.gtype))


def diag_property_check(
    game: PolymatrixGame, d: DiagonalScaling, v: VertexLabel, tol: float = 1e-12
) -> bool:
    """Whether (A D)_v equals A_v D_v entrywise.

    D_v is the submatrix of the expanded diagonal on the vertex index
    set; the identity is exact for integer payoffs.
    """
    lhs = vertex_matrix(scaled_game(game, d), v).entries
    vm = vertex_matrix(game, v)
    dv = d.expand(game.gtype)[list(vm.index_set)]
    rhs = vm.entries * dv
    return float(np.max(np.abs(lhs - rhs))) <= tol if lhs.size else True


def numerical_rank(m: np.ndarray) -> int:
    """Column count minus nullity, the rank games._nullspace decides."""
    return m.shape[1] - len(_nullspace(m))
