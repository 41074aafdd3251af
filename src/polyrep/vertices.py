"""Vertex-indexed coefficient matrices and the quadratic form they represent.

Each vertex of the prism picks one strategy per group.  The remaining
n - p strategies index a square coefficient matrix whose entry for
strategies i, k (with chosen partners j, l in their groups) is

    a_ik + a_jl - a_il - a_jk.

That matrix represents the payoff quadratic form on the tangent space in
the vertex basis {e_i - e_j}.  vertex_tensor builds every vertex's
matrix as one (V, k, k) stack, k = n - p; vertex_matrix is its stack of
one.  graph_pattern reads the stack's zero-pattern graphs as edge and
sign arrays, the one edge and sign rule: the stability test, the
inference rules, the collapse and vertex_graph all read it.  A game
past MAX_VERTICES vertices or MAX_ENTRIES stack entries is refused
before its stack is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .games import (
    SEMIDEF_TOL,
    DiagonalScaling,
    GameType,
    PolymatrixGame,
    _integers,
    relative_cut,
)

# Vertices per block of the stacked vertex layer: the gathers and the
# stability test's transients grow with the block, not with V.
BLOCK = 256
# Most prism vertices V = prod(n_a) a game may have: the vertex layer keeps
# about 10 KB per vertex, so V is refused before it can exhaust memory.
MAX_VERTICES = 2**14
# Most entries V k^2 the vertex stack may hold (64 MiB of float64), since one
# large group has few vertices but large ones; (4,)x7 at MAX_VERTICES holds 7.2e6.
MAX_ENTRIES = 2**23


def blocks(count: int) -> list[slice]:
    """Consecutive slices of at most BLOCK vertices covering range(count)."""
    return [slice(s, s + BLOCK) for s in range(0, count, BLOCK)]


@dataclass(frozen=True)
class VertexLabel:
    """One chosen strategy per group; determines the prism vertex uniquely."""

    chosen: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "chosen", _integers(self.chosen, "vertex label entries"))

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
        return "(" + ",".join(map(str, self.chosen)) + ")"


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


def enumerate_vertices(gtype: GameType) -> list[VertexLabel]:
    """All prism vertices in lexicographic order of chosen strategies.

    ValueError when there are more than MAX_VERTICES, before any is made.
    """
    count = math.prod(gtype.sizes)
    if count > MAX_VERTICES:
        raise ValueError(f"the game has {count} vertices, more than the {MAX_VERTICES} the vertex layer handles")
    return [
        VertexLabel(c)
        for c in itertools.product(*(gtype.group_indices(a) for a in range(gtype.p)))
    ]


def first_vertex(gtype: GameType) -> VertexLabel:
    """The first vertex in enumeration order: each group's first strategy."""
    return VertexLabel(gtype.offsets)


def _index_sets(gtype: GameType, chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index sets and their partners, both (V, n - p), of the vertices chosen (V, p).

    Row v of the first is vertex v's non-chosen strategies, ascending;
    the second holds the chosen strategy of each one's group.
    """
    keep = np.ones((len(chosen), gtype.n), dtype=bool)
    keep[np.arange(len(chosen))[:, None], chosen] = False
    ii = np.nonzero(keep)[1].reshape(len(chosen), gtype.n - gtype.p)
    jj = np.take_along_axis(chosen, gtype.groups[ii], axis=1)
    return ii, jj


def _fill(a: np.ndarray, ii: np.ndarray, jj: np.ndarray, out: np.ndarray) -> None:
    """Write A_v for stacked index sets and partners into out, (V, k, k).

    With i, k over the index set and j, l their partners, A_v is
    [a_ik] + [a_jl] - [a_il] - [a_jk], summed in that order; one block
    is gathered at a time and added in place.
    """
    rows_i, cols_i, rows_j, cols_j = ii[:, :, None], ii[:, None, :], jj[:, :, None], jj[:, None, :]
    out[...] = a[rows_i, cols_i]
    out += a[rows_j, cols_j]
    out -= a[rows_i, cols_j]
    out -= a[rows_j, cols_i]


def vertex_tensor(game: PolymatrixGame) -> tuple[list[VertexLabel], np.ndarray, np.ndarray]:
    """Every vertex's coefficient matrix at once, in enumeration order.

    Returns the labels, the index sets II (V, k) and the read-only
    (V, k, k) tensor whose slice v is vertex_matrix(game, v).entries bit
    for bit.  Built in blocks of BLOCK vertices, so the gathers stay
    small whatever V is.  ValueError past MAX_VERTICES vertices, then
    past MAX_ENTRIES entries, before the stack is allocated.
    """
    gt = game.gtype
    labels = enumerate_vertices(gt)
    k = gt.n - gt.p
    if len(labels) * k * k > MAX_ENTRIES:
        raise ValueError(
            f"the game's vertex matrices hold {len(labels) * k * k} entries, "
            f"more than the {MAX_ENTRIES} the vertex layer handles"
        )
    chosen = np.array([v.chosen for v in labels], dtype=np.intp).reshape(len(labels), gt.p)
    ii, jj = _index_sets(gt, chosen)
    t = np.empty((len(labels), k, k))
    for b in blocks(len(labels)):
        _fill(game.payoff, ii[b], jj[b], t[b])
    t.setflags(write=False)
    return labels, ii, t


def vertex_matrix(game: PolymatrixGame, v: VertexLabel) -> VertexMatrix:
    """Coefficient matrix of the game at a vertex: vertex_tensor's stack of one."""
    v.validate(game.gtype)
    ii, jj = _index_sets(game.gtype, np.array([v.chosen], dtype=np.intp))
    out = np.empty((1, ii.shape[1], ii.shape[1]))
    _fill(game.payoff, ii, jj, out)
    return VertexMatrix(v, tuple(ii[0].tolist()), out[0])


def quadratic_via_vertex(
    game: PolymatrixGame, v: VertexLabel, x: np.ndarray, q: np.ndarray
) -> float:
    """The quadratic form of x - q evaluated through the vertex matrix.

    Equals (x - q) A (x - q) for any prism states x, q; only
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
    ValueError for a label that is not a vertex of the type, or for
    coefficients that are not one per index (n - p of them).
    """
    v.validate(gtype)
    coeffs = np.asarray(coeffs, dtype=float)
    (ii,), (jj,) = _index_sets(gtype, np.array([v.chosen], dtype=np.intp))
    if coeffs.shape != ii.shape:
        raise ValueError(f"vertex {v} of type {gtype} takes {len(ii)} coefficients, got shape {coeffs.shape}")
    w = np.zeros(gtype.n)
    w[ii] += coeffs  # += so that a -0.0 coefficient lands as +0.0
    np.subtract.at(w, jj, coeffs)  # in index order, each partner once per index of its group
    return w


def zero_entries(m: np.ndarray, tol: float = SEMIDEF_TOL) -> np.ndarray:
    """Which entries of a square matrix count as zero: |x| <= relative_cut(tol, max|m|).

    The one zero rule of the package: the vertex graphs, the stable
    dissipativity test, the inference rules and the collapse all read
    the zero pattern from here.  Integer matrices with entries below
    1 / tol keep exactly their zero entries.  On a stack (V, k, k) each
    matrix has its own scale.
    """
    mag = np.abs(np.asarray(m, dtype=float))
    return mag <= relative_cut(tol, mag.max(axis=(-2, -1), initial=0.0, keepdims=True))


def graph_pattern(t: np.ndarray, zero: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges (V, k, k) and diagonal signs (V, k) of a vertex stack t, given its zero pattern.

    The one edge and sign rule of the package.  An edge joins two
    distinct positions either of whose coefficients is nonzero; a zero
    diagonal entry has sign 0, a negative one -1 (damped), any other 1.
    """
    k = t.shape[-1]
    edges = ~(zero & zero.transpose(0, 2, 1)) & ~np.eye(k, dtype=bool)
    diag = np.diagonal(t, axis1=1, axis2=2)
    signs = np.where(np.diagonal(zero, axis1=1, axis2=2), 0, np.where(diag < 0, -1, 1))
    return edges, signs


def vertex_graph(vm: VertexMatrix, tol: float = SEMIDEF_TOL) -> StrategyGraph:
    """Graph on the index set read off the zero pattern of the matrix.

    An entry is zero by zero_entries, so the graph is the one the
    stability test sees: graph_pattern's stack of one, as an object.
    """
    t = vm.entries[None]
    edges, signs = graph_pattern(t, zero_entries(t, tol))
    idx = vm.index_set
    ends = frozenset((idx[a], idx[b]) for a, b in np.argwhere(np.triu(edges[0])).tolist())
    return StrategyGraph(idx, ends, dict(zip(idx, signs[0].tolist())))


def scaled_game(game: PolymatrixGame, d: DiagonalScaling) -> PolymatrixGame:
    """The game with payoff A D (columns scaled by the diagonal)."""
    return PolymatrixGame(game.gtype, game.payoff * d.expand(game.gtype))


def diag_property_check(
    game: PolymatrixGame, d: DiagonalScaling, v: VertexLabel, tol: float = 1e-12
) -> bool:
    """Whether (A D)_v equals A_v D_v entrywise.

    D_v is the submatrix of the expanded diagonal on the vertex index
    set; the identity is exact for integer payoffs.  ValueError unless
    tol is a finite number >= 0.
    """
    relative_cut(tol)
    lhs = vertex_matrix(scaled_game(game, d), v).entries
    vm = vertex_matrix(game, v)
    dv = d.expand(game.gtype)[list(vm.index_set)]
    rhs = vm.entries * dv
    return float(np.max(np.abs(lhs - rhs))) <= tol if lhs.size else True
