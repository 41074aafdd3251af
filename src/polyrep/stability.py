"""Classification of games and matrices by their quadratic-form sign.

A game is conservative (dissipative) when, after scaling by some positive
group-constant diagonal, the payoff quadratic form vanishes (is negative
semidefinite) on the tangent space.  Stability against zero-pattern
preserving perturbations is decided by the checkable characterization:
every cycle of the coefficient graph must contain a strong link, and some
positive diagonal rescaling must make the matrix almost skew-symmetric.

Absence of a certificate found by the search here is reported as exactly
that; it is never a proof that no certificate exists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .games import (
    DiagonalScaling,
    EquilibriumSet,
    PolymatrixGame,
    _nullspace,
    formal_equilibria,
)
from .vertices import (
    StrategyGraph,
    VertexLabel,
    VertexMatrix,
    enumerate_vertices,
    expand_vertex_vector,
    first_vertex,
    vertex_blocks,
    vertex_graph,
    vertex_matrix,
)

# Relative semidefiniteness tolerance: thresholds scale with max(1, |Sym|).
SEMIDEF_TOL = 1e-9

CONSERVATIVE = "conservative"
DISSIPATIVE = "dissipative"
INDEFINITE = "indefinite"
NO_FORMAL_EQUILIBRIUM = "no_formal_equilibrium"
NO_CERTIFICATE = "no_certificate_found"


@dataclass(frozen=True, eq=False)
class Classification:
    """Outcome of testing one scaling: kind plus certificate or witness."""

    kind: str
    scaling: DiagonalScaling | None = None
    witness: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class StableDissipativityReport:
    stable: bool
    scaling: np.ndarray | None
    cycle_ok: bool
    skew_ok: bool
    failures: tuple[str, ...] = ()


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _spectral_scale(eigs: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 0.0)


def _entry_scale(m: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)


class _VertexForm:
    """Sym(A_v D_v) at one vertex as a function of the group diagonal.

    The vertex blocks are gathered once; each evaluation scales their
    columns by the diagonal on the index set and sums them in
    vertex_matrix's order.  A partner lies in its index's group, so both
    carry the same diagonal entry and the result equals
    _sym(vertex_matrix(scaled_game(game, d), v).entries) bit for bit.
    """

    def __init__(self, game: PolymatrixGame, v: VertexLabel):
        gt = game.gtype
        self.vertex = v
        idx, blocks = vertex_blocks(game, v)
        self.groups = np.repeat(np.arange(gt.p), gt.sizes)[list(idx)]
        self.blocks = np.stack(blocks)

    @property
    def dim(self) -> int:
        return len(self.groups)

    def sym(self, d: np.ndarray) -> np.ndarray:
        """The symmetrized scaled vertex matrix for group values d."""
        p, q, r, s = self.blocks * d[self.groups]
        return _sym(p + q - r - s)

    def eigvals(self, d: np.ndarray) -> np.ndarray:
        """Eigenvalues of the form at d, ascending."""
        return np.linalg.eigvalsh(self.sym(d))


def _top(eigs: np.ndarray) -> float:
    """Largest eigenvalue; 0 for the zero-dimensional form."""
    return float(eigs[-1]) if eigs.size else 0.0


def check_with_scaling(
    game: PolymatrixGame, d: DiagonalScaling, tol: float = SEMIDEF_TOL
) -> Classification:
    """Classify the game under one candidate scaling.

    The sign of the scaled quadratic form on the tangent space equals the
    sign of Sym(A_v D_v) at any single vertex, so one symmetric
    eigenvalue problem decides.  An indefinite verdict carries a tangent
    witness vector with positive form value.
    """
    if not formal_equilibria(game).exists:
        return Classification(NO_FORMAL_EQUILIBRIUM)
    return _classify(game, d, tol)


def _classify(game: PolymatrixGame, d: DiagonalScaling, tol: float) -> Classification:
    """check_with_scaling for a game known to have a formal equilibrium."""
    form = _VertexForm(game, first_vertex(game.gtype))
    values = d.group_values(game.gtype)
    if form.dim == 0:
        return Classification(CONSERVATIVE, scaling=d, eigenvalues=np.zeros(0))
    eigs, vecs = np.linalg.eigh(form.sym(values))
    cut = tol * _spectral_scale(eigs)
    if float(np.max(np.abs(eigs))) <= cut:
        return Classification(CONSERVATIVE, scaling=d, eigenvalues=eigs)
    if float(eigs[-1]) <= cut:
        return Classification(DISSIPATIVE, scaling=d, eigenvalues=eigs)
    witness = expand_vertex_vector(game.gtype, form.vertex, vecs[:, -1])
    return Classification(INDEFINITE, witness=witness, eigenvalues=eigs)


def find_scaling(
    game: PolymatrixGame,
    tol: float = SEMIDEF_TOL,
    starts: int = 16,
    seed: int = 0,
) -> DiagonalScaling | None:
    """Search for a positive group-diagonal certificate of dissipativity.

    Minimizes the top eigenvalue of the symmetrized scaled vertex matrix
    over log-parameterized diagonals (first group pinned to 1), with a
    derivative-free simplex descent from several deterministic starts.
    The objective is a pointwise max of functions linear in the diagonal,
    hence convex in it, so descent suffices at this scale.  It is
    evaluated from the first vertex's blocks, gathered once per game;
    each value is bit for bit the one the scaled game's vertex matrix
    gives.  Returns the first certified diagonal in start order, or None
    when every start fails; None means "no certificate found", not "not
    dissipative".  The seeded starts and scipy.optimize are loaded only
    when a start needs them, so games the identity scaling certifies
    never import numpy.random or scipy.
    """
    p = game.gtype.p
    form = _VertexForm(game, first_vertex(game.gtype))

    def certify(values: np.ndarray) -> DiagonalScaling | None:
        d = DiagonalScaling(tuple(values))
        eigs = form.eigvals(values)
        return d if _top(eigs) <= tol * _spectral_scale(eigs) else None

    if p == 1:
        return certify(np.ones(1))

    def objective(theta: np.ndarray) -> float:
        values = np.concatenate(([1.0], np.exp(theta)))
        if (values <= 0).any():  # exp(theta) underflowed: reject as DiagonalScaling does
            raise ValueError(f"scaling entries must be positive, got {tuple(values)}")
        return _top(form.eigvals(values))

    def thetas():
        yield np.zeros(p - 1)
        rng = np.random.default_rng(seed)  # numpy.random loads lazily: not for the identity start
        for _ in range(starts - 1):
            yield rng.uniform(-3.0, 3.0, p - 1)

    for theta in thetas():
        got = certify(np.concatenate(([1.0], np.exp(theta))))
        if got is not None:
            return got
        import scipy.optimize

        res = scipy.optimize.minimize(
            objective,
            theta,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 600 * (p - 1)},
        )
        got = certify(np.concatenate(([1.0], np.exp(res.x))))
        if got is not None:
            return got
    return None


def _tangent_orthobasis(game: PolymatrixGame) -> np.ndarray:
    """Orthonormal basis: group indicators first, tangent space after."""
    gt = game.gtype
    cols = [
        np.sqrt(1.0 / gt.sizes[a]) * np.where(np.isin(np.arange(gt.n), list(gt.group_indices(a))), 1.0, 0.0)
        for a in range(gt.p)
    ]
    normal = np.column_stack(cols)
    tangent = _nullspace(normal.T).T
    return np.hstack([normal, tangent])


def skew_decomposition(
    game: PolymatrixGame, d: DiagonalScaling, tol: float = SEMIDEF_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Split the scaled payoff of a conservative game: A D = A0 + C.

    A0 is skew-symmetric and C has equal-row blocks, exhibiting the game
    as equivalent to (A0 D^-1) D, the skew normal form of a conservative
    game.  Rejects inputs that do not certify conservative under d.
    """
    verdict = check_with_scaling(game, d, tol=tol)
    if verdict.kind != CONSERVATIVE:
        raise ValueError(f"game is {verdict.kind} under this scaling, not conservative")
    b = game.payoff * d.expand(game.gtype)
    p, n = game.gtype.p, game.gtype.n
    basis = _tangent_orthobasis(game)
    m = basis.T @ b @ basis
    m0 = np.zeros_like(m)
    m0[p:, p:] = 0.5 * (m[p:, p:] - m[p:, p:].T)
    m0[p:, :p] = m[p:, :p]
    m0[:p, p:] = -m[p:, :p].T
    a0 = basis @ m0 @ basis.T
    a0 = 0.5 * (a0 - a0.T)
    return a0, b - a0


def _zero_diag_tol(m: np.ndarray, tol: float = SEMIDEF_TOL) -> float:
    return tol * _entry_scale(m)


def almost_skew_symmetric(m: np.ndarray, tol: float = SEMIDEF_TOL) -> bool:
    """Antisymmetric across zero-diagonal indices, definite on the rest.

    Requires (checked internally) that the matrix is dissipative in the
    unscaled sense: top eigenvalue of its symmetric part at most the
    relative tolerance.  Condition two asks for strict negative
    definiteness of the symmetric part restricted to the coordinates
    with nonzero diagonal.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return True
    s = _sym(m)
    eigs = np.linalg.eigvalsh(s)
    cut = tol * _spectral_scale(eigs)
    if float(eigs[-1]) > cut:
        return False
    zd = _zero_diag_tol(m, tol)
    zero_diag = [i for i in range(m.shape[0]) if abs(m[i, i]) <= zd]
    zero_set = set(zero_diag)
    for i in range(m.shape[0]):
        for j in range(i + 1, m.shape[0]):
            if i in zero_set or j in zero_set:
                if abs(m[i, j] + m[j, i]) > zd:
                    return False
    rest = [i for i in range(m.shape[0]) if i not in zero_set]
    if not rest:
        return True
    sub = s[np.ix_(rest, rest)]
    sub_eigs = np.linalg.eigvalsh(sub)
    return float(sub_eigs[-1]) < -tol * _spectral_scale(sub_eigs)


def find_almost_skew_scaling(m: np.ndarray, tol: float = SEMIDEF_TOL) -> np.ndarray | None:
    """Positive diagonal d with M diag(d) almost skew-symmetric, if any.

    The antisymmetry constraints m_ij d_j = -m_ji d_i over pairs touching
    a zero diagonal fix ratios of d; they are propagated along a spanning
    forest of the constraint graph, non-tree constraints are checked for
    consistency, components free of constraints keep d = 1, and the
    candidate is verified in full (including the definiteness clause).
    """
    m = np.asarray(m, dtype=float)
    k = m.shape[0] if m.ndim == 2 else 0
    if k == 0:
        return np.ones(0)
    zd = _zero_diag_tol(m, tol)
    zero_set = {i for i in range(k) if abs(m[i, i]) <= zd}

    ratios: dict[tuple[int, int], float] = {}
    for i in range(k):
        for j in range(i + 1, k):
            if i not in zero_set and j not in zero_set:
                continue
            mij, mji = m[i, j], m[j, i]
            zi, zj = abs(mij) <= zd, abs(mji) <= zd
            if zi and zj:
                continue
            if zi != zj:
                return None  # one-sided coupling forces d to zero
            if mij * mji > 0:
                return None  # same signs: m_ij d_j = -m_ji d_i unsolvable in d > 0
            ratios[(i, j)] = -mji / mij  # d_j / d_i

    d = np.full(k, np.nan)
    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(k)}
    for (i, j), r in ratios.items():
        adj[i].append((j, r))
        adj[j].append((i, 1.0 / r))
    for root in range(k):
        if not np.isnan(d[root]):
            continue
        d[root] = 1.0  # first index of each component pinned
        stack = [root]
        while stack:
            i = stack.pop()
            for j, r in adj[i]:
                if np.isnan(d[j]):
                    d[j] = d[i] * r
                    stack.append(j)
    for (i, j), r in ratios.items():
        if abs(d[j] - d[i] * r) > 1e-9 * max(abs(d[j]), abs(d[i] * r)):
            return None
    if not almost_skew_symmetric(m * d, tol=tol):
        return None
    return d


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> bool:
        """Join the two sets; False when they were already joined."""
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        self.parent[max(ri, rj)] = min(ri, rj)
        return True


def stably_dissipative(m: np.ndarray, tol: float = SEMIDEF_TOL) -> StableDissipativityReport:
    """Decide stable dissipativity of a square matrix.

    Two independently checkable conditions: after deleting every strong
    link (edge whose two endpoint diagonals are negative) the zero-pattern
    graph must be acyclic, and some positive diagonal rescaling must make
    the matrix almost skew-symmetric.
    """
    m = np.asarray(m, dtype=float)
    k = m.shape[0] if m.ndim == 2 else 0
    zd = _zero_diag_tol(m, tol)
    failures = []

    uf = _UnionFind(k)
    cycle_ok = True
    for i in range(k):
        for j in range(i + 1, k):
            if abs(m[i, j]) <= zd and abs(m[j, i]) <= zd:
                continue
            if m[i, i] < -zd and m[j, j] < -zd:
                continue  # strong link, deleted
            if not uf.union(i, j):
                cycle_ok = False
    if not cycle_ok:
        failures.append("a cycle without a strong link remains")

    scaling = find_almost_skew_scaling(m, tol=tol)
    skew_ok = scaling is not None
    if not skew_ok:
        failures.append("no positive diagonal makes the matrix almost skew-symmetric")

    return StableDissipativityReport(
        stable=cycle_ok and skew_ok,
        scaling=scaling,
        cycle_ok=cycle_ok,
        skew_ok=skew_ok,
        failures=tuple(failures),
    )


@dataclass(frozen=True, eq=False)
class Analysis:
    """The admissibility decision for one game, and everything it reads.

    Each field is computed on first use and then kept.  The decision
    runs in order: a formal equilibrium, then a certificate (searched for
    only when an equilibrium exists), then a stably dissipative vertex.
    Games are immutable, so an analysis never goes stale.
    """

    game: PolymatrixGame
    tol: float = SEMIDEF_TOL

    @functools.cached_property
    def matrices(self) -> Mapping[VertexLabel, VertexMatrix]:
        """The coefficient matrix at every vertex, in enumeration order."""
        return MappingProxyType({v: vertex_matrix(self.game, v) for v in enumerate_vertices(self.game.gtype)})

    @functools.cached_property
    def reports(self) -> Mapping[VertexLabel, StableDissipativityReport]:
        return MappingProxyType({v: stably_dissipative(vm.entries, tol=self.tol) for v, vm in self.matrices.items()})

    @functools.cached_property
    def vstar(self) -> tuple[VertexLabel, ...]:
        """The stably dissipative vertices, in enumeration order."""
        return tuple(v for v, rep in self.reports.items() if rep.stable)

    @functools.cached_property
    def graphs(self) -> Mapping[VertexLabel, StrategyGraph]:
        return MappingProxyType({v: vertex_graph(vm) for v, vm in self.matrices.items()})

    @functools.cached_property
    def diagonal_signs(self) -> Mapping[tuple[VertexLabel, int], int]:
        """Sign of A_v's diagonal entry at (v, i), zero within stably_dissipative's tolerance."""
        out = {}
        for v, vm in self.matrices.items():
            zd = _zero_diag_tol(vm.entries, self.tol)
            for i, x in zip(vm.index_set, np.diag(vm.entries)):
                out[v, i] = 0 if abs(x) <= zd else (1 if x > 0 else -1)
        return MappingProxyType(out)

    @functools.cached_property
    def equilibria(self) -> EquilibriumSet:
        return formal_equilibria(self.game)

    @functools.cached_property
    def scaling(self) -> DiagonalScaling | None:
        """find_scaling's certificate; None without a formal equilibrium."""
        return find_scaling(self.game, tol=self.tol) if self.equilibria.exists else None

    @functools.cached_property
    def kind(self) -> str:
        if not self.equilibria.exists:
            return NO_FORMAL_EQUILIBRIUM
        if self.scaling is None:
            return NO_CERTIFICATE
        return _classify(self.game, self.scaling, self.tol).kind

    @functools.cached_property
    def admissible(self) -> bool:
        return self.scaling is not None and bool(self.vstar)


@functools.lru_cache(maxsize=1)
def analyse(game: PolymatrixGame, tol: float, /) -> Analysis:
    """The analysis of a game, shared with the next call for the same game.

    One entry: the most recent (game, tol).  Games hash by identity and
    cannot change, so the entry is never stale, and the lazy fields mean
    it never holds two games' matrices at once.
    """
    return Analysis(game, tol)


def stable_vertices(game: PolymatrixGame, tol: float = SEMIDEF_TOL) -> list[VertexLabel]:
    """Vertices whose coefficient matrix is stably dissipative."""
    return list(analyse(game, tol).vstar)


def admissible(
    game: PolymatrixGame,
    d: DiagonalScaling | None = None,
    tol: float = SEMIDEF_TOL,
) -> tuple[bool, list[VertexLabel]]:
    """Whether the game is dissipative with a stably dissipative vertex.

    Returns the verdict together with the full list of stable vertices.
    A caller-provided diagonal is tried as the dissipativity certificate
    instead of the search.
    """
    an = analyse(game, tol)
    if d is None:
        return an.admissible, list(an.vstar)
    ok = check_with_scaling(game, d, tol=tol).kind in (CONSERVATIVE, DISSIPATIVE)
    return (ok and bool(an.vstar)), list(an.vstar)


def _largest_angle(q1: np.ndarray, k2: np.ndarray) -> float:
    """Largest principal angle between span(q1) and span(k2), equal dimensions.

    q1 has orthonormal columns; k2 is orthonormalized here.  The sine of
    the angle is the norm of the part of k2's span that q1 misses.
    """
    q2, _ = np.linalg.qr(k2)
    sine = np.linalg.norm(q2 - q1 @ (q1.T @ q2), 2)
    return float(np.arcsin(min(sine, 1.0)))


def kernel_duality(m: np.ndarray, d: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether Ker(M) equals D Ker(M^T) as subspaces.

    Holds for every dissipative pair (M, D); tested by dimension match
    plus the largest principal angle between the two spans.
    """
    m = np.asarray(m, dtype=float)
    d = np.asarray(d, dtype=float)
    k1 = _nullspace(m).T
    k2 = d[:, None] * _nullspace(m.T).T
    if k1.shape[1] != k2.shape[1]:
        return False
    if k1.shape[1] == 0:
        return True
    return _largest_angle(k1, k2) <= tol
