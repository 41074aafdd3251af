"""Classification of games and matrices by their quadratic-form sign.

A game is conservative (dissipative) when, after scaling by some positive
group-constant diagonal, the payoff quadratic form vanishes (is negative
semidefinite) on the tangent space.  Stability against zero-pattern
preserving perturbations is decided by the checkable characterization:
every cycle of the coefficient graph must contain a strong link, and some
positive diagonal rescaling must make the matrix almost skew-symmetric.

The certificate search (facial reduction, then Kelley cuts solved as
linear programs) ends in a certificate, in a checked one-vector proof
that none exists, or in neither: "no certificate found".
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .games import (
    SEMIDEF_TOL,
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
    zero_entries,
)

CONSERVATIVE = "conservative"
DISSIPATIVE = "dissipative"
INDEFINITE = "indefinite"
NO_FORMAL_EQUILIBRIUM = "no_formal_equilibrium"
NO_CERTIFICATE = "no_certificate_found"
NOT_DISSIPATIVE = "not_dissipative"

# Kelley cutting planes the certificate search makes before it gives up.
_CUTS = 40


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


def find_scaling(game: PolymatrixGame, tol: float = SEMIDEF_TOL) -> DiagonalScaling | None:
    """The positive group-diagonal certificate _search finds, first group at 1, or None."""
    got = _search(game, tol)
    return got if isinstance(got, DiagonalScaling) else None


@functools.lru_cache(maxsize=1)
def _search(game: PolymatrixGame, tol: float, /) -> DiagonalScaling | np.ndarray | None:
    """A certificate d > 0 of S(d) = sum_g d_g S_g <= 0, a proof that none exists, or None.

    S_g is the part of Sym(A_v D_v) at the first vertex that d_g scales.
    A proof is a unit u with every u'S_g u exactly 0 or above tol * |S_g|,
    one at least above, so u'S(d)u > 0 for all d > 0.  Tried in order:
    the identity and its top eigenvector; the same-group directions u
    (e_i, e_i - e_j), where u'S(d)u = d_g u'A_v u, so a positive value
    proves and a zero one forces S(d)u = 0, whose nullspace is the face
    of all certificates; on that face, with the forced kernel projected
    out, Kelley cuts u'S(d)u from top eigenvectors, each LP minimizing
    the largest cut and -d_g over sum d = 1 (a negative optimum is
    strictly positive), until an LP bound exceeds tol or _CUTS cuts.
    The last search is remembered, as analyse is, for Analysis.kind.
    """
    p = game.gtype.p
    form = _VertexForm(game, first_vertex(game.gtype))

    def certify(d: np.ndarray) -> DiagonalScaling | None:
        values = d / d[0] if d[0] > 0 else d
        if not (values > 0).all():
            return None
        eigs = form.eigvals(values)
        return DiagonalScaling(tuple(values)) if eigs.max(initial=0.0) <= tol * _spectral_scale(eigs) else None

    def proves(u: np.ndarray) -> bool:
        vals = np.einsum("i,gij,j->g", u, parts, u)
        above = vals > tol * norms
        return bool(above.any() and (above | (vals == 0)).all())

    got = certify(np.ones(p))
    if got is not None:
        return got  # scipy is never imported for games the identity certifies
    # Loaded here, not at the first cut, so memory does not hinge on which games need an LP.
    import scipy.optimize

    parts = np.stack([form.sym(e) for e in np.eye(p)])
    norms = np.array([np.linalg.norm(s, 2) for s in parts])
    u = np.linalg.eigh(form.sym(np.ones(p)))[1][:, -1]
    if proves(u):
        return u

    basis, kernel = np.eye(form.dim), []
    for g in range(p):
        for i, j in itertools.combinations_with_replacement(np.flatnonzero(form.groups == g), 2):
            u = basis[i] if i == j else (basis[i] - basis[j]) / np.sqrt(2.0)
            if proves(u):
                return u
            if abs(u @ parts[g] @ u) <= tol * norms[g]:
                kernel.append(u)
    face, rest = np.eye(p), basis
    if kernel:
        forced = np.einsum("gij,mj->mig", parts, np.array(kernel)).reshape(-1, p)
        if np.abs(forced).max() > tol * norms.max():  # rounding noise alone forces nothing
            face = _nullspace(forced)
        rest = _nullspace(np.array(kernel))

    compressed = rest @ parts @ rest.T / norms.max()
    d, bound, cuts = face.T @ (face @ np.ones(p)), -np.inf, []
    for _ in range(_CUTS):
        got = certify(d)
        if got is not None:
            return got
        eigs, vecs = np.linalg.eigh(np.tensordot(d, compressed, 1))
        if eigs.size and proves(rest.T @ vecs[:, -1]):
            return rest.T @ vecs[:, -1]
        if max(eigs.max(initial=0.0), -d.min()) <= bound + tol:
            return None  # Kelley has converged, to an optimum that certifies nothing
        if eigs.size:
            cuts.append(np.einsum("i,gij,j->g", vecs[:, -1], compressed, vecs[:, -1]) @ face.T)
        r = len(face)
        res = scipy.optimize.linprog(
            np.r_[np.zeros(r), 1.0], A_ub=np.c_[np.vstack(cuts + [-face.T]), -np.ones(len(cuts) + p)],
            b_ub=np.zeros(len(cuts) + p), A_eq=np.r_[face.sum(axis=1), 0.0][None, :], b_eq=[1.0],
            bounds=(None, None), method="highs",
        )
        if res.x is None or res.fun > tol:
            return None
        d, bound = face.T @ res.x[:r], res.fun
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


def _forest_edges(adj: list[list[int]]) -> list[tuple[int, int]]:
    """Tree edges (parent, child) of a spanning forest, in discovery order.

    One depth-first walk from each component's smallest index.  The
    graph is a forest exactly when every edge is a tree edge.
    """
    seen = [False] * len(adj)
    tree = []
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    tree.append((i, j))
                    stack.append(j)
    return tree


def almost_skew_symmetric(m: np.ndarray, tol: float = SEMIDEF_TOL) -> bool:
    """Antisymmetric across zero-diagonal indices, definite on the rest.

    Requires (checked internally) that the matrix is dissipative in the
    unscaled sense: top eigenvalue of its symmetric part at most the
    relative tolerance.  Condition two asks for strict negative
    definiteness of the symmetric part restricted to the coordinates
    with nonzero diagonal.  Zero entries are those of zero_entries.
    """
    m = np.asarray(m, dtype=float)
    return _almost_skew(m, np.diagonal(zero_entries(m, tol)), tol)


def _almost_skew(m: np.ndarray, zero_diag: np.ndarray, tol: float) -> bool:
    """almost_skew_symmetric with the zero diagonal entries given."""
    if m.size == 0:
        return True
    s = _sym(m)
    eigs = np.linalg.eigvalsh(s)
    if float(eigs[-1]) > tol * _spectral_scale(eigs):
        return False
    # the symmetric part vanishes off the diagonal on every zero-diagonal row
    if not (zero_entries(s, tol) | np.eye(len(s), dtype=bool))[zero_diag].all():
        return False
    rest = np.flatnonzero(~zero_diag)
    if not rest.size:
        return True
    sub_eigs = np.linalg.eigvalsh(s[np.ix_(rest, rest)])
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
    return _almost_skew_scaling(m, zero_entries(m, tol), tol)


def _almost_skew_scaling(m: np.ndarray, zero: np.ndarray, tol: float) -> np.ndarray | None:
    """find_almost_skew_scaling with the zero pattern of m given.

    M diag(d) has the zero pattern of M for d > 0, so the candidate is
    verified against M's zero diagonal.
    """
    k = len(m)
    z, vals = zero.tolist(), m.tolist()
    ratios: dict[tuple[int, int], float] = {}
    adj: list[list[int]] = [[] for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if not (z[i][i] or z[j][j]) or (z[i][j] and z[j][i]):
                continue
            if z[i][j] != z[j][i]:
                return None  # one-sided coupling forces d to zero
            mij, mji = vals[i][j], vals[j][i]
            if mij * mji > 0:
                return None  # same signs: m_ij d_j = -m_ji d_i unsolvable in d > 0
            ratios[i, j] = -mji / mij  # d_j / d_i
            adj[i].append(j)
            adj[j].append(i)

    d = np.ones(k)  # each component's root pinned to 1
    for i, j in _forest_edges(adj):
        d[j] = d[i] * (ratios[i, j] if i < j else 1.0 / ratios[j, i])
    for (i, j), r in ratios.items():
        if abs(d[j] - d[i] * r) > 1e-9 * max(abs(d[j]), abs(d[i] * r)):
            return None
    if not _almost_skew(m * d, np.diagonal(zero), tol):
        return None
    return d


def stably_dissipative(m: np.ndarray, tol: float = SEMIDEF_TOL) -> StableDissipativityReport:
    """Decide stable dissipativity of a square matrix.

    Two independently checkable conditions: after deleting every strong
    link (edge whose two endpoint diagonals are negative) the zero-pattern
    graph must be acyclic, and some positive diagonal rescaling must make
    the matrix almost skew-symmetric.  Both read the zero pattern of
    zero_entries, the one vertex_graph draws.
    """
    m = np.asarray(m, dtype=float)
    zero = zero_entries(m, tol)
    z = zero.tolist()
    k = len(z)
    damped = [x < 0 and not z[i][i] for i, x in enumerate(np.diagonal(m).tolist())]
    adj = [
        [j for j in range(k) if j != i and not (z[i][j] and z[j][i]) and not (damped[i] and damped[j])]
        for i in range(k)
    ]
    failures = []
    cycle_ok = 2 * len(_forest_edges(adj)) == sum(map(len, adj))
    if not cycle_ok:
        failures.append("a cycle without a strong link remains")

    scaling = _almost_skew_scaling(m, zero, tol)
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
        """The zero-pattern graph at every vertex, by the zero rule the reports use."""
        return MappingProxyType({v: vertex_graph(vm, self.tol) for v, vm in self.matrices.items()})

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
            return NOT_DISSIPATIVE if isinstance(_search(self.game, self.tol), np.ndarray) else NO_CERTIFICATE
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
