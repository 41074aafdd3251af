"""Classification of games and matrices by their quadratic-form sign.

A game is conservative (dissipative) when, after scaling by some positive
group-constant diagonal, the payoff quadratic form vanishes (is negative
semidefinite) on the tangent space.  Stability against zero-pattern
preserving perturbations is decided by the checkable characterization:
every cycle of the coefficient graph must contain a strong link, and some
positive diagonal rescaling must make the matrix almost skew-symmetric.
That test runs on a stack of vertex matrices at once; stably_dissipative
and its helpers on one matrix are the stack of one.

The certificate search (facial reduction, then Kelley cuts solved as
linear programs) ends in a certificate, in a checked one-vector proof
that none exists, or in neither: "no certificate found".  It returns one
record, which Analysis keeps; the kind of a certificate is read from the
eigenvalues it was accepted on.  One rule, _form_kind, turns the
eigenvalues of Sym(A_v D_v) into conservative, dissipative or
indefinite, for the search and for check_with_scaling alike.
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
    _fill,
    _index_sets,
    blocks,
    expand_vertex_vector,
    first_vertex,
    graph_pattern,
    vertex_graphs,
    vertex_tensor,
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
class CertificateSearch:
    """Outcome of the certificate search: kind plus certificate or proof.

    The kind is conservative or dissipative with a scaling, not
    dissipative with a proof vector at the first vertex, or no
    certificate found; an analysis without a formal equilibrium holds
    the record of kind no_formal_equilibrium and runs no search.
    """

    kind: str
    scaling: DiagonalScaling | None = None
    proof: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class StableDissipativityReport:
    stable: bool
    scaling: np.ndarray | None
    cycle_ok: bool
    skew_ok: bool
    failures: tuple[str, ...] = ()


def _sym(m: np.ndarray) -> np.ndarray:
    """The symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _spectral_scale(eigs: np.ndarray) -> np.ndarray:
    """max(1, max|eigenvalue|), per row of a stack; a NaN counts as nothing."""
    return np.fmax(1.0, np.abs(eigs).max(axis=-1, initial=0.0))


def _form_kind(eigs: np.ndarray, tol: float) -> str:
    """The sign of a symmetric form from its eigenvalues, against tol * _spectral_scale.

    Conservative when every eigenvalue is within the cut of 0,
    dissipative when none is above it, indefinite otherwise.  No
    eigenvalue at all (a vertex of dimension 0) is conservative.
    """
    cut = tol * _spectral_scale(eigs)
    if np.abs(eigs).max(initial=0.0) <= cut:
        return CONSERVATIVE
    return DISSIPATIVE if eigs.max(initial=0.0) <= cut else INDEFINITE


class _VertexForm:
    """Sym(A_v D_v) at one vertex as a function of the group diagonal.

    The index set and partners are built once; each evaluation scales
    the payoff's columns by the diagonal and sums the vertex blocks as
    vertex_matrix does.  A partner lies in its index's group, so both
    carry the same diagonal entry, A_v D_v = (A D)_v, and the result
    equals _sym(vertex_matrix(scaled_game(game, d), v).entries) bit for
    bit.
    """

    def __init__(self, game: PolymatrixGame, v: VertexLabel):
        gt = game.gtype
        self.vertex = v
        self.payoff = game.payoff
        self.strategy_groups = np.repeat(np.arange(gt.p), gt.sizes)
        self.ii, self.jj = _index_sets(gt, np.array([v.chosen], dtype=np.intp))
        self.groups = self.strategy_groups[self.ii[0]]

    @property
    def dim(self) -> int:
        return len(self.groups)

    def sym(self, d: np.ndarray) -> np.ndarray:
        """The symmetrized scaled vertex matrix for group values d."""
        out = np.empty((1, self.dim, self.dim))
        _fill(self.payoff * d[self.strategy_groups], self.ii, self.jj, out)
        return _sym(out[0])

    def eigvals(self, d: np.ndarray) -> np.ndarray:
        """Eigenvalues of the form at d, ascending."""
        return np.linalg.eigvalsh(self.sym(d))


def check_with_scaling(
    game: PolymatrixGame, d: DiagonalScaling, tol: float = SEMIDEF_TOL
) -> Classification:
    """Classify the game under one candidate scaling.

    The sign of the scaled quadratic form on the tangent space equals the
    sign of Sym(A_v D_v) at any single vertex, so one symmetric
    eigenvalue problem decides, by _form_kind, the rule the search
    accepts a certificate by.  An indefinite verdict carries a tangent
    witness vector with positive form value.
    """
    if not formal_equilibria(game).exists:
        return Classification(NO_FORMAL_EQUILIBRIUM)
    form = _VertexForm(game, first_vertex(game.gtype))
    values = d.group_values(game.gtype)
    eigs = form.eigvals(values)
    kind = _form_kind(eigs, tol)
    if kind != INDEFINITE:
        return Classification(kind, scaling=d, eigenvalues=eigs)
    top = np.linalg.eigh(form.sym(values))[1][:, -1]
    return Classification(INDEFINITE, witness=expand_vertex_vector(game.gtype, form.vertex, top), eigenvalues=eigs)


def find_scaling(game: PolymatrixGame, tol: float = SEMIDEF_TOL) -> DiagonalScaling | None:
    """The positive group-diagonal certificate _search finds, first group at 1, or None."""
    return _search(game, tol).scaling


def _search(game: PolymatrixGame, tol: float) -> CertificateSearch:
    """A certificate d > 0 of S(d) = sum_g d_g S_g <= 0, a proof that none exists, or neither.

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
    A d is accepted when _form_kind of its eigenvalues is not indefinite,
    and that verdict is the record's kind.
    """
    p = game.gtype.p
    form = _VertexForm(game, first_vertex(game.gtype))
    nothing = CertificateSearch(NO_CERTIFICATE)

    def certify(d: np.ndarray) -> CertificateSearch | None:
        values = d / d[0] if d[0] > 0 else d
        if not (values > 0).all():
            return None
        kind = _form_kind(form.eigvals(values), tol)
        return None if kind == INDEFINITE else CertificateSearch(kind, scaling=DiagonalScaling(tuple(values)))

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
        return CertificateSearch(NOT_DISSIPATIVE, proof=u)

    basis, kernel = np.eye(form.dim), []
    for g in range(p):
        for i, j in itertools.combinations_with_replacement(np.flatnonzero(form.groups == g), 2):
            u = basis[i] if i == j else (basis[i] - basis[j]) / np.sqrt(2.0)
            if proves(u):
                return CertificateSearch(NOT_DISSIPATIVE, proof=u)
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
            return CertificateSearch(NOT_DISSIPATIVE, proof=rest.T @ vecs[:, -1])
        if max(eigs.max(initial=0.0), -d.min()) <= bound + tol:
            return nothing  # Kelley has converged, to an optimum that certifies nothing
        if eigs.size:
            cuts.append(np.einsum("i,gij,j->g", vecs[:, -1], compressed, vecs[:, -1]) @ face.T)
        r = len(face)
        res = scipy.optimize.linprog(
            np.r_[np.zeros(r), 1.0], A_ub=np.c_[np.vstack(cuts + [-face.T]), -np.ones(len(cuts) + p)],
            b_ub=np.zeros(len(cuts) + p), A_eq=np.r_[face.sum(axis=1), 0.0][None, :], b_eq=[1.0],
            bounds=(None, None), method="highs",
        )
        if res.x is None or res.fun > tol:
            return nothing
        d, bound = face.T @ res.x[:r], res.fun
    return nothing


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


def _propagate(k: int, pairs: list[tuple[int, int, float]]) -> list[float]:
    """Ratios d_j / d_i of pairs i < j spread along a spanning forest, roots at 1.

    One depth-first walk from each component's smallest index, reading
    neighbors in ascending order; a tree edge taken from j back to i
    uses the reciprocal ratio.
    """
    adj: list[list[tuple[int, float, bool]]] = [[] for _ in range(k)]
    for i, j, r in pairs:
        adj[i].append((j, r, True))
        adj[j].append((i, r, False))
    d, seen = [1.0] * k, [False] * k
    for root in range(k):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            i = stack.pop()
            for j, r, ahead in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    d[j] = d[i] * (r if ahead else 1.0 / r)
                    stack.append(j)
    return d


def _forests(adj: np.ndarray) -> np.ndarray:
    """Which graphs of a stack (V, k, k) of symmetric loopless adjacencies are forests.

    A graph is a forest exactly when its edges number k minus its
    components.  Components come from reachability by repeated squaring,
    counted by their smallest members; the counts are exact.
    """
    k = adj.shape[-1]
    edges = adj.sum(axis=(1, 2)) // 2
    # no edge is a forest, k or more edges never are; only the rest need components
    todo = np.flatnonzero((edges > 0) & (edges < k))
    out = edges == 0
    reach = (adj[todo] | np.eye(k, dtype=bool)).astype(float)
    for _ in range((k - 1).bit_length()):
        reach = (reach @ reach > 0).astype(float)
    components = (~np.tril(reach > 0, -1).any(axis=2)).sum(axis=1)
    out[todo] = edges[todo] == k - components
    return out


def almost_skew_symmetric(m: np.ndarray, tol: float = SEMIDEF_TOL) -> bool:
    """Antisymmetric across zero-diagonal indices, definite on the rest.

    Requires (checked internally) that the matrix is dissipative in the
    unscaled sense: top eigenvalue of its symmetric part at most the
    relative tolerance.  Condition two asks for strict negative
    definiteness of the symmetric part restricted to the coordinates
    with nonzero diagonal.  Zero entries are those of zero_entries.
    """
    t = np.asarray(m, dtype=float)[None]
    return bool(_almost_skew(t, np.diagonal(zero_entries(t, tol), axis1=1, axis2=2), tol)[0])


def _almost_skew(t: np.ndarray, zero_diag: np.ndarray, tol: float) -> np.ndarray:
    """almost_skew_symmetric of each matrix of a stack, its zero diagonal entries given."""
    ok = np.ones(len(t), dtype=bool)
    if t.shape[-1] == 0:
        return ok
    s = _sym(t)
    eigs = np.linalg.eigvalsh(s)
    ok &= ~(eigs[:, -1] > tol * _spectral_scale(eigs))
    # the symmetric part vanishes off the diagonal on every zero-diagonal row
    ok &= (zero_entries(s, tol) | np.eye(t.shape[-1], dtype=bool) | ~zero_diag[:, :, None]).all(axis=(1, 2))
    # strictly negative definite on the rest, one stacked eigenproblem per size
    rest = ~zero_diag
    size = rest.sum(axis=1)
    for r in sorted(set(size[ok].tolist()) - {0}):
        which = np.flatnonzero(ok & (size == r))
        idx = np.nonzero(rest[which])[1].reshape(len(which), r)
        sub_eigs = np.linalg.eigvalsh(s[which[:, None, None], idx[:, :, None], idx[:, None, :]])
        ok[which] = sub_eigs[:, -1] < -tol * _spectral_scale(sub_eigs)
    return ok


def find_almost_skew_scaling(m: np.ndarray, tol: float = SEMIDEF_TOL) -> np.ndarray | None:
    """Positive diagonal d with M diag(d) almost skew-symmetric, if any.

    The antisymmetry constraints m_ij d_j = -m_ji d_i over pairs touching
    a zero diagonal fix ratios of d; they are propagated along a spanning
    forest of the constraint graph, non-tree constraints are checked for
    consistency, components free of constraints keep d = 1, and the
    candidate is verified in full (including the definiteness clause).
    """
    t = np.asarray(m, dtype=float)[None]
    return _almost_skew_scalings(t, zero_entries(t, tol), tol)[0]


def _almost_skew_scalings(t: np.ndarray, zero: np.ndarray, tol: float) -> list[np.ndarray | None]:
    """find_almost_skew_scaling of each matrix of a stack, its zero pattern given.

    The one-sided and same-sign checks read the constraint pairs of the
    whole stack at once; the ratio walk runs per matrix on Python
    floats, the arithmetic of numpy's float64 scalars.  M diag(d) has
    the zero pattern of M for d > 0, so each candidate is verified
    against M's zero diagonal.
    """
    count, k = t.shape[:2]
    zero_diag = np.diagonal(zero, axis1=1, axis2=2)
    # the constraint pairs: coupled, and touching a zero diagonal
    constrained = np.triu((zero_diag[:, :, None] | zero_diag[:, None, :]) & ~(zero & zero.transpose(0, 2, 1)), 1)
    which, i, j = np.nonzero(constrained)
    m_ij, m_ji = t[which, i, j], t[which, j, i]
    with np.errstate(all="ignore"):  # 0, inf or nan where the check below rejects the pair
        ratio = -m_ji / m_ij  # d_j / d_i
    # a one-sided coupling forces d to zero; m_ij d_j = -m_ji d_i has no d > 0 when the ratio
    # is not positive (equal signs), nor any d a float can hold when it under- or overflows
    ok = np.ones(count, dtype=bool)
    ok[which[(zero[which, i, j] != zero[which, j, i]) | ~((ratio > 0) & (ratio < np.inf))]] = False
    keep = ok[which]
    which, i, j, ratio = which[keep], i[keep], j[keep], ratio[keep]

    d = np.ones((count, k))  # each component's root pinned to 1
    cuts = np.cumsum(np.bincount(which, minlength=count)).tolist()
    pairs = list(zip(i.tolist(), j.tolist(), ratio.tolist()))
    for v, (start, stop) in enumerate(zip([0] + cuts, cuts)):
        if stop > start:
            d[v] = _propagate(k, pairs[start:stop])
    # the constraints off the forest must agree with it
    d_i, d_j = d[which, i], d[which, j]
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: rejected below
        off = np.abs(d_j - d_i * ratio) > 1e-9 * np.maximum(np.abs(d_j), np.abs(d_i * ratio))
        scaled = t * d[:, None, :]
    ok[which[off]] = False
    # ratios in range can still multiply out of it along the forest, in d or in M diag(d)
    ok &= (d > 0).all(axis=1) & np.isfinite(scaled).all(axis=(1, 2))

    cand = np.flatnonzero(ok)
    ok[cand] = _almost_skew(scaled[cand], zero_diag[cand], tol)
    return [row if good else None for row, good in zip(d, ok)]


def stably_dissipative(m: np.ndarray, tol: float = SEMIDEF_TOL) -> StableDissipativityReport:
    """Decide stable dissipativity of a square matrix.

    Two independently checkable conditions: after deleting every strong
    link (edge whose two endpoint diagonals are negative) the zero-pattern
    graph must be acyclic, and some positive diagonal rescaling must make
    the matrix almost skew-symmetric.  Both read the zero pattern of
    zero_entries, the one vertex_graph draws.  The stack of one of
    stably_dissipative_stack.
    """
    t = np.asarray(m, dtype=float)[None]
    return stably_dissipative_stack(t, zero_entries(t, tol), tol)[0]


def stably_dissipative_stack(
    t: np.ndarray, zero: np.ndarray, tol: float = SEMIDEF_TOL
) -> list[StableDissipativityReport]:
    """stably_dissipative of each matrix of a stack (V, k, k), given its zero_entries.

    Evaluated in blocks of BLOCK matrices, so the transients do not grow
    with V.
    """
    reports = []
    for b in blocks(len(t)):
        block, z = t[b], zero[b]
        k = block.shape[-1]
        zero_diag = np.diagonal(z, axis1=1, axis2=2)
        damped = (np.diagonal(block, axis1=1, axis2=2) < 0) & ~zero_diag
        adj = ~(z & z.transpose(0, 2, 1)) & ~(damped[:, :, None] & damped[:, None, :])
        adj[:, np.arange(k), np.arange(k)] = False
        forest = _forests(adj).tolist()
        for cycle_ok, scaling in zip(forest, _almost_skew_scalings(block, z, tol)):
            failures = []
            if not cycle_ok:
                failures.append("a cycle without a strong link remains")
            if scaling is None:
                failures.append("no positive diagonal makes the matrix almost skew-symmetric")
            reports.append(
                StableDissipativityReport(
                    stable=cycle_ok and scaling is not None,
                    scaling=scaling,
                    cycle_ok=cycle_ok,
                    skew_ok=scaling is not None,
                    failures=tuple(failures),
                )
            )
    return reports


@dataclass(frozen=True, eq=False)
class Analysis:
    """The admissibility decision for one game, and everything it reads.

    Each field is computed on first use and then kept.  The decision
    runs in order: a formal equilibrium, then a certificate (searched for
    only when an equilibrium exists), then a stably dissipative vertex.
    Games are immutable, so an analysis never goes stale.  The vertex
    fields read one vertex_tensor and one zero pattern.  A tolerance
    that is not a finite number >= 0 raises ValueError.
    """

    game: PolymatrixGame
    tol: float = SEMIDEF_TOL

    def __post_init__(self):
        # a negative tolerance makes every zero nonzero, an infinite one every entry zero
        if not 0.0 <= self.tol < float("inf"):
            raise ValueError(f"tolerance must be a finite number >= 0, got {self.tol!r}")

    @functools.cached_property
    def tensor(self) -> tuple[list[VertexLabel], np.ndarray, np.ndarray]:
        """vertex_tensor: the labels, index sets and stacked vertex matrices."""
        return vertex_tensor(self.game)

    @functools.cached_property
    def _zero(self) -> np.ndarray:
        """The zero pattern of every vertex matrix, shared by reports, pattern and graphs."""
        t = self.tensor[2]
        return np.concatenate([zero_entries(t[b], self.tol) for b in blocks(len(t))])

    @functools.cached_property
    def pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """graph_pattern of every vertex: edges (V, k, k) and diagonal signs (V, k), the rules' graphs."""
        return graph_pattern(self.tensor[2], self._zero)

    @functools.cached_property
    def matrices(self) -> Mapping[VertexLabel, VertexMatrix]:
        """The coefficient matrix at every vertex, in enumeration order."""
        labels, ii, t = self.tensor
        return MappingProxyType({v: VertexMatrix(v, tuple(idx), m) for v, idx, m in zip(labels, ii.tolist(), t)})

    @functools.cached_property
    def reports(self) -> Mapping[VertexLabel, StableDissipativityReport]:
        labels, _, t = self.tensor
        return MappingProxyType(dict(zip(labels, stably_dissipative_stack(t, self._zero, self.tol))))

    @functools.cached_property
    def vstar(self) -> tuple[VertexLabel, ...]:
        """The stably dissipative vertices, in enumeration order."""
        return tuple(v for v, rep in self.reports.items() if rep.stable)

    @functools.cached_property
    def graphs(self) -> Mapping[VertexLabel, StrategyGraph]:
        """The zero-pattern graph at every vertex as objects, for display; the rules read pattern."""
        labels, ii, t = self.tensor
        return MappingProxyType(dict(zip(labels, vertex_graphs(ii, t, self._zero))))

    @functools.cached_property
    def equilibria(self) -> EquilibriumSet:
        return formal_equilibria(self.game)

    @functools.cached_property
    def search(self) -> CertificateSearch:
        """The certificate search's record, searched only when a formal equilibrium exists."""
        if not self.equilibria.exists:
            return CertificateSearch(NO_FORMAL_EQUILIBRIUM)
        return _search(self.game, self.tol)

    @property
    def scaling(self) -> DiagonalScaling | None:
        """The search's certificate, or None."""
        return self.search.scaling

    @property
    def kind(self) -> str:
        return self.search.kind

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
