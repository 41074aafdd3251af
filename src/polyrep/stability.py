"""Classification of games and matrices by their quadratic-form sign.

A game is conservative (dissipative) when, after scaling by some positive
group-constant diagonal, the payoff quadratic form vanishes (is negative
semidefinite) on the tangent space.  Stability against zero-pattern
preserving perturbations is decided by the checkable characterization:
every cycle of the coefficient graph must contain a strong link, and some
positive diagonal rescaling must make the matrix almost skew-symmetric.
That test runs on a stack of vertex matrices at once, on the edges and
diagonal signs of vertices.graph_pattern.  The cycle condition and
which ratios of the diagonal the constraints tie read only a matrix's
zero pattern and damped diagonal, so they run once per distinct
pattern, both by one depth-first walk (_walk); the ratios, the scalings
they spread to and the definiteness checks run as array operations over
the stack.  Its verdicts are arrays over the rows, Analysis.verdicts;
stably_dissipative and its helpers on one matrix are the stack of one.

The certificate search (facial reduction, then Kelley cuts solved as
linear programs) ends in a certificate, in a checked one-vector proof
that none exists, or in neither: "no certificate found".  It returns one
record, which Analysis keeps; the kind of a certificate is read from the
eigenvalues it was accepted on.  Its parts are the group column blocks
of the first vertex matrix A_v, zeros unsigned; a candidate d, like
check_with_scaling, reads Sym(A_v D_v) from the column-scaled game, and
_form_kind turns its eigenvalues into conservative, dissipative or indefinite.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .games import (
    SEMIDEF_TOL,
    DiagonalScaling,
    EquilibriumSet,
    PolymatrixGame,
    _nullspace,
    formal_equilibria,
    in_unit,
    relative_cut,
)
from .vertices import (
    VertexLabel,
    blocks,
    expand_vertex_vector,
    first_vertex,
    graph_pattern,
    scaled_game,
    vertex_matrix,
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

# A constraint m_ij d_j = -m_ji d_i off the spanning forest agrees with the
# forest's d when |d_j - d_i r| is within this times max(|d_j|, |d_i r|); it
# holds at every --tol, 0 included.
FOREST_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class Classification:
    """Outcome of testing one scaling: the kind, plus a witness when the form is indefinite."""

    kind: str
    witness: np.ndarray | None = None


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


def _form_kind(eigs: np.ndarray, tol: float) -> str:
    """The sign of a symmetric form from its eigenvalues, against relative_cut(tol, max|eigenvalue|).

    Conservative when every eigenvalue is within the cut of 0,
    dissipative when none is above it, indefinite otherwise.  No
    eigenvalue at all (a vertex of dimension 0) is conservative.
    """
    cut = relative_cut(tol, np.abs(eigs).max(initial=0.0))
    if (np.abs(eigs) <= cut).all():
        return CONSERVATIVE
    return DISSIPATIVE if eigs.max(initial=0.0) <= cut else INDEFINITE


def _first_form(game: PolymatrixGame, d: DiagonalScaling) -> np.ndarray:
    """Sym(A_v D_v) at the first vertex: vertex_matrix of the column-scaled game A D.

    A partner lies in its index's group, so both carry one diagonal entry and A_v D_v = (A D)_v.
    """
    return _sym(vertex_matrix(scaled_game(game, d), first_vertex(game.gtype)).entries)


def check_with_scaling(
    game: PolymatrixGame, d: DiagonalScaling, tol: float = SEMIDEF_TOL
) -> Classification:
    """Classify the game under one candidate scaling.

    The sign of the scaled quadratic form on the tangent space equals the
    sign of Sym(A_v D_v) at any single vertex, so one symmetric
    eigenvalue problem decides, by _form_kind, the rule the search
    accepts a certificate by.  An indefinite verdict carries a tangent
    witness vector with positive form value.  A form that leaves the
    float range, in its entries or its symmetric part, raises ValueError.
    """
    relative_cut(tol)  # ValueError for a tol that is not a finite number >= 0, whatever the game
    if not formal_equilibria(game).exists:
        return Classification(NO_FORMAL_EQUILIBRIUM)
    with np.errstate(over="ignore", invalid="ignore"):
        sym = _first_form(game, d)
    if not np.isfinite(sym).all():
        raise ValueError(f"the form scaled by {d.values} leaves the float range, |x| <= {np.finfo(float).max:.4g}")
    kind = _form_kind(np.linalg.eigvalsh(sym), tol)
    if kind != INDEFINITE:
        return Classification(kind)
    top = np.linalg.eigh(sym)[1][:, -1]
    return Classification(INDEFINITE, witness=expand_vertex_vector(game.gtype, first_vertex(game.gtype), top))


def find_scaling(game: PolymatrixGame, tol: float = SEMIDEF_TOL) -> DiagonalScaling | None:
    """The analysis's certificate: a positive group diagonal, first group at 1, or None.

    None also when the game has no formal equilibrium, as for
    check_with_scaling and Analysis.  A tol that is not a finite number
    >= 0 raises ValueError.
    """
    return Analysis(game, tol).scaling


def _search(game: PolymatrixGame, tol: float) -> CertificateSearch:
    """A certificate d > 0 of S(d) = sum_g d_g S_g <= 0, a proof that none exists, or neither.

    S_g is the part of Sym(A_v D_v) at the first vertex that d_g scales.
    A proof is a unit u with every u'S_g u exactly 0 or above its cut
    relative_cut(tol, |S_g|), one at least above, so u'S(d)u > 0 for all
    d > 0.  Tried in order: the identity and its top eigenvector; the
    same-group directions u (e_i, e_i - e_j), where u'S(d)u = d_g u'A_v u,
    so a value above the cut proves and one within it forces S(d)u = 0,
    whose nullspace is the face of all certificates; on that face, with
    the forced kernel projected out, Kelley cuts u'S(d)u from top
    eigenvectors, each LP minimizing the largest cut and -d_g over
    sum d = 1 (a negative optimum is strictly positive), until an LP
    bound exceeds tol or _CUTS cuts.
    A d is accepted when _form_kind of its eigenvalues is not indefinite,
    and that verdict is the record's kind.
    """
    p, vm = game.gtype.p, vertex_matrix(game, first_vertex(game.gtype))
    groups, at_ones = game.gtype.groups[list(vm.index_set)], _sym(vm.entries)
    nothing = CertificateSearch(NO_CERTIFICATE)

    def certify(d: np.ndarray, sym: np.ndarray | None = None) -> CertificateSearch | None:
        values = d / d[0] if d[0] > 0 else d
        if not ((values > 0) & (values < np.inf)).all():
            return None
        scaling = DiagonalScaling(tuple(values))
        kind = _form_kind(np.linalg.eigvalsh(_first_form(game, scaling) if sym is None else sym), tol)
        return None if kind == INDEFINITE else CertificateSearch(kind, scaling=scaling)

    def proves(u: np.ndarray) -> bool:
        vals = np.einsum("i,gij,j->g", u, parts, u)
        above = vals > zero_cut
        return bool(above.any() and (above | (vals == 0)).all())

    got = certify(np.ones(p), at_ones)
    if got is not None:
        return got

    # A_v's group column blocks; + 0.0 unsigns the zeros, so the parts read only A_v's values
    parts = _sym(vm.entries * (groups == np.arange(p)[:, None])[:, None, :]) + 0.0
    norms = np.linalg.svd(parts, compute_uv=False)[:, 0]
    zero_cut = relative_cut(tol, norms)
    u = np.linalg.eigh(at_ones)[1][:, -1]
    if proves(u):
        return CertificateSearch(NOT_DISSIPATIVE, proof=u)

    basis, kernel = np.eye(len(groups)), []
    for g in range(p):
        for i, j in itertools.combinations_with_replacement(np.flatnonzero(groups == g), 2):
            u = basis[i] if i == j else (basis[i] - basis[j]) / np.sqrt(2.0)
            if proves(u):
                return CertificateSearch(NOT_DISSIPATIVE, proof=u)
            if abs(u @ parts[g] @ u) <= zero_cut[g]:
                kernel.append(u)
    face, rest = np.identity(p), basis
    if kernel:
        forced = np.einsum("gij,mj->mig", parts, np.array(kernel)).reshape(-1, p)
        if np.abs(forced).max() > zero_cut.max():  # rounding noise alone forces nothing
            face = _nullspace(forced)
        rest = _nullspace(np.array(kernel))

    # Not at the first cut, so memory does not hinge on which games need an LP; the proofs above need none.
    import scipy.optimize

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
    normal = gt.indicator.T * np.sqrt(1.0 / np.array(gt.sizes))
    tangent = _nullspace(normal.T).T
    return np.hstack([normal, tangent])


def skew_decomposition(
    game: PolymatrixGame, d: DiagonalScaling, tol: float = SEMIDEF_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Split the scaled payoff of a conservative game: A D = A0 + C.

    A0 is skew-symmetric and C has equal-row blocks, exhibiting the game
    as equivalent to (A0 D^-1) D, the skew normal form of a conservative
    game.  Rejects inputs that do not certify conservative under d, and
    a d under which check_with_scaling refuses the form.
    """
    verdict = check_with_scaling(game, d, tol=tol)
    if verdict.kind != CONSERVATIVE:
        raise ValueError(f"game is {verdict.kind} under this scaling, not conservative")
    b = scaled_game(game, d).payoff
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


_CYCLE_FAILURE = "a cycle without a strong link remains"
_SKEW_FAILURE = "no positive diagonal makes the matrix almost skew-symmetric"
# A vertex's failures, by (cycle_ok, skew_ok).
FAILURES = {
    (True, True): (),
    (True, False): (_SKEW_FAILURE,),
    (False, True): (_CYCLE_FAILURE,),
    (False, False): (_CYCLE_FAILURE, _SKEW_FAILURE),
}


def _walk(k: int, i: list[int], j: list[int]) -> list[tuple[int, int, int, bool]]:
    """The spanning-forest walk over the pairs (i, j), i < j, of one zero pattern, as the step each pair is.

    One depth-first walk from each component's smallest index, reading
    neighbours in pair order.  A pair the walk takes is the step (depth,
    parent, child, forward): d[child] = d[parent] * r, with r the pair's
    ratio d_j / d_i when forward and 1 / r when the step runs from j back
    to i.  Roots are at depth 0 and keep d = 1; a pair off the forest is
    (0, 0, 0, False).
    """
    adj: list[list[tuple[int, int, bool]]] = [[] for _ in range(k)]
    for q, (a, b) in enumerate(zip(i, j)):
        adj[a].append((b, q, True))
        adj[b].append((a, q, False))
    depth, steps = [-1] * k, [(0, 0, 0, False)] * len(i)
    for root in range(k):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            a = stack.pop()
            for b, q, ahead in adj[a]:
                if depth[b] < 0:
                    depth[b] = depth[a] + 1
                    steps[q] = (depth[b], a, b, ahead)
                    stack.append(b)
    return steps


def _walks(k: int, groups: int, g: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """_walk of each group's pairs (i, j), the pairs sorted by group: the steps (len(i), 4), in pair order."""
    counts = np.bincount(g, minlength=groups).tolist()
    ii, jj, at = i.tolist(), j.tolist(), 0
    steps = []
    for n in counts:
        if n:
            steps += _walk(k, ii[at : at + n], jj[at : at + n])
        at += n
    return np.array(steps, dtype=np.intp).reshape(-1, 4)


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and position of each entry of range(c) for c in counts, laid end to end."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (counts.cumsum() - counts)[owner]


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row of a (V, b) byte array, and the group of every row.

    The rows are compared as b // 8 + 1 words of 64 bits, zero-padded,
    so that even b = 0 leaves a word to sort by.
    """
    count, b = keys.shape
    words = np.zeros((count, b // 8 + 1), dtype=np.uint64)
    words.view(np.uint8)[:, :b] = keys
    order = np.lexsort(words.T)
    new = np.ones(count, dtype=bool)
    new[1:] = (words[order[1:]] != words[order[:-1]]).any(axis=1)
    group = np.empty(count, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def almost_skew_symmetric(m: np.ndarray, tol: float = SEMIDEF_TOL) -> bool:
    """Antisymmetric across zero-diagonal indices, definite on the rest.

    Requires (checked internally) that the matrix is dissipative in the
    unscaled sense: top eigenvalue of its symmetric part at most the
    relative tolerance; a symmetric part past the float range fails.
    Condition two asks for strict negative definiteness of the symmetric
    part on the coordinates with nonzero diagonal, by zero_entries.
    """
    t = np.asarray(m, dtype=float)[None]
    return bool(_almost_skew(t, np.diagonal(zero_entries(t, tol), axis1=1, axis2=2), tol)[0])


def _almost_skew(t: np.ndarray, zero_diag: np.ndarray, tol: float) -> np.ndarray:
    """almost_skew_symmetric of each matrix of a stack, its zero diagonal entries given."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = _sym(t)
    ok = np.isfinite(s).all(axis=(1, 2))
    if t.shape[-1] == 0:
        return ok
    s[~ok] = 0.0  # a symmetric part past the float range has no eigenvalues to check: the row fails
    eigs = np.linalg.eigvalsh(s)
    ok &= ~(eigs[:, -1] > relative_cut(tol, np.abs(eigs).max(axis=-1)))
    # the symmetric part vanishes off the diagonal on every zero-diagonal row, by zero_entries of s
    which, row = np.nonzero(zero_diag)
    zero_row = zero_entries(s, tol)[which, row] | (np.arange(t.shape[-1]) == row[:, None])
    ok[which[~zero_row.all(axis=1)]] = False
    # strictly negative definite on the rest, one stacked eigenproblem per size
    rest = ~zero_diag
    size = rest.sum(axis=1)
    for r in sorted(set(size[ok].tolist()) - {0}):
        which = np.flatnonzero(ok & (size == r))
        idx = np.nonzero(rest[which])[1].reshape(len(which), r)
        sub_eigs = np.linalg.eigvalsh(s[which[:, None, None], idx[:, :, None], idx[:, None, :]])
        ok[which] = sub_eigs[:, -1] < -relative_cut(tol, np.abs(sub_eigs).max(axis=-1))
    return ok


def _decide(
    t: np.ndarray, zero: np.ndarray, edges: np.ndarray, signs: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both conditions of stable dissipativity on a stack (V, k, k), its zero pattern and graph given.

    Returns cycle_ok and skew_ok, each (V,), and the candidate scaling d,
    (V, k), which is the scaling wherever skew_ok holds.  The edges and
    diagonal signs are graph_pattern(t, zero)'s, built by the caller:
    sign 0 is a zero diagonal, -1 a damped one.  The rows are grouped by
    their zero pattern and damped set; the cycle test (the graph less
    its strong links is a forest exactly when _walk takes every edge as
    a step, which it cannot on k edges or more), the constraint pairs,
    the one-sided rejection and the order of the ratio walk read only
    those, so they run once per group, on its first row.  The values are
    read BLOCK rows at a time, so the per-pair arrays stay small whatever
    V is: the ratios d_j / d_i = -m_ji / m_ij and their range check, the
    walk's steps applied depth by depth to every row of the block, the
    check of the constraints off the forest, and _almost_skew of M diag(d)
    on M's zero diagonal (M diag(d) has the zero pattern of M for d > 0).
    Each step multiplies as the walk on one matrix would, so every d is
    the same float it would be there.
    """
    count, k = t.shape[:2]
    idx = np.arange(k)
    zero_diag, damped = signs == 0, signs < 0
    first, group = _groups(np.packbits(np.concatenate([zero.reshape(count, k * k), damped], axis=1), axis=1))

    # once per group: its first row stands for all of it
    z, e, zd, strong = zero[first], edges[first] & (idx[:, None] < idx), zero_diag[first], damped[first]
    cg, ci, cj = np.nonzero(e & ~(strong[:, :, None] & strong[:, None, :]))
    # a forest on k nodes has at most k - 1 edges; among those graphs, an edge the walk does not take closes a cycle
    cycle_ok = np.bincount(cg, minlength=len(first)) <= max(k - 1, 0)
    few = cycle_ok[cg]
    cycle_ok[cg[few][_walks(k, len(first), cg[few], ci[few], cj[few])[:, 0] == 0]] = False
    cycle_ok = cycle_ok[group]
    # the constraint pairs: coupled, and touching a zero diagonal; a one-sided one forces d to zero
    pg, pi, pj = np.nonzero((zd[:, :, None] | zd[:, None, :]) & e)
    one_sided = z[pg, pi, pj] != z[pg, pj, pi]
    step = _walks(k, len(first), pg, pi, pj)
    npairs = np.bincount(pg, minlength=len(first))
    pair_start = npairs.cumsum() - npairs

    # per block of rows: every row's pairs, in row order, then its group's pair order
    d = np.ones((count, k))  # each component's root pinned to 1
    skew_ok = np.ones(count, dtype=bool)
    for b in blocks(count):
        row, q = _ragged(npairs[group[b]])
        row += b.start
        at = pair_start[group[row]] + q
        i, j = pi[at], pj[at]
        with np.errstate(all="ignore"):  # 0, inf or nan only in rows rejected here, whose d is not kept
            ratio = -t[row, j, i] / t[row, i, j]  # d_j / d_i
            # m_ij d_j = -m_ji d_i has no d > 0 when the coupling is one-sided or the ratio is not
            # positive (equal signs), nor any d a float can hold when it under- or overflows
            skew_ok[row[one_sided[at] | ~((ratio > 0) & (ratio < np.inf))]] = False
            # the walk's steps in every row, shallowest first, so that each parent is set before its children
            order = np.argsort(step[at, 0], kind="stable")
            depth, parent, child, forward = step[at[order]].T
            srow, factor = row[order], np.where(forward == 1, ratio[order], 1.0 / ratio[order])
            levels = np.searchsorted(depth, np.arange(1, k + 1)).tolist()
            for lo, hi in zip(levels, levels[1:]):
                d[srow[lo:hi], child[lo:hi]] = d[srow[lo:hi], parent[lo:hi]] * factor[lo:hi]
            # the constraints off the forest must agree with it
            d_i, d_j = d[row, i], d[row, j]
            off = np.abs(d_j - d_i * ratio) > FOREST_RTOL * np.maximum(np.abs(d_j), np.abs(d_i * ratio))
        skew_ok[row[off]] = False
        skew_ok[b] &= (d[b] > 0).all(axis=1)

        c = b.start + np.flatnonzero(skew_ok[b])
        # ratios in range can still multiply out of the float range, in d or M diag(d): _almost_skew fails those
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = t[c] * d[c, None, :]
        skew_ok[c] = _almost_skew(scaled, zero_diag[c], tol)
    return cycle_ok, skew_ok, d


def stably_dissipative(m: np.ndarray, tol: float = SEMIDEF_TOL) -> StableDissipativityReport:
    """Decide stable dissipativity of a square matrix.

    Two independently checkable conditions: after deleting every strong
    link (edge whose two endpoint diagonals are negative) the zero-pattern
    graph must be acyclic, and some positive diagonal rescaling must make
    the matrix almost skew-symmetric.  Both read the zero pattern of
    zero_entries, the one vertex_graph draws.  Row 0 of
    stably_dissipative_stack on the stack of one.
    """
    t = np.asarray(m, dtype=float)[None]
    cycle_ok, skew_ok, d = stably_dissipative_stack(t, zero_entries(t, tol), tol)
    cycle, skew = bool(cycle_ok[0]), bool(skew_ok[0])
    return StableDissipativityReport(cycle and skew, d[0] if skew else None, cycle, skew, FAILURES[cycle, skew])


def stably_dissipative_stack(
    t: np.ndarray, zero: np.ndarray, tol: float = SEMIDEF_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """stably_dissipative of each matrix of a stack (V, k, k), given its zero_entries: _decide's arrays."""
    return _decide(t, zero, *graph_pattern(t, zero), tol)


@dataclass(frozen=True, eq=False)
class Analysis:
    """The admissibility decision for one game, and everything it reads.

    Each field is computed on first use and then kept.  The decision
    runs in order: a formal equilibrium, then a certificate (searched for
    only when an equilibrium exists), then a stably dissipative vertex.
    Games are immutable, so an analysis never goes stale.  The search
    and the vertex fields read the game in its unit (unit, from
    games.in_unit), so every verdict is the same for the game times any
    power of two; tensor holds the unit game's matrices, which times
    2**unit[1] are the game's own.  The vertex fields are arrays over the
    rows of one vertex_tensor: tensor, pattern (its graphs) and verdicts,
    decided on pattern, so graph_pattern runs once per analysis.  Every
    stage (reduction's entry points, collapse.hamiltonian_collapse) is
    handed an analysis and reads admissibility, the certificate and V*
    (stable_rows) from it; none is shared behind the caller's back.  A
    tolerance that is not a finite number >= 0 raises ValueError, and so
    does the first vertex field of a game past vertices.MAX_VERTICES or
    MAX_ENTRIES.
    """

    game: PolymatrixGame
    tol: float = SEMIDEF_TOL

    def __post_init__(self):
        relative_cut(self.tol)  # ValueError for a tol that is not a finite number >= 0

    @functools.cached_property
    def unit(self) -> tuple[PolymatrixGame, int]:
        """in_unit of the game: the game the verdicts are read from, and its exponent."""
        return in_unit(self.game)

    @functools.cached_property
    def tensor(self) -> tuple[list[VertexLabel], np.ndarray, np.ndarray]:
        """vertex_tensor of the unit game: the labels, index sets and stacked vertex matrices."""
        return vertex_tensor(self.unit[0])

    @functools.cached_property
    def _zero(self) -> np.ndarray:
        """The zero pattern of every vertex matrix, shared by verdicts and pattern."""
        t = self.tensor[2]
        return np.concatenate([zero_entries(t[b], self.tol) for b in blocks(len(t))])

    @functools.cached_property
    def pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """graph_pattern of every vertex: edges (V, k, k) and diagonal signs (V, k), the rules' graphs."""
        return graph_pattern(self.tensor[2], self._zero)

    @functools.cached_property
    def verdicts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """stably_dissipative_stack of tensor, on pattern: cycle_ok, skew_ok (V,) and d (V, k); read-only."""
        verdicts = _decide(self.tensor[2], self._zero, *self.pattern, self.tol)
        for a in verdicts:
            a.setflags(write=False)
        return verdicts

    @functools.cached_property
    def stable_rows(self) -> np.ndarray:
        """The rows of tensor whose vertex is stably dissipative, ascending; read-only."""
        rows = np.flatnonzero(self.verdicts[0] & self.verdicts[1])
        rows.flags.writeable = False
        return rows

    @functools.cached_property
    def vstar(self) -> tuple[VertexLabel, ...]:
        """The stably dissipative vertices, the labels at stable_rows: enumeration order."""
        return tuple(self.tensor[0][r] for r in self.stable_rows.tolist())

    @functools.cached_property
    def equilibria(self) -> EquilibriumSet:
        return formal_equilibria(self.game)

    @functools.cached_property
    def search(self) -> CertificateSearch:
        """The certificate search's record, searched only when a formal equilibrium exists."""
        if not self.equilibria.exists:
            return CertificateSearch(NO_FORMAL_EQUILIBRIUM)
        return _search(self.unit[0], self.tol)

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


def stable_vertices(game: PolymatrixGame, tol: float = SEMIDEF_TOL) -> list[VertexLabel]:
    """Vertices whose coefficient matrix is stably dissipative."""
    return list(Analysis(game, tol).vstar)


def admissible(game: PolymatrixGame, tol: float = SEMIDEF_TOL) -> tuple[bool, list[VertexLabel]]:
    """Whether the game is dissipative with a stably dissipative vertex, and V*.

    Both are the analysis's: Analysis.admissible, whose certificate is
    the search's, and the full list of stable vertices.
    """
    an = Analysis(game, tol)
    return an.admissible, list(an.vstar)


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
    plus the largest principal angle between the two spans.  ValueError
    unless m is square, d holds one positive finite entry per row of m,
    and tol is a finite number >= 0.
    """
    relative_cut(tol)
    m = np.asarray(m, dtype=float)
    d = np.asarray(d, dtype=float)
    if not (m.ndim == 2 and m.shape[0] == m.shape[1] and d.shape == m.shape[:1] and ((0 < d) & (d < np.inf)).all()):
        raise ValueError(f"expected a square M and one positive finite d per row, got M {m.shape} and d {d.shape}")
    k1 = _nullspace(m).T
    k2 = d[:, None] * _nullspace(m.T).T
    if k1.shape[1] != k2.shape[1]:
        return False
    if k1.shape[1] == 0:
        return True
    return _largest_angle(k1, k2) <= tol
