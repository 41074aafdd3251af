"""The per-vertex vertex layer, one matrix at a time: the reference the stacked layer must match bit for bit.

Kept as it was before the vertex matrices, zero patterns, graphs and
stability reports were computed as stacks.  Each function reads one
vertex and uses numpy scalars or Python floats exactly where the loop
version did, so a stacked result that differs in any bit is a defect.
"""

from __future__ import annotations

import numpy as np

from polyrep.games import SEMIDEF_TOL
from polyrep.stability import StableDissipativityReport
from polyrep.vertices import StrategyGraph


def vertex_matrix(game, v) -> tuple[tuple[int, ...], np.ndarray]:
    """The index set and A_v = [a_ik] + [a_jl] - [a_il] - [a_jk], gathered by np.ix_."""
    idx = v.support(game.gtype)
    a = game.payoff
    ii = np.array(idx, dtype=int)
    jj = np.array([v.partner(game.gtype, i) for i in idx], dtype=int)
    return idx, a[np.ix_(ii, ii)] + a[np.ix_(jj, jj)] - a[np.ix_(ii, jj)] - a[np.ix_(jj, ii)]


def zero_entries(m: np.ndarray, tol: float = SEMIDEF_TOL) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    return np.abs(m) <= tol * scale


def vertex_graph(idx: tuple[int, ...], m: np.ndarray, tol: float = SEMIDEF_TOL) -> StrategyGraph:
    k = len(idx)
    zero = zero_entries(m, tol).tolist()
    edges = {(idx[a], idx[b]) for a in range(k) for b in range(a + 1, k) if not (zero[a][b] and zero[b][a])}
    diag = {i: 0 if zero[a][a] else (1 if x > 0 else -1) for a, (i, x) in enumerate(zip(idx, m.diagonal().tolist()))}
    return StrategyGraph(idx, frozenset(edges), diag)


def _sym(m):
    return 0.5 * (m + m.T)


def _spectral_scale(eigs):
    return max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 0.0)


def _forest_edges(adj):
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


def _almost_skew(m, zero_diag, tol):
    if m.size == 0:
        return True
    s = _sym(m)
    eigs = np.linalg.eigvalsh(s)
    if float(eigs[-1]) > tol * _spectral_scale(eigs):
        return False
    if not (zero_entries(s, tol) | np.eye(len(s), dtype=bool))[zero_diag].all():
        return False
    rest = np.flatnonzero(~zero_diag)
    if not rest.size:
        return True
    sub_eigs = np.linalg.eigvalsh(s[np.ix_(rest, rest)])
    return float(sub_eigs[-1]) < -tol * _spectral_scale(sub_eigs)


def _almost_skew_scaling(m, zero, tol):
    k = len(m)
    z, vals = zero.tolist(), m.tolist()
    ratios = {}
    adj = [[] for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if not (z[i][i] or z[j][j]) or (z[i][j] and z[j][i]):
                continue
            if z[i][j] != z[j][i]:
                return None
            mij, mji = vals[i][j], vals[j][i]
            if mij * mji > 0:
                return None
            ratios[i, j] = -mji / mij
            adj[i].append(j)
            adj[j].append(i)
    d = np.ones(k)
    for i, j in _forest_edges(adj):
        d[j] = d[i] * (ratios[i, j] if i < j else 1.0 / ratios[j, i])
    for (i, j), r in ratios.items():
        if abs(d[j] - d[i] * r) > 1e-9 * max(abs(d[j]), abs(d[i] * r)):
            return None
    if not _almost_skew(m * d, np.diagonal(zero), tol):
        return None
    return d


def stably_dissipative(m: np.ndarray, tol: float = SEMIDEF_TOL) -> StableDissipativityReport:
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
    return StableDissipativityReport(cycle_ok and skew_ok, scaling, cycle_ok, skew_ok, tuple(failures))
