"""Dimension reduction of the attractor dynamics.

Removing a strategy whose frequency is pinned at its equilibrium value
produces a polymatrix game one dimension down whose replicator field
matches the original on the slice (after the group rescale that restores
unit sums).  Iterating over the negative-diagonal strategies of a stable
vertex drives every diagonal to zero, at which point the game is
conservative: the limit dynamics are Hamiltonian.

Payoff arithmetic here runs through exact rationals, so integer games
with rational equilibria reduce to exactly-integer matrices.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .games import (
    DiagonalScaling,
    GameType,
    PolymatrixGame,
    check_prism_state,
    vector_field,
)
from .stability import (
    CONSERVATIVE,
    SEMIDEF_TOL,
    _zero_diag_tol,
    admissible,
    analyse,
    check_with_scaling,
)
from .vertices import VertexLabel, scaled_game, vertex_matrix


@dataclass(frozen=True)
class ReductionMap:
    """Composed identification between an original and a reduced prism.

    ``kept`` lists the surviving strategies as indices into the original
    game; ``scale`` holds the coordinate rescale factor of each survivor
    (the product of 1/(1-q_l) over the removals in its group).  States
    and velocities both transform by the same diagonal linear map.
    """

    kept: tuple[int, ...]
    scale: tuple[float, ...]

    def map_state(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x[..., list(self.kept)] * np.array(self.scale)

    @staticmethod
    def identity(n: int) -> "ReductionMap":
        return ReductionMap(tuple(range(n)), (1.0,) * n)


@dataclass(frozen=True)
class ReductionStep:
    removed: int  # strategy index in the game the step was applied to
    removed_original: int  # same strategy as an index into the original game
    group: int
    q_ell: float
    before: GameType
    after: GameType
    scale_factor: float  # 1 / (1 - q_ell), applied to the group's diagonal entry
    cleanup_group: int | None = None  # set when the group collapsed and was folded away


@dataclass(frozen=True, eq=False)
class CollapseResult:
    steps: tuple[ReductionStep, ...]
    final_game: PolymatrixGame
    final_equilibrium: np.ndarray
    certificate: DiagonalScaling
    identification: ReductionMap
    vertex: VertexLabel  # stable vertex of the final game, all diagonals zero


def _to_fractions(values) -> list[Fraction]:
    out = []
    for v in np.asarray(values).ravel():
        out.append(v if isinstance(v, Fraction) else Fraction(float(v)))
    return out


def _payoff_fractions(game: PolymatrixGame) -> list[list[Fraction]]:
    n = game.n
    flat = _to_fractions(game.payoff)
    return [flat[i * n : (i + 1) * n] for i in range(n)]


def rationalize_equilibrium(
    game: PolymatrixGame, q: np.ndarray, max_denominator: int = 10**9
) -> list[Fraction] | None:
    """Snap a float equilibrium to exact rationals, verified exactly.

    The formal-equilibrium conditions of an integer game have rational
    solutions with moderate denominators; the snapped candidate is only
    returned when it satisfies the defining equations in exact
    arithmetic, so this can never silently distort an equilibrium.
    """
    a = _payoff_fractions(game)
    cand = [Fraction(float(x)).limit_denominator(max_denominator) for x in np.asarray(q)]
    gt = game.gtype
    for grp in range(gt.p):
        idx = list(gt.group_indices(grp))
        if sum(cand[i] for i in idx) != 1:
            return None
        pay = [sum(a[i][j] * cand[j] for j in range(gt.n)) for i in idx]
        if any(pv != pay[0] for pv in pay[1:]):
            return None
    return cand


def _reduced_type(gtype: GameType, group: int) -> GameType:
    sizes = list(gtype.sizes)
    sizes[group] -= 1
    return GameType(tuple(sizes))


def q_ell_reduction(game: PolymatrixGame, q, ell: int) -> PolymatrixGame:
    """Remove strategy ``ell``, producing the slice dynamics one size down.

    The new entry for row i, column j is a_ij - a_lj when j is outside
    ell's group, and (a_ij - a_lj)(1 - q_l) + (a_il - a_ll) q_l when j is
    a surviving member of it.  ``q`` may carry Fractions for an exact
    reduction; q_l must be strictly between 0 and 1 and ell's group must
    have at least two strategies.
    """
    gt = game.gtype
    alpha = gt.group_of(ell)
    if gt.sizes[alpha] < 2:
        raise ValueError(f"group {alpha} has a single strategy; nothing to remove")
    qf = _to_fractions(q)
    q_ell = qf[ell]
    if not 0 < q_ell < 1:
        raise ValueError(f"q[{ell}] = {float(q_ell)} is not strictly inside (0, 1)")
    a = _payoff_fractions(game)
    keep = [i for i in range(gt.n) if i != ell]
    in_alpha = set(gt.group_indices(alpha))
    one_minus = 1 - q_ell
    rows = []
    for i in keep:
        row = []
        for j in keep:
            base = a[i][j] - a[ell][j]
            if j in in_alpha:
                row.append(base * one_minus + (a[i][ell] - a[ell][ell]) * q_ell)
            else:
                row.append(base)
        rows.append([float(x) for x in row])
    return PolymatrixGame(_reduced_type(gt, alpha), np.array(rows))


def reduce_equilibrium(gtype: GameType, q, ell: int) -> list[Fraction]:
    """The induced equilibrium: drop q_l, rescale its group to unit sum."""
    alpha = gtype.group_of(ell)
    qf = _to_fractions(q)
    one_minus = 1 - qf[ell]
    out = []
    for i in range(gtype.n):
        if i == ell:
            continue
        out.append(qf[i] / one_minus if gtype.group_of(i) == alpha else qf[i])
    return out


def cardinal2_cleanup(game: PolymatrixGame, q, alpha: int) -> PolymatrixGame:
    """Drop a group that a reduction shrank to its last, pinned strategy.

    The survivor's frequency is identically one, so its column acts as a
    constant payoff offset; the offset is folded into the columns of the
    first remaining group (whose frequencies sum to one), which preserves
    every payoff exactly, and the group is removed.
    """
    gt = game.gtype
    if gt.sizes[alpha] != 1:
        raise ValueError(
            f"group {alpha} has size {gt.sizes[alpha]}; cleanup applies to the "
            "single pinned survivor of a reduced two-strategy group"
        )
    if gt.p == 1:
        raise ValueError("cannot fold away the only group")
    pinned = gt.offsets[alpha]
    target = next(g for g in range(gt.p) if g != alpha)
    target_cols = set(gt.group_indices(target))
    a = _payoff_fractions(game)
    keep = [i for i in range(gt.n) if i != pinned]
    rows = []
    for i in keep:
        row = []
        for j in keep:
            v = a[i][j] + a[i][pinned] if j in target_cols else a[i][j]
            row.append(float(v))
        rows.append(row)
    sizes = tuple(s for g, s in enumerate(gt.sizes) if g != alpha)
    return PolymatrixGame(GameType(sizes), np.array(rows))


class _Cursor:
    """Mutable bookkeeping for a chain of reductions."""

    def __init__(self, game: PolymatrixGame, q, d: DiagonalScaling | None):
        self.game = game
        self.q = _to_fractions(q)
        self.d = list(d.values) if d is not None else [1.0] * game.gtype.p
        self.kept = list(range(game.gtype.n))
        self.scale = [Fraction(1)] * game.gtype.n
        self.steps: list[ReductionStep] = []

    def q_floats(self) -> np.ndarray:
        return np.array([float(x) for x in self.q])

    def map(self) -> ReductionMap:
        return ReductionMap(tuple(self.kept), tuple(float(s) for s in self.scale))

    def remove(self, ell: int) -> int:
        """Apply one reduction at local index ell; returns its group."""
        gt = self.game.gtype
        alpha = gt.group_of(ell)
        q_ell = self.q[ell]
        before = gt
        new_game = q_ell_reduction(self.game, self.q, ell)
        factor = Fraction(1) / (1 - q_ell)
        step = ReductionStep(
            removed=ell,
            removed_original=self.kept[ell],
            group=alpha,
            q_ell=float(q_ell),
            before=before,
            after=new_game.gtype,
            scale_factor=float(factor),
        )
        self.q = reduce_equilibrium(gt, self.q, ell)
        in_alpha = set(gt.group_indices(alpha))  # local positions in the old game
        self.scale = [
            s * factor if pos in in_alpha else s
            for pos, s in enumerate(self.scale)
            if pos != ell
        ]
        del self.kept[ell]
        self.d[alpha] = self.d[alpha] * float(factor)
        self.game = new_game
        self.steps.append(step)

        if new_game.gtype.sizes[alpha] == 1 and new_game.gtype.p > 1:
            pinned = new_game.gtype.offsets[alpha]
            cleaned = cardinal2_cleanup(new_game, self.q, alpha)
            self.q = [x for i, x in enumerate(self.q) if i != pinned]
            del self.scale[pinned]
            del self.kept[pinned]
            del self.d[alpha]
            self.game = cleaned
            self.steps[-1] = dataclasses.replace(
                step, after=cleaned.gtype, cleanup_group=alpha
            )
        return alpha


def reduce_by_set(
    game: PolymatrixGame, q, strategies
) -> tuple[PolymatrixGame, ReductionMap]:
    """Remove a set of pinned strategies, highest index first.

    Groups that shrink to a single pinned survivor are folded away.  A
    requested strategy that disappears in such a fold is skipped (its
    removal is already implied).  Returns the reduced game and the
    composed identification map.
    """
    cur = _Cursor(game, q, None)
    for orig in sorted(strategies, reverse=True):
        if orig not in cur.kept:
            continue
        cur.remove(cur.kept.index(orig))
    return cur.game, cur.map()


def hamiltonian_collapse(
    game: PolymatrixGame,
    q,
    d: DiagonalScaling | None = None,
    tol: float = SEMIDEF_TOL,
) -> CollapseResult:
    """Collapse an admissible game to its conservative core.

    From the smallest stable vertex, repeatedly remove the lowest
    strategy with a negative vertex diagonal, transporting the
    dissipativity certificate (the removed group's entry picks up a
    1/(1-q_l) factor) until every diagonal of the current vertex matrix
    vanishes.  The final game must certify conservative; failure of that
    check is a hard error, since the construction guarantees it.
    """
    ok, vstar = admissible(game, d, tol=tol)
    if not ok:
        raise ValueError("hamiltonian collapse requires an admissible game")
    qf = np.array([float(x) for x in _to_fractions(q)])
    if check_prism_state(game.gtype, qf) or np.min(qf) <= 0:
        raise ValueError("q must be a strictly interior prism state")
    if float(np.max(np.abs(vector_field(game, qf)))) > 1e-8:
        raise ValueError("q is not an equilibrium of the game")
    if d is None:
        d = analyse(game, tol).scaling  # admissible, so the search found one

    vertex = min(vstar, key=lambda v: v.chosen)
    chosen = list(vertex.chosen)  # tracked as original-game indices
    cur = _Cursor(game, q, d)

    while True:
        local_chosen = tuple(cur.kept.index(c) for c in chosen)
        v_now = VertexLabel(local_chosen)
        vm = vertex_matrix(cur.game, v_now)
        zd = _zero_diag_tol(vm.entries, tol)
        removable = [i for a, i in enumerate(vm.index_set) if vm.entries[a, a] < -zd]
        if not removable:
            break
        before_vm = vertex_matrix(scaled_game(cur.game, DiagonalScaling(tuple(cur.d))), v_now)
        ell = min(removable)
        ell_pos = before_vm.index_set.index(ell)
        alpha = cur.remove(ell)
        if cur.steps[-1].cleanup_group is not None:
            del chosen[alpha]

        # certificate transport: the scaled vertex matrix of the reduced game
        # is the old one with the removed row and column deleted
        local_chosen = tuple(cur.kept.index(c) for c in chosen)
        after_vm = vertex_matrix(
            scaled_game(cur.game, DiagonalScaling(tuple(cur.d))), VertexLabel(local_chosen)
        )
        expect = np.delete(np.delete(before_vm.entries, ell_pos, 0), ell_pos, 1)
        err = float(np.max(np.abs(after_vm.entries - expect))) if expect.size else 0.0
        if err > 1e-9 * max(1.0, float(np.max(np.abs(expect))) if expect.size else 0.0):
            raise RuntimeError("certificate transport failed; reduction is inconsistent")

    certificate = DiagonalScaling(tuple(cur.d))
    verdict = check_with_scaling(cur.game, certificate, tol=tol)
    if verdict.kind != CONSERVATIVE:
        raise RuntimeError(
            f"collapsed game classifies as {verdict.kind}, not conservative; "
            "this contradicts the reduction guarantee"
        )
    local_chosen = tuple(cur.kept.index(c) for c in chosen)
    return CollapseResult(
        steps=tuple(cur.steps),
        final_game=cur.game,
        final_equilibrium=cur.q_floats(),
        certificate=certificate,
        identification=cur.map(),
        vertex=VertexLabel(local_chosen),
    )
