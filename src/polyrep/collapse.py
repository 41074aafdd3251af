"""Dimension reduction of the attractor dynamics.

Removing a strategy whose frequency is pinned at its equilibrium value
produces a polymatrix game one dimension down whose replicator field
matches the original on the slice (after the group rescale that restores
unit sums).  Iterating over the negative-diagonal strategies of a stable
vertex drives every diagonal to zero, at which point the game is
conservative: the limit dynamics are Hamiltonian.

Every reduced payoff entry is its exact value rounded once to a float:
one IEEE addition or subtraction where q does not enter, exact rationals
where it does.  So integer games with rational equilibria reduce to
exactly-integer matrices.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .games import DiagonalScaling, GameType, PolymatrixGame, relative_cut
from .stability import CONSERVATIVE, Analysis, check_with_scaling
from .vertices import VertexLabel, VertexMatrix, scaled_game, vertex_matrix

# What the chain's rounding may leave, relative to its scale: each reduction
# rounds, so the core's form is zero to this, not exactly, even at tol 0.
CHAIN_ROUNDING = 1e-9

# Largest denominator rationalize_equilibrium snaps a coordinate to.
MAX_DENOMINATOR = 10**9


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


@dataclass(frozen=True)
class ReductionStep:
    removed_original: int  # the removed strategy as an index into the original game
    group: int
    q_ell: float
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


def _finite(out: np.ndarray) -> np.ndarray:
    """out, unless an entry left the float range, which float(Fraction) would have refused too."""
    if not np.isfinite(out).all():
        raise OverflowError("a reduced payoff entry is not a finite float")
    return out


def rationalize_equilibrium(game: PolymatrixGame, q: np.ndarray) -> list[Fraction] | None:
    """Snap a float equilibrium to exact rationals, verified exactly.

    The formal-equilibrium conditions of an integer game have rational
    solutions with moderate denominators; the snapped candidate is only
    returned when it satisfies the defining equations in exact
    arithmetic, so this can never silently distort an equilibrium.
    """
    n = game.n
    flat = _to_fractions(game.payoff)
    a = [flat[i * n : (i + 1) * n] for i in range(n)]
    cand = [Fraction(float(x)).limit_denominator(MAX_DENOMINATOR) for x in np.asarray(q)]
    gt = game.gtype
    for grp in range(gt.p):
        idx = list(gt.group_indices(grp))
        if sum(cand[i] for i in idx) != 1:
            return None
        pay = [sum(a[i][j] * cand[j] for j in range(gt.n)) for i in idx]
        if any(pv != pay[0] for pv in pay[1:]):
            return None
    return cand


def q_ell_reduction(game: PolymatrixGame, q, ell: int) -> PolymatrixGame:
    """Remove strategy ``ell``, producing the slice dynamics one size down.

    The new entry for row i, column j is a_ij - a_lj when j is outside
    ell's group, and (a_ij - a_lj)(1 - q_l) + (a_il - a_ll) q_l when j is
    a surviving member of it.  ``q`` may carry Fractions for an exact
    reduction; q_l must be strictly between 0 and 1 and ell's group must
    have at least two strategies.  Each entry is the exact value rounded
    once: an IEEE subtraction outside the group, where it is that already
    (+ 0.0 makes its sign of zero the rational's), Fractions inside it.
    """
    gt = game.gtype
    alpha = gt.group_of(ell)
    if gt.sizes[alpha] < 2:
        raise ValueError(f"group {alpha} has a single strategy; nothing to remove")
    q_ell = _to_fractions(q)[ell]
    if not 0 < q_ell < 1:
        raise ValueError(f"q[{ell}] = {float(q_ell)} is not strictly inside (0, 1)")
    keep = np.delete(np.arange(gt.n), ell)
    with np.errstate(over="ignore", invalid="ignore"):
        out = game.payoff[np.ix_(keep, keep)] - game.payoff[ell, keep] + 0.0
    a = game.payoff.tolist()
    one_minus = 1 - q_ell
    mates = [j for j in gt.group_indices(alpha) if j != ell]
    for r, i in enumerate(keep.tolist()):
        pull = (Fraction(a[i][ell]) - Fraction(a[ell][ell])) * q_ell
        for j in mates:
            out[r, j - (j > ell)] = float((Fraction(a[i][j]) - Fraction(a[ell][j])) * one_minus + pull)
    sizes = gt.sizes[:alpha] + (gt.sizes[alpha] - 1,) + gt.sizes[alpha + 1 :]
    return PolymatrixGame(GameType(sizes), _finite(out))


def reduce_equilibrium(gtype: GameType, q, ell: int) -> list[Fraction]:
    """The induced equilibrium: drop q_l, rescale its group to unit sum."""
    alpha = gtype.group_of(ell)
    qf = _to_fractions(q)
    one_minus = 1 - qf[ell]
    out = []
    for i in range(gtype.n):
        if i == ell:
            continue
        out.append(qf[i] / one_minus if gtype.groups[i] == alpha else qf[i])
    return out


def cardinal2_cleanup(game: PolymatrixGame, alpha: int) -> PolymatrixGame:
    """Drop a group that a reduction shrank to its last, pinned strategy.

    The survivor's frequency is identically one, so its column acts as a
    constant payoff offset; the offset is folded into the columns of the
    first remaining group (whose frequencies sum to one), which preserves
    every payoff exactly, and the group is removed.  Each folded entry is
    one IEEE addition, the exact sum rounded once.
    """
    gt = game.gtype
    group = gt.group_indices(alpha)  # IndexError for a group the type does not have
    if len(group) != 1:
        raise ValueError(
            f"group {alpha} has size {len(group)}; cleanup applies to the "
            "single pinned survivor of a reduced two-strategy group"
        )
    if gt.p == 1:
        raise ValueError("cannot fold away the only group")
    pinned = group.start
    target = next(g for g in range(gt.p) if g != alpha)
    keep = np.delete(np.arange(gt.n), pinned)
    cols = [j - (j > pinned) for j in gt.group_indices(target)]  # the target's columns after the drop
    out = game.payoff[np.ix_(keep, keep)] + 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        out[:, cols] += game.payoff[keep, pinned][:, None]
    sizes = tuple(s for g, s in enumerate(gt.sizes) if g != alpha)
    return PolymatrixGame(GameType(sizes), _finite(out))


class _Cursor:
    """Mutable bookkeeping for a chain of reductions, transporting the group diagonal d."""

    def __init__(self, game: PolymatrixGame, q, d: DiagonalScaling):
        self.game = game
        self.q = _to_fractions(q)
        self.d = list(d.values)
        self.kept = list(range(game.gtype.n))
        self.scale = [Fraction(1)] * game.gtype.n
        self.steps: list[ReductionStep] = []

    def q_floats(self) -> np.ndarray:
        return np.array([float(x) for x in self.q])

    def map(self) -> ReductionMap:
        return ReductionMap(tuple(self.kept), tuple(float(s) for s in self.scale))

    def remove(self, ell: int) -> None:
        """Apply one reduction at local index ell."""
        gt = self.game.gtype
        alpha = gt.group_of(ell)
        q_ell = self.q[ell]
        new_game = q_ell_reduction(self.game, self.q, ell)
        factor = Fraction(1) / (1 - q_ell)
        step = ReductionStep(
            removed_original=self.kept[ell],
            group=alpha,
            q_ell=float(q_ell),
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
            cleaned = cardinal2_cleanup(new_game, alpha)
            self.q = [x for i, x in enumerate(self.q) if i != pinned]
            del self.scale[pinned]
            del self.kept[pinned]
            del self.d[alpha]
            self.game = cleaned
            self.steps[-1] = dataclasses.replace(
                step, after=cleaned.gtype, cleanup_group=alpha
            )


def reduce_by_set(
    game: PolymatrixGame, q, strategies
) -> tuple[PolymatrixGame, ReductionMap]:
    """Remove a set of pinned strategies, highest index first.

    Groups that shrink to a single pinned survivor are folded away.  A
    requested strategy that disappears in such a fold is skipped (its
    removal is already implied); one outside range(n) raises IndexError.
    Returns the reduced game and the composed identification map.
    """
    cur = _Cursor(game, q, DiagonalScaling.identity(game.gtype))
    for orig in sorted(strategies, reverse=True):
        if orig not in cur.kept:
            game.gtype.group_of(orig)  # IndexError outside range(n); inside it, a fold took orig
            continue
        cur.remove(cur.kept.index(orig))
    return cur.game, cur.map()


def hamiltonian_collapse(an: Analysis) -> CollapseResult:
    """Collapse the analysis's game, an admissible one, to its conservative core.

    The analysis decides admissibility and gives the certificate, the
    stable vertices and q, its interior equilibrium, exact where
    rationalize_equilibrium verifies it; the analysis of a game that is
    not admissible or has no q raises ValueError.  At the smallest
    stable vertex, remove the strategies the analysis found damped
    (negative diagonal, the set rule 1 blacks) one by one, lowest first,
    transporting the analysis's certificate (the removed group's entry
    picks up a 1/(1-q_l) factor).  The final game must certify conservative;
    failure of that check is a hard error, since the construction
    guarantees it.  The chain runs on the game in the analysis's unit
    (Analysis.unit), as its verdicts are read: the transport check is
    relative to the largest entry of its first scaled vertex matrix, the
    final verdict is read there, at a tolerance of at least
    CHAIN_ROUNDING, and final_game is mapped back to the game's unit.
    """
    game, tol = an.game, an.tol
    if not an.admissible:
        raise ValueError("hamiltonian collapse requires an admissible game")
    q = an.equilibria.interior_point
    if q is None:
        raise ValueError("no interior equilibrium; the collapse is undefined")
    q = rationalize_equilibrium(game, q) or q
    unit, e = an.unit

    row = an.stable_rows[0]  # the smallest: rows ascend in enumeration order
    vertex = an.tensor[0][row]
    damped = an.tensor[1][row][an.pattern[1][row] < 0].tolist()  # ascending, as index sets are
    cur = _Cursor(unit, q, an.scaling)

    def current() -> tuple[VertexLabel, VertexMatrix]:
        """The vertex in the current game's indices, and its scaled vertex matrix."""
        v = VertexLabel(tuple(cur.kept.index(c) for c in vertex.chosen if c in cur.kept))
        return v, vertex_matrix(scaled_game(cur.game, DiagonalScaling(tuple(cur.d))), v)

    v_now, scaled_vm = current()
    # each reduction rounds at this scale, even where the block it leaves is exactly zero
    cut = relative_cut(CHAIN_ROUNDING, np.max(np.abs(scaled_vm.entries), initial=0.0))
    for strategy in damped:  # a fold drops a chosen strategy, never one of these
        ell = cur.kept.index(strategy)
        ell_pos = scaled_vm.index_set.index(ell)
        cur.remove(ell)

        # certificate transport: the scaled vertex matrix of the reduced game
        # is the old one with the removed row and column deleted
        v_now, after_vm = current()
        expect = np.delete(np.delete(scaled_vm.entries, ell_pos, 0), ell_pos, 1)
        err = float(np.max(np.abs(after_vm.entries - expect))) if expect.size else 0.0
        if err > cut:
            raise RuntimeError("certificate transport failed; reduction is inconsistent")
        scaled_vm = after_vm

    certificate = DiagonalScaling(tuple(cur.d))
    verdict = check_with_scaling(cur.game, certificate, tol=max(tol, CHAIN_ROUNDING))
    if verdict.kind != CONSERVATIVE:
        raise RuntimeError(
            f"collapsed game classifies as {verdict.kind}, not conservative; "
            "this contradicts the reduction guarantee"
        )
    return CollapseResult(
        steps=tuple(cur.steps),
        final_game=PolymatrixGame(cur.game.gtype, np.ldexp(cur.game.payoff, e)),
        final_equilibrium=cur.q_floats(),
        certificate=certificate,
        identification=cur.map(),
        vertex=v_now,
    )
