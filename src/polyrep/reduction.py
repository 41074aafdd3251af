"""Rule-based inference of attractor constraints over the vertex graphs.

Every strategy carries a color: white (nothing known), black (its
frequency is pinned to the equilibrium value on the attractor), or plus
(its velocity vanishes on the attractor).  Links record pairs of
same-group strategies whose frequency ratio is constant on the attractor.
Six inference rules strengthen this information until none applies; the
final coloring is the reduced information set.

Colors are global: a conclusion drawn at one vertex graph immediately
holds at every other graph containing the same strategy.  Color changes
are monotone: each raises the color's code (white 0, plus 1, black 2),
so the fixpoint is reached in at most 2n + n^2 applications.

The rules read the vertex graphs as the analysis's arrays
(Analysis.pattern): edges (V, k, k) and diagonal signs (V, k), whose
positions are the vertex index sets, and V* as the rows of its stable
vertices (Analysis.stable_rows), which no caller supplies.  The rules
are sound only on an admissible game: each entry point refuses any other.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .games import PolymatrixGame
from .stability import SEMIDEF_TOL, Analysis, analyse
from .vertices import VertexLabel


class Color(enum.Enum):
    WHITE = "white"
    BLACK = "black"
    PLUS = "plus"

    @property
    def symbol(self) -> str:
        return {"white": "o", "black": "*", "plus": "+"}[self.value]


# The strength of each color: a legal change raises it, so black is terminal.
_CODE = {Color.WHITE: 0, Color.PLUS: 1, Color.BLACK: 2}


@dataclass(frozen=True)
class TraceStep:
    rule: int
    vertices: tuple[VertexLabel, ...]
    strategies: tuple[int, ...]


@dataclass(frozen=True)
class InformationSet:
    """Immutable snapshot of the per-strategy colors, links, and history."""

    colors: tuple[Color, ...]
    links: frozenset[tuple[int, int]]
    trace: tuple[TraceStep, ...]

    def with_colors(self, updates: dict[int, Color], step: TraceStep) -> "InformationSet":
        colors = list(self.colors)
        for i, c in updates.items():
            if _CODE[c] <= _CODE[colors[i]]:
                raise ValueError(f"illegal transition {colors[i]} -> {c} at strategy {i}")
            colors[i] = c
        return InformationSet(tuple(colors), self.links, self.trace + (step,))

    def with_link(self, i: int, j: int, step: TraceStep) -> "InformationSet":
        pair = (min(i, j), max(i, j))
        return InformationSet(self.colors, self.links | {pair}, self.trace + (step,))


@dataclass(frozen=True)
class ReducedInformationSet:
    final: InformationSet
    fixpoint_rounds: int
    verdict: str  # all_black | black_plus | mixed

    def black(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.final.colors) if c is Color.BLACK)

    def plus(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.final.colors) if c is Color.PLUS)


def _admissible(game: PolymatrixGame, tol: float) -> Analysis:
    """The game's analysis, which the rules read; they are sound only on an admissible game."""
    an = analyse(game, tol)
    if not an.admissible:
        raise ValueError("reduction requires an admissible game")
    return an


def initialize(game: PolymatrixGame, tol: float = SEMIDEF_TOL) -> InformationSet:
    """Rule 1: black every strategy with a negative diagonal at a vertex of the analysis's V*."""
    an = _admissible(game, tol)
    rows = an.stable_rows
    negative = an.pattern[1][rows] < 0
    colored = sorted(set(an.tensor[1][rows][negative].tolist()))
    witnesses = [an.tensor[0][r] for r in rows[negative.any(axis=1)].tolist()]  # rows ascend: lexicographic
    colors = tuple(Color.BLACK if i in colored else Color.WHITE for i in range(game.gtype.n))
    trace = (TraceStep(1, tuple(witnesses), tuple(colored)),) if colored else ()
    return InformationSet(colors, frozenset(), trace)


# Rules 2 and 3 read off the exceptional neighbor of an already-colored
# strategy; rule 4 registers a ratio link for a white strategy all of
# whose graph constraints are resolved; rules 5 and 6 close out groups.
#
# The scan visits vertices in descending label order and strategies in
# descending index order, and the driver tries rules in the order
# 2, 3, 5, 6, 4, link registration last.  This deterministic order
# reproduces the worked reduction of the bundled example game.
#
# An instance is plain data: its trace step, and the color it gives the
# step's strategies, or None for a link.  Each round the colors become
# one code vector; a strategy is colored when its code is positive.


def _scan(mask: np.ndarray, rows: np.ndarray, ii: np.ndarray):
    """(row, strategy) of each set entry of mask (m, k) over rows, strategies descending."""
    s, pos = np.nonzero(mask[:, ::-1])
    return zip(rows[s].tolist(), ii[rows[s], mask.shape[1] - 1 - pos].tolist())


def _instances_exceptional(rule: int, target: Color, state: InformationSet, codes: np.ndarray, an: Analysis):
    """Rules 2 and 3: a colored strategy with exactly one neighbor coded below the target's code.

    Rule 2 counts the non-black neighbors and blacks the one found; rule 3
    counts the white ones and makes it plus.  One masked neighbor count
    over the stable vertices' rows, descending, finds every such neighbor.
    """
    labels, ii, _ = an.tensor
    stable = an.stable_rows[::-1]
    local = codes[ii[stable]]
    hits = an.pattern[0][stable] & (local < _CODE[target])[:, None, :]
    exceptional = (hits.sum(axis=2) == 1) & (local > 0)
    for r, j in _scan((hits & exceptional[:, :, None]).any(axis=1), stable, ii):
        yield TraceStep(rule, (labels[r],), (j,)), target


def _instances_rule4(state: InformationSet, codes: np.ndarray, an: Analysis):
    labels, ii, _ = an.tensor
    edges, signs = an.pattern
    white = codes[ii] == 0
    # a nonzero diagonal couples the ratio to the strategy's own unknown
    # frequency; no inference is valid then
    resolved = white & (signs == 0) & ~(edges & white[:, None, :]).any(axis=2)
    for r, j in _scan(resolved[::-1], np.arange(len(ii))[::-1], ii):
        partner = labels[r].partner(an.game.gtype, j)
        pair = (min(j, partner), max(j, partner))
        if pair not in state.links:
            yield TraceStep(4, (labels[r],), pair), None


def _instances_rule5(state: InformationSet, codes: np.ndarray, an: Analysis):
    # a singleton group qualifies vacuously: its strategy sits at its
    # equilibrium value (both are one) for all time
    gt = an.game.gtype
    for a in reversed(range(gt.p)):
        members = np.array(gt.group_indices(a))
        for color in (Color.BLACK, Color.PLUS):  # the lone non-black strategy, else the lone white one
            lone = members[codes[members] < _CODE[color]]
            if len(lone) == 1:
                yield TraceStep(5, (), (int(lone[0]),)), color
                break


def _link_connected(members: list[int], links: frozenset[tuple[int, int]]) -> bool:
    """Whether the links join the members, at least one, into one component."""
    seen, grown = {members[0]}, True
    while grown:
        reach = {y for a, b in links for x, y in ((a, b), (b, a)) if x in seen and y in members}
        grown, seen = not reach <= seen, seen | reach
    return len(seen) == len(members)


def _instances_rule6(state: InformationSet, codes: np.ndarray, an: Analysis):
    gt = an.game.gtype
    for a in reversed(range(gt.p)):
        members = list(gt.group_indices(a))
        white = [i for i in members if codes[i] == 0]
        if white and _link_connected(white, state.links):
            yield TraceStep(6, (), tuple(sorted(white))), Color.PLUS


_RULE_GENERATORS = {
    2: functools.partial(_instances_exceptional, 2, Color.BLACK),
    3: functools.partial(_instances_exceptional, 3, Color.PLUS),
    4: _instances_rule4,
    5: _instances_rule5,
    6: _instances_rule6,
}

# Color-strengthening rules run before link registration; see module note.
RULE_PRIORITY = (2, 3, 5, 6, 4)


def _instances(state: InformationSet, an: Analysis, rules: tuple[int, ...] = RULE_PRIORITY):
    """Every applicable instance of the rules, lazily, in scan order."""
    codes = np.array([_CODE[c] for c in state.colors], dtype=np.int8)
    return itertools.chain.from_iterable(_RULE_GENERATORS[rule](state, codes, an) for rule in rules)


def _apply(state: InformationSet, step: TraceStep, color: Color | None) -> InformationSet:
    """Give the step's strategies the color, or link its pair when the color is None."""
    if color is None:
        return state.with_link(*step.strategies, step)
    return state.with_colors(dict.fromkeys(step.strategies, color), step)


def apply_rule(
    state: InformationSet, rule: int, game: PolymatrixGame, tol: float = SEMIDEF_TOL
) -> InformationSet | None:
    """Apply the first applicable instance of one rule, if any, over the analysis's V*.

    Returns the strengthened information set, or None when the rule has
    no applicable instance; ValueError for an unknown rule or a game
    that is not admissible.
    """
    if rule not in _RULE_GENERATORS:
        raise ValueError(f"unknown rule {rule}")
    pick = next(_instances(state, _admissible(game, tol), (rule,)), None)
    return None if pick is None else _apply(state, *pick)


def _verdict(state: InformationSet) -> str:
    if all(c is Color.BLACK for c in state.colors):
        return "all_black"
    if all(c is not Color.WHITE for c in state.colors):
        return "black_plus"
    return "mixed"


def run_to_fixpoint(
    game: PolymatrixGame,
    tol: float = SEMIDEF_TOL,
    rng: np.random.Generator | None = None,
) -> ReducedInformationSet:
    """Exhaust the inference rules and classify the outcome.

    Requires an admissible game (the rules are sound only then), as the
    game's analysis decides it: its certificate and its V*, from which
    rule 1 starts; any other raises ValueError.  With an rng the
    applicable instance is chosen at random each round instead of by
    the deterministic scan; final colors should not depend on this
    (checked as a diagnostic elsewhere, not asserted here).
    """
    an = _admissible(game, tol)
    state = initialize(game, tol)
    n = game.gtype.n
    for rounds in itertools.count():
        instances = _instances(state, an)
        if rng is None:
            pick = next(instances, None)
        else:
            pool = list(instances)
            pick = pool[rng.integers(len(pool))] if pool else None
        if pick is None:
            return ReducedInformationSet(state, rounds, _verdict(state))
        if rounds == 2 * n + n * n:
            raise RuntimeError("rule applications exceeded the monotonicity budget")
        state = _apply(state, *pick)


def collapse_trace(trace: tuple[TraceStep, ...]) -> list[TraceStep]:
    """Merge consecutive applications of the same rule into table rows."""
    rows: list[TraceStep] = []
    for step in trace:
        if rows and rows[-1].rule == step.rule:
            prev = rows[-1]
            verts = prev.vertices + tuple(v for v in step.vertices if v not in prev.vertices)
            strats = prev.strategies + tuple(s for s in step.strategies if s not in prev.strategies)
            rows[-1] = TraceStep(step.rule, verts, strats)
        else:
            rows.append(step)
    return rows


def classify_attractor(reduced: ReducedInformationSet) -> str:
    """The attractor statement of the reduced information set's verdict; its black() and plus() name the sets."""
    if reduced.verdict == "all_black":
        return "unique globally attractive equilibrium at q"
    if reduced.verdict == "black_plus":
        return "invariant foliation with one globally attractive equilibrium per leaf"
    return (
        "attractor contained in the set fixing the black coordinates at q "
        "and zeroing the velocity of the plus coordinates"
    )
