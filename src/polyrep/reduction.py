"""Rule-based inference of attractor constraints over the vertex graphs.

Every strategy carries a color: white (nothing known), black (its
frequency is pinned to the equilibrium value on the attractor), or plus
(its velocity vanishes on the attractor).  Links record pairs of
same-group strategies whose frequency ratio is constant on the attractor.
Six inference rules strengthen this information until none applies; the
final coloring is the reduced information set.

Colors are global: a conclusion drawn at one vertex graph immediately
holds at every other graph containing the same strategy.  Color changes
are monotone (white -> black, white -> plus, plus -> black), so the
fixpoint is reached in at most 2n + n^2 applications.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .games import DiagonalScaling, PolymatrixGame
from .stability import SEMIDEF_TOL, Analysis, admissible, analyse
from .vertices import VertexLabel


class Color(enum.Enum):
    WHITE = "white"
    BLACK = "black"
    PLUS = "plus"

    @property
    def symbol(self) -> str:
        return {"white": "o", "black": "*", "plus": "+"}[self.value]


# Legal color transitions: strengthening only, black is terminal.
_UPGRADES = {
    (Color.WHITE, Color.BLACK),
    (Color.WHITE, Color.PLUS),
    (Color.PLUS, Color.BLACK),
}


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

    def colored(self, i: int) -> bool:
        """Black or plus."""
        return self.colors[i] is not Color.WHITE

    def with_colors(self, updates: dict[int, Color], step: TraceStep) -> "InformationSet":
        colors = list(self.colors)
        for i, c in updates.items():
            if (colors[i], c) not in _UPGRADES:
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


@dataclass(frozen=True)
class AttractorStatement:
    kind: str
    text: str
    pinned: tuple[int, ...]
    zero_velocity: tuple[int, ...]


def initialize(
    game: PolymatrixGame,
    vstar: list[VertexLabel],
    tol: float = SEMIDEF_TOL,
) -> InformationSet:
    """Rule 1: black every strategy with a negative diagonal at a stable vertex."""
    if not vstar:
        raise ValueError("initialization needs at least one stably dissipative vertex")
    graphs = analyse(game, tol).graphs
    colored: set[int] = set()
    witnesses: list[VertexLabel] = []
    for v in vstar:
        hit = [i for i, sign in graphs[v].diagonal_sign.items() if sign < 0]
        if hit:
            witnesses.append(v)
            colored.update(hit)
    colors = tuple(
        Color.BLACK if i in colored else Color.WHITE for i in range(game.gtype.n)
    )
    trace = ()
    if colored:
        trace = (TraceStep(1, tuple(sorted(witnesses, key=lambda v: v.chosen)), tuple(sorted(colored))),)
    return InformationSet(colors, frozenset(), trace)


# Rules 2 and 3 read off the exceptional neighbor of an already-colored
# strategy; rule 4 registers a ratio link for a white strategy all of
# whose graph constraints are resolved; rules 5 and 6 close out groups.
#
# The scan visits vertices in descending label order and strategies in
# descending index order, and the driver tries rules in the order
# 2, 3, 5, 6, 4, link registration last.  This deterministic order
# reproduces the worked reduction of the bundled example game.


def _instances_exceptional(rule: int, counted: frozenset[Color], target: Color):
    """Rules 2 and 3: a colored strategy with exactly one neighbor of a counted color.

    Rule 2 counts the non-black neighbors and blacks the one found; rule 3
    counts the white ones and makes it plus.
    """

    def instances(state: InformationSet, an: Analysis, vstar: list[VertexLabel]):
        for v in reversed(vstar):
            g = an.graphs[v]
            targets: set[int] = set()
            for i in g.vertices:
                if not state.colored(i):
                    continue
                hits = [k for k in g.adjacency[i] if state.colors[k] in counted]
                if len(hits) == 1:
                    targets.add(hits[0])
            for j in sorted(targets, reverse=True):
                step = TraceStep(rule, (v,), (j,))
                yield step, lambda s, j=j, step=step: s.with_colors({j: target}, step)

    return instances


def _instances_rule4(state: InformationSet, an: Analysis, vstar: list[VertexLabel]):
    for v, g in reversed(an.graphs.items()):
        for j in sorted(g.vertices, reverse=True):
            if state.colors[j] is not Color.WHITE:
                continue
            if g.diagonal_sign[j] != 0:
                # a nonzero diagonal couples the ratio to the strategy's own
                # unknown frequency; no inference is valid then
                continue
            if not all(state.colored(k) for k in g.adjacency[j]):
                continue
            partner = v.partner(an.game.gtype, j)
            pair = (min(j, partner), max(j, partner))
            if pair in state.links:
                continue
            step = TraceStep(4, (v,), pair)
            yield step, lambda s, pair=pair, step=step: s.with_link(pair[0], pair[1], step)


def _instances_rule5(state: InformationSet, an: Analysis, vstar: list[VertexLabel]):
    # a singleton group qualifies vacuously: its strategy sits at its
    # equilibrium value (both are one) for all time
    gt = an.game.gtype
    for a in reversed(range(gt.p)):
        members = list(gt.group_indices(a))
        non_black = [i for i in members if state.colors[i] is not Color.BLACK]
        if len(non_black) == 1:
            i = non_black[0]
            yield (
                TraceStep(5, (), (i,)),
                lambda s, i=i: s.with_colors({i: Color.BLACK}, TraceStep(5, (), (i,))),
            )
            continue
        white = [i for i in members if state.colors[i] is Color.WHITE]
        if len(white) == 1:
            i = white[0]
            yield (
                TraceStep(5, (), (i,)),
                lambda s, i=i: s.with_colors({i: Color.PLUS}, TraceStep(5, (), (i,))),
            )


def _link_connected(members: list[int], links: frozenset[tuple[int, int]]) -> bool:
    if not members:
        return False
    seen = {members[0]}
    frontier = [members[0]]
    member_set = set(members)
    while frontier:
        i = frontier.pop()
        for a, b in links:
            for x, y in ((a, b), (b, a)):
                if x == i and y in member_set and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == len(members)


def _instances_rule6(state: InformationSet, an: Analysis, vstar: list[VertexLabel]):
    gt = an.game.gtype
    for a in reversed(range(gt.p)):
        members = list(gt.group_indices(a))
        white = [i for i in members if state.colors[i] is Color.WHITE]
        if not white:
            continue
        if _link_connected(white, state.links):
            step = TraceStep(6, (), tuple(sorted(white)))
            yield (
                step,
                lambda s, white=tuple(white), step=step: s.with_colors(
                    {i: Color.PLUS for i in white}, step
                ),
            )


_RULE_GENERATORS = {
    2: _instances_exceptional(2, frozenset({Color.WHITE, Color.PLUS}), Color.BLACK),
    3: _instances_exceptional(3, frozenset({Color.WHITE}), Color.PLUS),
    4: _instances_rule4,
    5: _instances_rule5,
    6: _instances_rule6,
}

# Color-strengthening rules run before link registration; see module note.
RULE_PRIORITY = (2, 3, 5, 6, 4)


def apply_rule(
    state: InformationSet,
    rule: int,
    game: PolymatrixGame,
    vstar: list[VertexLabel],
    tol: float = SEMIDEF_TOL,
) -> InformationSet | None:
    """Apply the first applicable instance of one rule, if any.

    Returns the strengthened information set, or None when the rule has
    no applicable instance in the current state.
    """
    if rule not in _RULE_GENERATORS:
        raise ValueError(f"unknown rule {rule}")
    for _, apply in _RULE_GENERATORS[rule](state, analyse(game, tol), vstar):
        return apply(state)
    return None


def _verdict(state: InformationSet) -> str:
    if all(c is Color.BLACK for c in state.colors):
        return "all_black"
    if all(c is not Color.WHITE for c in state.colors):
        return "black_plus"
    return "mixed"


def run_to_fixpoint(
    game: PolymatrixGame,
    d: DiagonalScaling | None = None,
    tol: float = SEMIDEF_TOL,
    rng: np.random.Generator | None = None,
) -> ReducedInformationSet:
    """Exhaust the inference rules and classify the outcome.

    Requires an admissible game (the rules are sound only then).  With an
    rng the applicable instance is chosen at random each round instead of
    by the deterministic scan; final colors should not depend on this
    (checked as a diagnostic elsewhere, not asserted here).
    """
    ok, vstar = admissible(game, d, tol=tol)
    if not ok:
        raise ValueError("reduction requires an admissible game")
    state = initialize(game, vstar, tol=tol)
    an = analyse(game, tol)
    n = game.gtype.n
    budget = 2 * n + n * n + 1
    rounds = 0
    for _ in range(budget):
        if rng is None:
            advanced = False
            for rule in RULE_PRIORITY:
                for _, apply in _RULE_GENERATORS[rule](state, an, vstar):
                    state = apply(state)
                    advanced = True
                    break
                if advanced:
                    break
            if not advanced:
                break
        else:
            pool = []
            for rule in RULE_PRIORITY:
                pool.extend(apply for _, apply in _RULE_GENERATORS[rule](state, an, vstar))
            if not pool:
                break
            state = pool[rng.integers(len(pool))](state)
        rounds += 1
    else:
        raise RuntimeError("rule applications exceeded the monotonicity budget")
    return ReducedInformationSet(state, rounds, _verdict(state))


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


def classify_attractor(reduced: ReducedInformationSet, q: np.ndarray) -> AttractorStatement:
    """Translate the reduced information set into an attractor statement."""
    black = reduced.black()
    plus = reduced.plus()
    if reduced.verdict == "all_black":
        text = "unique globally attractive equilibrium at q"
    elif reduced.verdict == "black_plus":
        text = "invariant foliation with one globally attractive equilibrium per leaf"
    else:
        text = (
            "attractor contained in the set fixing the black coordinates at q "
            "and zeroing the velocity of the plus coordinates"
        )
    return AttractorStatement(reduced.verdict, text, black, plus)
