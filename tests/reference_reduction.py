"""The rule engine one graph at a time: the reference the array rules must match.

Kept as it was before the inference rules read the analysis's edge and
sign arrays.  Each rule rescans the per-vertex graphs of
reference_vertex_layer in Python and yields (step, apply) pairs; the
deterministic driver takes the first instance in RULE_PRIORITY, the
random one draws from all of them.  Any difference in a trace, a colour,
a link, a round count or a verdict is a defect of the array rules.
"""

from __future__ import annotations

import reference_vertex_layer as ref_layer
from polyrep.games import SEMIDEF_TOL
from polyrep.reduction import RULE_PRIORITY, Color, InformationSet, ReducedInformationSet, TraceStep, _verdict
from polyrep.stability import admissible
from polyrep.vertices import enumerate_vertices


class _Graphs:
    """Every vertex's graph and its adjacency, in enumeration order."""

    def __init__(self, game, tol):
        self.game = game
        self.graphs = {v: ref_layer.vertex_graph(*ref_layer.vertex_matrix(game, v), tol) for v in enumerate_vertices(game.gtype)}
        self.adjacency = {}
        for v, g in self.graphs.items():
            out = {i: set() for i in g.vertices}
            for a, b in g.edges:
                out[a].add(b)
                out[b].add(a)
            self.adjacency[v] = {i: tuple(sorted(ns)) for i, ns in out.items()}


def initialize(game, vstar, an):
    if not vstar:
        raise ValueError("initialization needs at least one stably dissipative vertex")
    colored: set[int] = set()
    witnesses = []
    for v in vstar:
        hit = [i for i, sign in an.graphs[v].diagonal_sign.items() if sign < 0]
        if hit:
            witnesses.append(v)
            colored.update(hit)
    colors = tuple(Color.BLACK if i in colored else Color.WHITE for i in range(game.gtype.n))
    trace = ()
    if colored:
        trace = (TraceStep(1, tuple(sorted(witnesses, key=lambda v: v.chosen)), tuple(sorted(colored))),)
    return InformationSet(colors, frozenset(), trace)


def _instances_exceptional(rule, counted, target):
    def instances(state, an, vstar):
        for v in reversed(vstar):
            g = an.graphs[v]
            targets: set[int] = set()
            for i in g.vertices:
                if state.colors[i] is Color.WHITE:
                    continue
                hits = [k for k in an.adjacency[v][i] if state.colors[k] in counted]
                if len(hits) == 1:
                    targets.add(hits[0])
            for j in sorted(targets, reverse=True):
                step = TraceStep(rule, (v,), (j,))
                yield step, lambda s, j=j, step=step: s.with_colors({j: target}, step)

    return instances


def _instances_rule4(state, an, vstar):
    for v, g in reversed(an.graphs.items()):
        for j in sorted(g.vertices, reverse=True):
            if state.colors[j] is not Color.WHITE:
                continue
            if g.diagonal_sign[j] != 0:
                continue
            if any(state.colors[k] is Color.WHITE for k in an.adjacency[v][j]):
                continue
            partner = v.partner(an.game.gtype, j)
            pair = (min(j, partner), max(j, partner))
            if pair in state.links:
                continue
            step = TraceStep(4, (v,), pair)
            yield step, lambda s, pair=pair, step=step: s.with_link(pair[0], pair[1], step)


def _instances_rule5(state, an, vstar):
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


def _link_connected(members, links):
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


def _instances_rule6(state, an, vstar):
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
                lambda s, white=tuple(white), step=step: s.with_colors({i: Color.PLUS for i in white}, step),
            )


_RULE_GENERATORS = {
    2: _instances_exceptional(2, frozenset({Color.WHITE, Color.PLUS}), Color.BLACK),
    3: _instances_exceptional(3, frozenset({Color.WHITE}), Color.PLUS),
    4: _instances_rule4,
    5: _instances_rule5,
    6: _instances_rule6,
}


def run_to_fixpoint(game, tol=SEMIDEF_TOL, rng=None) -> ReducedInformationSet:
    ok, vstar = admissible(game, tol=tol)
    if not ok:
        raise ValueError("reduction requires an admissible game")
    an = _Graphs(game, tol)
    state = initialize(game, vstar, an)
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


def apply_rule(state, rule, game, vstar, tol=SEMIDEF_TOL):
    for _, apply in _RULE_GENERATORS[rule](state, _Graphs(game, tol), vstar):
        return apply(state)
    return None

