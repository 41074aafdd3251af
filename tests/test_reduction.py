import re
import warnings

import numpy as np
import pytest

from polyrep.games import GameType, PolymatrixGame
from polyrep.reduction import (
    Color,
    InformationSet,
    TraceStep,
    apply_rule,
    classify_attractor,
    collapse_trace,
    initialize,
    run_to_fixpoint,
)
from polyrep.stability import NOT_DISSIPATIVE, SEMIDEF_TOL, analyse

from conftest import make_admissible_game

ZERO22 = PolymatrixGame(GameType((2, 2)), np.zeros((4, 4)))

# skew coupling plus uniform damping: every vertex matrix has an
# all-negative diagonal, so rule 1 alone colors every strategy black
ALL_BLACK = PolymatrixGame(
    GameType((3,)),
    np.array([[-1.0, -1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0]]),
)


def colors_of(state):
    return {i: c for i, c in enumerate(state.colors)}


class TestInitialize:
    def test_example_blackens_strategy_two(self, example_game):
        state = initialize(example_game)
        assert colors_of(state) == {
            0: Color.WHITE,
            1: Color.WHITE,
            2: Color.BLACK,
            3: Color.WHITE,
            4: Color.WHITE,
        }
        step = state.trace[0]
        assert step.rule == 1 and step.strategies == (2,)
        assert [v.chosen for v in step.vertices] == [(0, 3), (0, 4), (1, 3), (1, 4)]

    def test_zero_game_all_white(self):
        state = initialize(ZERO22)
        assert all(c is Color.WHITE for c in state.colors)

    def test_negative_diagonal_pair(self):
        state = initialize(ALL_BLACK)
        assert all(c is Color.BLACK for c in state.colors)

    def test_requires_stable_vertex(self, example_game):
        # no certificate and no stable vertex: the rules are unsound on this game
        game = PolymatrixGame(GameType((3, 3)), np.random.default_rng(3).integers(-5, 6, (6, 6)).astype(float))
        assert analyse(game, SEMIDEF_TOL).kind == NOT_DISSIPATIVE
        state = initialize(example_game)
        with pytest.raises(ValueError, match="requires an admissible game"):
            initialize(game)
        with pytest.raises(ValueError, match="requires an admissible game"):
            apply_rule(state, 4, game)


class TestInformationSet:
    @pytest.mark.parametrize("new", list(Color))
    @pytest.mark.parametrize("start", list(Color))
    def test_a_colour_change_strengthens(self, start, new):
        # colours only strengthen, white -> plus -> black, so the attractor constraint a colour
        # records is never withdrawn; setting a colour again is refused too
        state = InformationSet((Color.WHITE, start), frozenset(), ())
        step = TraceStep(2, (), (1,))
        if (start, new) in {(Color.WHITE, Color.PLUS), (Color.WHITE, Color.BLACK), (Color.PLUS, Color.BLACK)}:
            assert state.with_colors({1: new}, step).colors == (Color.WHITE, new)
            return
        with pytest.raises(ValueError, match=re.escape(f"illegal transition {start} -> {new} at strategy 1")):
            state.with_colors({1: new}, step)


class TestApplyRule:
    def test_rule4_links_top_group_pair(self, example_game):
        state = initialize(example_game)
        nxt = apply_rule(state, 4, example_game)
        assert nxt is not None
        assert nxt.links == frozenset({(3, 4)})
        step = nxt.trace[-1]
        assert step.rule == 4 and [v.chosen for v in step.vertices] == [(1, 4)]

    def test_rule6_colors_linked_group(self, example_game):
        state = initialize(example_game)
        state = apply_rule(state, 4, example_game)
        state = apply_rule(state, 6, example_game)
        assert state.colors[3] is Color.PLUS and state.colors[4] is Color.PLUS

    def test_rule3_colors_remaining_pair(self, example_game):
        state = initialize(example_game)
        for rule in (4, 6):
            state = apply_rule(state, rule, example_game)
        first = apply_rule(state, 3, example_game)
        second = apply_rule(first, 3, example_game)
        got = {
            i
            for i, (a, b) in enumerate(zip(state.colors, second.colors))
            if a is not b
        }
        assert got == {0, 1}
        assert second.colors[0] is Color.PLUS and second.colors[1] is Color.PLUS

    def test_inapplicable_rule_returns_none(self, example_game):
        state = initialize(example_game)
        assert apply_rule(state, 2, example_game) is None

    def test_unknown_rule_rejected(self, example_game):
        state = initialize(example_game)
        with pytest.raises(ValueError):
            apply_rule(state, 7, example_game)


class TestRunToFixpoint:
    def test_example_matches_worked_run(self, example_game):
        red = run_to_fixpoint(example_game)
        assert red.verdict == "black_plus"
        assert colors_of(red.final) == {
            0: Color.PLUS,
            1: Color.PLUS,
            2: Color.BLACK,
            3: Color.PLUS,
            4: Color.PLUS,
        }
        assert red.final.links == frozenset({(3, 4)})
        rules = [s.rule for s in collapse_trace(red.final.trace)]
        assert rules == [1, 4, 6, 3]

    def test_all_black_game(self):
        red = run_to_fixpoint(ALL_BLACK)
        assert red.verdict == "all_black"
        assert red.fixpoint_rounds == 0  # rule 1 alone finishes the job

    def test_zero_game_black_plus(self):
        red = run_to_fixpoint(ZERO22)
        assert red.verdict == "black_plus"
        assert all(c is Color.PLUS for c in red.final.colors)
        rules = {s.rule for s in red.final.trace}
        assert rules == {4, 6}

    def test_rejects_non_admissible(self):
        skew = PolymatrixGame(
            GameType((4,)),
            np.array(
                [
                    [0.0, 1.0, -2.0, 1.0],
                    [-1.0, 0.0, 3.0, -1.0],
                    [2.0, -3.0, 0.0, 1.0],
                    [-1.0, 1.0, -1.0, 0.0],
                ]
            ),
        )
        with pytest.raises(ValueError):
            run_to_fixpoint(skew)

    def test_deterministic(self, example_game):
        a = run_to_fixpoint(example_game)
        b = run_to_fixpoint(example_game)
        assert a.final.trace == b.final.trace
        assert a.final.colors == b.final.colors

    def test_monotone_and_bounded(self, example_game):
        red = run_to_fixpoint(example_game)
        n = example_game.gtype.n
        assert red.fixpoint_rounds <= 2 * n + n * n
        # replay the trace: colored sets only grow
        seen_black, seen_colored = set(), set()
        for step in red.final.trace:
            if step.rule in (1, 2, 5):
                seen_black.update(step.strategies)
            seen_colored.update(step.strategies)
        assert seen_black <= seen_colored


class TestConfluenceDiagnostic:
    """Randomized application orders should agree on the final colors.

    Divergence is reported as a warning (a finding to examine), never as
    a failure: the inference rules are individually sound, so any
    reachable fixpoint is valid; whether they are confluent is an open
    empirical question.
    """

    def _final_colors(self, game, rng=None):
        return run_to_fixpoint(game, rng=rng).final.colors

    def test_example_game_orders_agree(self, example_game):
        baseline = self._final_colors(example_game)
        for seed in range(5):
            other = self._final_colors(example_game, np.random.default_rng(seed))
            if other != baseline:
                warnings.warn(f"order-dependent colors on the example game, seed {seed}")

    def test_random_admissible_games(self):
        rng = np.random.default_rng(43)
        findings = 0
        for k in range(50):
            gt = GameType((2, 2)) if k % 2 else GameType((3, 2))
            game, _, _ = make_admissible_game(gt, rng)
            baseline = run_to_fixpoint(game).final.colors
            shuffled = run_to_fixpoint(game, rng=np.random.default_rng(k)).final.colors
            if shuffled != baseline:
                findings += 1
        if findings:
            warnings.warn(f"{findings}/50 games showed order-dependent final colors")


class TestClassifyAttractor:
    def test_example_foliation(self, example_game):
        red = run_to_fixpoint(example_game)
        assert red.verdict == "black_plus"
        assert "foliation" in classify_attractor(red)
        assert red.black() == (2,)
        assert red.plus() == (0, 1, 3, 4)

    def test_all_black_statement(self):
        red = run_to_fixpoint(ALL_BLACK)
        assert red.verdict == "all_black"
        assert "unique" in classify_attractor(red)

    def test_mixed_statement(self):
        # fabricate a mixed verdict directly: the statement is the verdict's text
        from polyrep.reduction import ReducedInformationSet

        state = InformationSet((Color.BLACK, Color.WHITE), frozenset(), ())
        red = ReducedInformationSet(state, 0, "mixed")
        assert "black coordinates" in classify_attractor(red)
        assert red.black() == (0,) and red.plus() == ()


class TestSingletonGroups:
    def test_lone_strategy_pinned_black(self):
        # a one-strategy group is frozen at frequency one, which is its
        # equilibrium value, so rule 5 colors it black vacuously
        game = PolymatrixGame(GameType((1, 2)), np.zeros((3, 3)))
        red = run_to_fixpoint(game)
        assert red.final.colors[0] is Color.BLACK
        assert red.verdict == "black_plus"
