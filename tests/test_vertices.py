import re

import numpy as np
import numpy.testing as npt
import pytest

from polyrep.games import DiagonalScaling, GameType, PolymatrixGame, _nullspace, random_prism_state
from polyrep.vertices import (
    VertexLabel,
    diag_property_check,
    enumerate_vertices,
    expand_vertex_vector,
    first_vertex,
    quadratic_via_vertex,
    scaled_game,
    vertex_graph,
    vertex_matrix,
)

from conftest import (
    EXAMPLE_VERTEX_TABLE,
    random_equal_rows,
    random_game,
    random_type_scaling,
)


class TestEnumeration:
    def test_example_labels(self, example_game):
        labels = [v.chosen for v in enumerate_vertices(example_game.gtype)]
        assert labels == [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]

    def test_single_strategy(self):
        assert len(enumerate_vertices(GameType((1,)))) == 1

    def test_product_count(self):
        assert len(enumerate_vertices(GameType((2, 2, 2)))) == 8

    @pytest.mark.parametrize("sizes", [(1,), (3, 2), (1, 1), (2, 3, 1), (3,) * 4])
    def test_first_vertex_is_first_enumerated(self, sizes):
        gt = GameType(sizes)
        assert first_vertex(gt) == enumerate_vertices(gt)[0]

    def test_support_and_partner(self):
        gt = GameType((3, 2))
        v = VertexLabel((1, 4))
        assert v.support(gt) == (0, 2, 3)
        assert v.partner(gt, 0) == 1
        assert v.partner(gt, 3) == 4

    def test_numpy_integer_labels_are_ints(self):
        v = VertexLabel(np.array([1, 4], dtype=np.intp))
        assert v == VertexLabel((1, 4)) and all(type(c) is int for c in v.chosen)

    @pytest.mark.parametrize("chosen", [(0.9, 3.5), (0, "3")])
    def test_a_label_that_is_no_integer_is_refused(self, chosen):
        # int() would truncate (0.9, 3.5) to the vertex (0, 3)
        with pytest.raises(ValueError, match=f"^vertex label entries must be integers, got {re.escape(str(chosen))}$"):
            VertexLabel(chosen)


class TestVertexMatrix:
    def test_golden_table(self, example_game):
        # all six golden coefficient matrices, exact integer equality
        for v in enumerate_vertices(example_game.gtype):
            expected, _ = EXAMPLE_VERTEX_TABLE[v.chosen]
            vm = vertex_matrix(example_game, v)
            npt.assert_array_equal(vm.entries, np.array(expected, dtype=float))

    def test_zero_game(self):
        zero = PolymatrixGame(GameType((2, 2)), np.zeros((4, 4)))
        for v in enumerate_vertices(zero.gtype):
            assert np.all(vertex_matrix(zero, v).entries == 0)

    def test_equivalence_invariance(self):
        rng = np.random.default_rng(21)
        gt = GameType((3, 2))
        game = random_game(gt, rng, integer=True)
        other = PolymatrixGame(gt, game.payoff + random_equal_rows(gt, rng, integer=True))
        for v in enumerate_vertices(gt):
            npt.assert_array_equal(
                vertex_matrix(game, v).entries, vertex_matrix(other, v).entries
            )

    def test_rank_constant_across_vertices(self):
        rng = np.random.default_rng(22)
        for gt in (GameType((3, 2)), GameType((2, 2, 2)), GameType((4,))):
            game = random_game(gt, rng)
            ranks = {
                m.shape[1] - len(_nullspace(m))
                for m in (vertex_matrix(game, v).entries for v in enumerate_vertices(gt))
            }
            assert len(ranks) == 1

    def test_invalid_label_rejected(self, example_game):
        with pytest.raises(ValueError):
            vertex_matrix(example_game, VertexLabel((3, 4)))


class TestQuadraticForm:
    def test_representation_identity(self):
        # the vertex expansion reproduces the direct (x-q)^T A (x-q)
        rng = np.random.default_rng(24)
        gt = GameType((2, 3))
        game = random_game(gt, rng)
        for v in enumerate_vertices(gt):
            for _ in range(20):
                x = random_prism_state(gt, rng)
                q = random_prism_state(gt, rng)
                direct = float((x - q) @ game.payoff @ (x - q))
                via = quadratic_via_vertex(game, v, x, q)
                assert abs(via - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_via_vertex_at_equal_states(self, example_game, example_q):
        v = enumerate_vertices(example_game.gtype)[0]
        assert quadratic_via_vertex(example_game, v, example_q, example_q) == 0.0

    def test_example_via_vertex_formula(self, example_game, example_q):
        rng = np.random.default_rng(25)
        v = enumerate_vertices(example_game.gtype)[0]
        for _ in range(20):
            x = random_prism_state(example_game.gtype, rng)
            got = quadratic_via_vertex(example_game, v, x, example_q)
            expected = -9.0 * (x[2] - 1 / 3) ** 2
            assert abs(got - expected) <= 1e-9


class TestBasisExpansion:
    def test_difference_expansion_reproduces(self):
        # x - q decomposes exactly over the vertex basis
        rng = np.random.default_rng(26)
        gt = GameType((3, 2))
        for v in enumerate_vertices(gt):
            for _ in range(20):
                x = random_prism_state(gt, rng)
                q = random_prism_state(gt, rng)
                coeffs = (x - q)[list(v.support(gt))]
                npt.assert_allclose(
                    expand_vertex_vector(gt, v, coeffs), x - q, atol=1e-12
                )

    @pytest.mark.parametrize("sizes", [(3, 2), (4,), (2, 2, 2), (1, 3), (3, 3, 3), (5, 1, 2)])
    def test_bitwise_equal_to_a_loop_over_the_index_set(self, sizes):
        # each index adds its coefficient, and its partner subtracts them in index order; signed
        # zeros and magnitudes 1e+-300 make the order and the sign of a zero show
        gt = GameType(sizes)
        rng = np.random.default_rng(sum(sizes))
        pool = np.array([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 1.0, -2.5])
        for v in enumerate_vertices(gt):
            for _ in range(20):
                coeffs = np.where(rng.random(gt.n - gt.p) < 0.8, rng.choice(pool, gt.n - gt.p), rng.normal(size=gt.n - gt.p))
                expected = np.zeros(gt.n)
                for c, i in zip(coeffs, v.support(gt)):
                    expected[i] += c
                    expected[v.partner(gt, i)] -= c
                assert expand_vertex_vector(gt, v, coeffs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "label, coeffs",
        [((0, 3), np.ones(1)), ((0, 3), np.ones(7)), ((0, 3), np.ones((3, 1))), ((0, 1), np.ones(3)), ((0,), np.ones(4))],
        ids=["too-few", "too-many", "not-a-vector", "strategy-outside-its-group", "wrong-arity"],
    )
    def test_refuses_a_label_or_coefficients_the_type_does_not_fit(self, label, coeffs):
        # zip would truncate the coefficients, and (0, 1) would read strategy 1 as group 1's choice
        with pytest.raises(ValueError):
            expand_vertex_vector(GameType((3, 2)), VertexLabel(label), coeffs)


class TestGraphs:
    def test_example_path_graph(self, example_game):
        v = enumerate_vertices(example_game.gtype)[0]  # (0, 3)
        g = vertex_graph(vertex_matrix(example_game, v))
        assert g.edges == frozenset({(1, 2), (2, 4)})
        assert g.diagonal_sign[2] == -1 and g.diagonal_sign[1] == 0

    def test_example_triangle(self, example_game):
        v = VertexLabel((2, 3))
        g = vertex_graph(vertex_matrix(example_game, v))
        assert g.edges == frozenset({(0, 1), (0, 4), (1, 4)})

    def test_zero_matrix_edgeless(self):
        zero = PolymatrixGame(GameType((2, 2)), np.zeros((4, 4)))
        v = enumerate_vertices(zero.gtype)[0]
        assert vertex_graph(vertex_matrix(zero, v)).edges == frozenset()


class TestDiagProperty:
    def test_identity_scaling(self, example_game):
        d = DiagonalScaling.identity(example_game.gtype)
        for v in enumerate_vertices(example_game.gtype):
            assert diag_property_check(example_game, d, v)

    def test_example_integer_scaling(self, example_game):
        d = DiagonalScaling((2.0, 5.0))
        for v in enumerate_vertices(example_game.gtype):
            assert diag_property_check(example_game, d, v, tol=0.0)

    def test_random_property(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            gt = GameType((2, 2)) if rng.random() < 0.5 else GameType((3, 2))
            game = random_game(gt, rng)
            d = random_type_scaling(gt, rng)
            v = enumerate_vertices(gt)[rng.integers(len(enumerate_vertices(gt)))]
            assert diag_property_check(game, d, v, tol=1e-12)

    def test_scaled_game_payoff(self, example_game):
        d = DiagonalScaling((2.0, 5.0))
        scaled = scaled_game(example_game, d)
        npt.assert_array_equal(scaled.payoff[:, :3], example_game.payoff[:, :3] * 2)
        npt.assert_array_equal(scaled.payoff[:, 3:], example_game.payoff[:, 3:] * 5)
