import numpy as np
import numpy.testing as npt
import pytest

from polyrep.games import (
    DiagonalScaling,
    GameType,
    PolymatrixGame,
    check_prism_state,
    clearable_floor,
    formal_equilibria,
    games_equivalent,
    has_equal_row_blocks,
    in_tangent_space,
    interior_equilibria,
    random_prism_state,
    validate_game,
    vector_field,
    zero_row_representative,
)
from polyrep.games import _maximize_min_coordinate

from conftest import random_equal_rows, random_game

RPS = PolymatrixGame(
    GameType((3,)), np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], dtype=float)
)


class TestValidation:
    def test_example_game_is_valid(self, example_game):
        assert validate_game(example_game) == []

    def test_dimension_mismatch(self):
        bad = PolymatrixGame(GameType((2,)), np.zeros((3, 3)))
        problems = validate_game(bad)
        assert len(problems) == 1 and "shape" in problems[0]

    def test_smallest_legal_game(self):
        assert validate_game(PolymatrixGame(GameType((1,)), np.zeros((1, 1)))) == []

    def test_group_sizes_must_be_positive(self):
        with pytest.raises(ValueError):
            GameType((2, 0))

    def test_prism_state_check(self, example_game):
        gt = example_game.gtype
        assert check_prism_state(gt, np.array([1 / 3, 1 / 3, 1 / 3, 0.5, 0.5])) == []
        assert check_prism_state(gt, np.array([0.5, 0.5, 0.5, 0.5, 0.5]))
        assert check_prism_state(gt, np.array([1.2, -0.1, -0.1, 0.5, 0.5]))

    def test_prism_state_check_reports_non_finite_coordinates(self, example_game):
        # NaN fails every comparison, so the sign and sum checks alone miss it
        problems = check_prism_state(example_game.gtype, np.array([np.nan, 0.5, 0.5, 0.5, np.inf]))
        assert problems[:2] == ["coordinate 0 is nan", "coordinate 4 is inf"]


class TestRandomPrismState:
    """A floor is drawn from the conditioned law at once, not by rejection."""

    @pytest.mark.parametrize("sizes,floor", [((3, 2), 0.02), ((30,), 0.02), ((1, 4, 600), 1e-3), ((2, 2), 0.0)])
    def test_the_draw_is_the_shifted_dirichlet(self, sizes, floor):
        gt = GameType(sizes)
        for seed in range(5):
            x = random_prism_state(gt, np.random.default_rng(seed), floor)
            rng = np.random.default_rng(seed)
            want = [floor + (1 - k * floor) * rng.dirichlet(np.ones(k)) for k in sizes]
            npt.assert_array_equal(x, np.concatenate(want))
            assert np.min(x) > floor
            assert check_prism_state(gt, x) == []

    def test_no_floor_is_the_plain_dirichlet_draw(self):
        gt = GameType((3, 1, 4))
        x = random_prism_state(gt, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        npt.assert_array_equal(x, np.concatenate([rng.dirichlet(np.ones(k)) for k in gt.sizes]))

    @pytest.mark.parametrize("sizes,floor", [((50,), 0.02), ((2, 60), 0.02), ((3,), 1 / 3), ((3,), -0.1), ((3,), np.nan)])
    def test_a_floor_no_group_can_clear_raises(self, sizes, floor):
        with pytest.raises(ValueError, match="the floors a group of"):
            random_prism_state(GameType(sizes), np.random.default_rng(0), floor)

    def test_the_clearable_floor(self):
        assert clearable_floor(GameType((3, 2)), 0.02) == 0.02
        assert clearable_floor(GameType((3, 600)), 0.02) == 0.5 / 600
        assert clearable_floor(GameType((50,)), 0.02) * 50 < 1


class TestEquivalence:
    def test_reduced_example_is_trivial(self):
        from conftest import EXAMPLE_REDUCED

        gt = GameType((2, 2))
        reduced = PolymatrixGame(gt, EXAMPLE_REDUCED)
        zero = PolymatrixGame(gt, np.zeros((4, 4)))
        assert games_equivalent(reduced, zero)

    def test_reflexive(self, example_game):
        assert games_equivalent(example_game, example_game)

    def test_equal_row_perturbation(self):
        rng = np.random.default_rng(7)
        gt = GameType((2, 2))
        game = random_game(gt, rng)
        shifted = PolymatrixGame(gt, game.payoff + random_equal_rows(gt, rng))
        assert games_equivalent(game, shifted)

    def test_type_mismatch_rejected(self, example_game):
        other = PolymatrixGame(GameType((2, 3)), np.zeros((5, 5)))
        with pytest.raises(ValueError):
            games_equivalent(example_game, other)

    def test_generic_games_not_equivalent(self):
        rng = np.random.default_rng(8)
        gt = GameType((2, 2))
        assert not games_equivalent(random_game(gt, rng), random_game(gt, rng))

    def test_equivalent_games_share_vector_field(self):
        # equivalent payoffs induce identical dynamics on the prism
        rng = np.random.default_rng(9)
        gt = GameType((3, 2))
        game = random_game(gt, rng)
        other = PolymatrixGame(gt, game.payoff + random_equal_rows(gt, rng))
        for _ in range(100):
            x = random_prism_state(gt, rng)
            npt.assert_allclose(
                vector_field(game, x), vector_field(other, x), atol=1e-10
            )


class TestEqualRowCriterion:
    """Equal-row blocks are exactly the matrices killing the dynamics."""

    def test_equal_rows_map_into_normal_space(self):
        rng = np.random.default_rng(10)
        gt = GameType((3, 2))
        c = random_equal_rows(gt, rng)
        for k in range(gt.n):
            img = c[:, k]
            for a in range(gt.p):
                idx = gt.group_indices(a)
                assert np.max(np.abs(img[idx] - img[idx.start])) < 1e-12

    def test_non_equal_rows_leave_normal_space(self):
        rng = np.random.default_rng(11)
        gt = GameType((3, 2))
        c = rng.uniform(-1, 1, (5, 5))
        assert not has_equal_row_blocks(gt, c)
        violations = 0
        for k in range(gt.n):
            img = c[:, k]
            for a in range(gt.p):
                idx = gt.group_indices(a)
                if np.max(np.abs(img[idx] - img[idx.start])) > 1e-9:
                    violations += 1
        assert violations > 0


class TestZeroRowRepresentative:
    def test_example_row_zeroed(self, example_game):
        out = zero_row_representative(example_game, 2)
        assert np.all(out.payoff[2] == 0)
        assert games_equivalent(out, example_game)
        expected_row0 = example_game.payoff[0] - example_game.payoff[2]
        npt.assert_array_equal(out.payoff[0], expected_row0)

    def test_zero_game_unchanged(self):
        zero = PolymatrixGame(GameType((2, 2)), np.zeros((4, 4)))
        out = zero_row_representative(zero, 1)
        npt.assert_array_equal(out.payoff, zero.payoff)

    def test_rps_field_agreement(self):
        rng = np.random.default_rng(12)
        out = zero_row_representative(RPS, 0)
        assert np.all(out.payoff[0] == 0)
        for _ in range(5):
            x = random_prism_state(RPS.gtype, rng)
            npt.assert_allclose(vector_field(RPS, x), vector_field(out, x), atol=1e-12)


class TestVectorField:
    def test_equilibrium_is_critical(self, example_game, example_q):
        assert np.max(np.abs(vector_field(example_game, example_q))) < 1e-14

    def test_tangency(self, example_game):
        rng = np.random.default_rng(13)
        gt = example_game.gtype
        for _ in range(50):
            f = vector_field(example_game, random_prism_state(gt, rng))
            assert in_tangent_space(gt, f, tol=1e-10)

    def test_face_invariance_exact(self, example_game):
        x = np.array([0.0, 0.4, 0.6, 0.3, 0.7])
        f = vector_field(example_game, x)
        assert f[0] == 0.0

    def test_vertex_of_zero_game(self):
        zero = PolymatrixGame(GameType((2, 2)), np.zeros((4, 4)))
        x = np.array([1.0, 0.0, 0.0, 1.0])
        npt.assert_array_equal(vector_field(zero, x), np.zeros(4))

    def test_against_direct_evaluation(self):
        # independent two-loop transcription of the defining equation
        rng = np.random.default_rng(14)
        gt = GameType((2, 2))
        game = random_game(gt, rng)
        x = random_prism_state(gt, rng)
        a = game.payoff
        expected = np.zeros(4)
        for alpha in range(2):
            idx = list(gt.group_indices(alpha))
            avg = 0.0
            for j in idx:
                pay_j = sum(a[j, k] * x[k] for k in range(4))
                avg += x[j] * pay_j
            for i in idx:
                pay_i = sum(a[i, k] * x[k] for k in range(4))
                expected[i] = x[i] * (pay_i - avg)
        npt.assert_allclose(vector_field(game, x), expected, atol=1e-12)

    def test_batched_evaluation(self, example_game):
        rng = np.random.default_rng(15)
        gt = example_game.gtype
        xs = np.array([random_prism_state(gt, rng) for _ in range(6)])
        batch = vector_field(example_game, xs)
        for k in range(6):
            npt.assert_allclose(batch[k], vector_field(example_game, xs[k]), atol=1e-14)


class TestEquilibria:
    def test_example_contains_q(self, example_game, example_q):
        eq = formal_equilibria(example_game)
        assert eq.exists
        assert eq.contains(example_q)

    def test_zero_game_barycenter(self):
        zero = PolymatrixGame(GameType((2, 2)), np.zeros((4, 4)))
        eq = formal_equilibria(zero)
        npt.assert_allclose(eq.particular, [0.5, 0.5, 0.5, 0.5], atol=1e-12)
        assert eq.dimension == 2

    def test_inconsistent_system_flagged(self):
        # payoffs force q2 = -q1 while the group sum forces q1 + q2 = 1... both
        # rows of Aq equal means q2 - q1 = ... the skew game below has no
        # formal equilibrium: (Aq)_1 = q2, (Aq)_2 = -q1 equal iff q2 = -q1
        skew = PolymatrixGame(GameType((2,)), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        eq = formal_equilibria(skew)
        assert not eq.exists

    def test_interior_example(self, example_game, example_q):
        eq = interior_equilibria(example_game)
        assert eq.interior_flag
        assert eq.contains(example_q)
        assert np.min(eq.interior_point) > 0

    def test_interior_rps(self):
        eq = interior_equilibria(RPS)
        npt.assert_allclose(eq.interior_point, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_exterior_equilibrium_flagged(self):
        # equal payoffs force q1 = -2 q2 = 4 q3, so the unique formal
        # equilibrium is (4/3, -2/3, 1/3): outside the simplex
        game = PolymatrixGame(GameType((3,)), np.diag([1.0, -2.0, 4.0]))
        eq = interior_equilibria(game)
        assert eq.exists and eq.dimension == 0
        npt.assert_allclose(eq.particular, [4 / 3, -2 / 3, 1 / 3], atol=1e-9)
        assert not eq.interior_flag

    def test_max_min_coordinate_is_a_linear_program(self):
        # the min coordinate is concave and nonsmooth in c, where a
        # coordinate search stalls; the optimum here is q2 = 2
        point = _maximize_min_coordinate(
            np.array([-0.5, -0.5, 2.0]), np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0]]), 1e-12
        )
        assert point is not None
        assert np.min(point) == pytest.approx(2.0)

    @pytest.mark.parametrize("scale", [1e9, 1e12, 1e299])
    def test_large_payoff_scale_keeps_the_group_sums(self, example_game, example_q, scale):
        # payoff rows of size 1e10 and more beside the unit group-sum rows: the sums must still bind
        eq = formal_equilibria(PolymatrixGame(example_game.gtype, example_game.payoff * scale))
        assert eq.exists and eq.dimension == 1
        assert eq.contains(example_q)

    def test_basis_members_are_formal(self, example_game):
        eq = formal_equilibria(example_game)
        rng = np.random.default_rng(16)
        a = example_game.payoff
        gt = example_game.gtype
        for _ in range(5):
            q = eq.particular + eq.basis.T @ rng.uniform(-0.2, 0.2, eq.dimension)
            pay = a @ q
            for grp in range(gt.p):
                idx = list(gt.group_indices(grp))
                assert np.max(np.abs(pay[idx] - pay[idx[0]])) < 1e-9
                assert abs(np.sum(q[idx]) - 1) < 1e-9


class TestBlockAccess:
    def test_block_slices(self, example_game):
        npt.assert_array_equal(example_game.block(0, 1), example_game.payoff[:3, 3:])
        npt.assert_array_equal(example_game.block(1, 0), example_game.payoff[3:, :3])


class TestGameTypeCache:
    def test_indicator_shared_and_read_only(self):
        gt = GameType((3, 2))
        ind = gt.indicator()
        assert ind is gt.indicator()
        assert not ind.flags.writeable
        with pytest.raises(ValueError):
            ind[0, 0] = 2.0

    def test_same_group_shared_and_read_only(self):
        gt = GameType((3, 2))
        same = gt.same_group()
        assert same is gt.same_group()
        assert not same.flags.writeable
        with pytest.raises(ValueError):
            same[0, 0] = 2.0
        npt.assert_array_equal(same, gt.indicator().T @ gt.indicator())
        npt.assert_array_equal(same[3], [0, 0, 0, 1, 1])

    def test_cached_values(self):
        gt = GameType((3, 1, 2))
        assert gt.offsets == (0, 3, 4)
        npt.assert_array_equal(
            gt.indicator(), [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 1]]
        )

    def test_equality_ignores_cache(self):
        a, b = GameType((2, 2)), GameType((2, 2))
        a.indicator()
        assert a == b and hash(a) == hash(b)


class TestDiagonalScaling:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            DiagonalScaling((1.0, 0.0))

    def test_expansion_constant_per_group(self):
        d = DiagonalScaling((2.0, 5.0))
        npt.assert_array_equal(d.expand(GameType((3, 2))), [2, 2, 2, 5, 5])

    def test_group_count_checked(self):
        d = DiagonalScaling((2.0, 5.0))
        npt.assert_array_equal(d.group_values(GameType((3, 2))), [2, 5])
        with pytest.raises(ValueError):
            d.group_values(GameType((2, 2, 1)))
