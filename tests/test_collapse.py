from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import brentq

import reference_vertex_layer as ref_layer
from polyrep import collapse, games
from polyrep.collapse import (
    cardinal2_cleanup,
    hamiltonian_collapse,
    q_ell_reduction,
    rationalize_equilibrium,
    reduce_by_set,
    reduce_equilibrium,
)
from polyrep.games import (
    GameType,
    PolymatrixGame,
    games_equivalent,
    interior_equilibria,
    random_prism_state,
    vector_field,
    zero_row_representative,
)
from polyrep.stability import CONSERVATIVE, SEMIDEF_TOL, admissible, analyse, check_with_scaling
from polyrep.vertices import VertexLabel, enumerate_vertices, vertex_matrix, scaled_game

from conftest import EXAMPLE_Q, EXAMPLE_REDUCED, make_admissible_game, make_dissipative_game, random_game, rejection_prism_state

ZERO32 = PolymatrixGame(GameType((3, 2)), np.zeros((5, 5)))


class TestQEllReduction:
    def test_example_exact(self, example_game):
        reduced = q_ell_reduction(example_game, EXAMPLE_Q, 2)
        assert reduced.gtype == GameType((2, 2))
        npt.assert_array_equal(reduced.payoff, EXAMPLE_REDUCED)

    def test_zero_game_shrinks(self):
        q = [Fraction(1, 3)] * 3 + [Fraction(1, 2)] * 2
        reduced = q_ell_reduction(ZERO32, q, 1)
        assert reduced.gtype == GameType((2, 2))
        assert np.all(reduced.payoff == 0)

    def test_two_path_cross_check(self):
        # the general entry formula must agree (as dynamics) with the
        # zero-row normal form used in the underlying construction
        rng = np.random.default_rng(50)
        gt = GameType((3, 2))
        for _ in range(10):
            game = random_game(gt, rng)
            q = rejection_prism_state(gt, rng, 0.05)
            ell = int(rng.integers(0, 3))
            direct = q_ell_reduction(game, q, ell)
            via_zero_row = q_ell_reduction(zero_row_representative(game, ell), q, ell)
            assert games_equivalent(direct, via_zero_row, tol=1e-9)
            q_red = np.array([float(x) for x in reduce_equilibrium(gt, q, ell)])
            y = random_prism_state(direct.gtype, rng)
            npt.assert_allclose(
                vector_field(direct, y), vector_field(via_zero_row, y), atol=1e-9
            )

    def test_rejects_boundary_q(self, example_game):
        q = [Fraction(0), Fraction(2, 3), Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)]
        with pytest.raises(ValueError):
            q_ell_reduction(example_game, q, 0)

    def test_rejects_singleton_group(self):
        game = PolymatrixGame(GameType((1, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            q_ell_reduction(game, [1, Fraction(1, 2), Fraction(1, 2)], 0)

    def test_induced_equilibrium_is_equilibrium(self, example_game):
        reduced = q_ell_reduction(example_game, EXAMPLE_Q, 2)
        q_red = np.array([float(x) for x in reduce_equilibrium(example_game.gtype, EXAMPLE_Q, 2)])
        npt.assert_allclose(q_red, [0.5, 0.5, 0.5, 0.5], atol=1e-15)
        assert np.max(np.abs(vector_field(reduced, q_red))) <= 1e-10


class TestSliceConsistency:
    """On tangency points of the slice, the fields correspond under the
    rescaled identification (group coordinates and velocities both pick
    up the 1/(1-q_l) factor)."""

    def _tangency_points(self, game, count, seed=51):
        rng = np.random.default_rng(seed)
        pts = []
        while len(pts) < count:
            u1, u2 = rng.uniform(0.05, 2 / 3 - 0.05, 2)
            w1, w2 = rng.uniform(0.05, 0.95, 2)

            def state(s):
                u = u1 + s * (u2 - u1)
                w = w1 + s * (w2 - w1)
                return np.array([u, 2 / 3 - u, 1 / 3, w, 1 - w])

            def vel(s):
                return vector_field(game, state(s))[2]

            if vel(0.0) * vel(1.0) < 0:
                s0 = brentq(vel, 0.0, 1.0, xtol=1e-12)
                pts.append(state(s0))
        return pts

    def test_example_slice(self, example_game):
        reduced = q_ell_reduction(example_game, EXAMPLE_Q, 2)
        scale = np.array([1.5, 1.5, 1.0, 1.0])  # 1/(1 - 1/3) on group one
        for x in self._tangency_points(example_game, 20):
            assert abs(vector_field(example_game, x)[2]) < 1e-10
            fx = vector_field(example_game, x)
            pushed = np.delete(fx, 2) * scale
            mapped = np.delete(x, 2) * scale
            npt.assert_allclose(
                vector_field(reduced, mapped), pushed, atol=1e-8
            )


class TestCardinal2Cleanup:
    def test_structural_type_change(self):
        game = PolymatrixGame(GameType((1, 2)), np.arange(9, dtype=float).reshape(3, 3))
        out = cardinal2_cleanup(game, 0)
        assert out.gtype == GameType((2,))

    def test_zero_game(self):
        game = PolymatrixGame(GameType((1, 2)), np.zeros((3, 3)))
        out = cardinal2_cleanup(game, 0)
        assert np.all(out.payoff == 0)

    def test_field_preserved_on_slice(self):
        # folding the pinned column must not change the surviving dynamics
        rng = np.random.default_rng(52)
        game = PolymatrixGame(GameType((1, 3)), rng.integers(-4, 5, (4, 4)).astype(float))
        out = cardinal2_cleanup(game, 0)
        for _ in range(10):
            y = random_prism_state(out.gtype, rng)
            x = np.concatenate(([1.0], y))
            npt.assert_allclose(
                vector_field(game, x)[1:], vector_field(out, y), atol=1e-12
            )

    def test_example_pinned_pair_folds_to_trivial(self, example_game):
        # after the main reduction, pinning one more strategy in the first
        # group collapses it entirely; the remainder is a trivial game
        reduced = q_ell_reduction(example_game, EXAMPLE_Q, 2)
        q_red = [Fraction(1, 2)] * 4
        smaller = q_ell_reduction(reduced, q_red, 1)
        assert smaller.gtype == GameType((1, 2))
        final = cardinal2_cleanup(smaller, 0)
        assert final.gtype == GameType((2,))
        zero = PolymatrixGame(GameType((2,)), np.zeros((2, 2)))
        assert games_equivalent(final, zero)

    def test_rejects_wrong_size(self, example_game):
        with pytest.raises(ValueError):
            cardinal2_cleanup(example_game, 0)

    def test_rejects_the_only_group(self):
        # a one-group game has no other group to fold the survivor's column into
        game = PolymatrixGame(GameType((1,)), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="cannot fold away the only group"):
            cardinal2_cleanup(game, 0)

    @pytest.mark.parametrize("alpha", [-1, -2, 2])
    def test_rejects_a_group_the_type_lacks(self, alpha):
        # a negative index would read the last group's size and drop nothing
        game = PolymatrixGame(GameType((2, 1)), np.zeros((3, 3)))
        with pytest.raises(IndexError, match=f"group {alpha} out of range"):
            cardinal2_cleanup(game, alpha)


def _payoffs(gtype, rng):
    """Float, integer and -0.0-bearing payoffs, the last with +0.0 beside them."""
    n = gtype.n
    signed_zeros = rng.choice([-0.0, 0.0, 1.0, -2.5], (n, n))
    return [rng.uniform(-3, 3, (n, n)), rng.integers(-4, 5, (n, n)).astype(float), signed_zeros]


def _exact(x) -> Fraction:
    return Fraction(float(x))


class TestEntriesAreTheRationalsRoundedOnce:
    """Each entry is float() of its exact rational formula, the sign of zero included."""

    @pytest.mark.parametrize("sizes", [(3, 2), (2, 2, 2), (4,), (1, 3, 2)])
    def test_q_ell_reduction(self, sizes):
        rng = np.random.default_rng([60, len(sizes), sizes[0]])
        gt = GameType(sizes)
        for a in _payoffs(gt, rng) * 3:
            game = PolymatrixGame(gt, a)
            floats = np.concatenate([rng.dirichlet(np.ones(s)) for s in sizes])
            fractions = [Fraction(int(k), 12) for s in sizes for k in rng.multinomial(12 - s, np.ones(s) / s) + 1]
            for q in (floats, fractions):
                for ell in (i for i in range(gt.n) if gt.sizes[gt.group_of(i)] > 1):
                    keep = [i for i in range(gt.n) if i != ell]
                    mates = set(gt.group_indices(gt.group_of(ell)))
                    ql = q[ell] if isinstance(q[ell], Fraction) else _exact(q[ell])
                    want = np.array([
                        [
                            float((_exact(a[i, j]) - _exact(a[ell, j])) * (1 - ql)
                                  + (_exact(a[i, ell]) - _exact(a[ell, ell])) * ql)
                            if j in mates else float(_exact(a[i, j]) - _exact(a[ell, j]))
                            for j in keep
                        ]
                        for i in keep
                    ])
                    assert q_ell_reduction(game, q, ell).payoff.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sizes", [(2, 1), (1, 3, 2), (2, 2, 1)])
    def test_cardinal2_cleanup(self, sizes):
        rng = np.random.default_rng([61, len(sizes), sizes[0]])
        gt = GameType(sizes)
        alpha = sizes.index(1)
        pinned = gt.offsets[alpha]
        target = set(gt.group_indices(next(g for g in range(gt.p) if g != alpha)))
        keep = [i for i in range(gt.n) if i != pinned]
        for a in _payoffs(gt, rng) * 3:
            want = np.array([
                [float(_exact(a[i, j]) + _exact(a[i, pinned])) if j in target else float(_exact(a[i, j])) for j in keep]
                for i in keep
            ])
            got = cardinal2_cleanup(PolymatrixGame(gt, a), alpha)
            assert got.payoff.tobytes() == want.tobytes()

    def test_an_entry_past_the_float_range_raises(self):
        a = np.zeros((5, 5))
        a[0, 3], a[2, 3] = 1.5e308, -1.5e308  # column 3 lies outside strategy 2's group
        with pytest.raises(OverflowError):
            q_ell_reduction(PolymatrixGame(GameType((3, 2)), a), EXAMPLE_Q, 2)
        b = np.zeros((3, 3))
        b[1, 1], b[1, 0] = 1.5e308, 1.5e308  # folds pinned column 0 into column 1
        with pytest.raises(OverflowError):
            cardinal2_cleanup(PolymatrixGame(GameType((1, 2)), b), 0)


class TestReduceBySet:
    def test_example_single_strategy(self, example_game):
        reduced, ident = reduce_by_set(example_game, EXAMPLE_Q, {2})
        npt.assert_array_equal(reduced.payoff, EXAMPLE_REDUCED)
        assert ident.kept == (0, 1, 3, 4)
        npt.assert_allclose(ident.scale, [1.5, 1.5, 1.0, 1.0])

    def test_empty_set_is_identity(self, example_game):
        reduced, ident = reduce_by_set(example_game, EXAMPLE_Q, set())
        npt.assert_array_equal(reduced.payoff, example_game.payoff)
        assert ident.kept == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("bad", [99, -1])
    def test_out_of_range_strategy_refused(self, example_game, bad):
        with pytest.raises(IndexError, match=f"strategy {bad} out of range"):
            reduce_by_set(example_game, EXAMPLE_Q, {bad, 2})

    def test_removal_order_equivalent(self):
        # one pinned strategy in each group: both orders land on the same
        # dynamics (matrices may differ by an equivalence)
        rng = np.random.default_rng(53)
        gt = GameType((3, 3))
        for _ in range(5):
            game, q, _ = make_admissible_game(gt, rng)
            a, ident_a = reduce_by_set(game, q, {0, 3})
            cur_q = reduce_equilibrium(gt, q, 3)
            b1 = q_ell_reduction(game, q, 3)
            b = q_ell_reduction(b1, cur_q, 0)
            assert games_equivalent(a, b, tol=1e-8)


class TestHamiltonianCollapse:
    def test_example(self, example_game):
        # at the analysis's q, rationalized to EXAMPLE_Q: every bit as at the exact q
        res = hamiltonian_collapse(example_game)
        assert len(res.steps) == 1
        step = res.steps[0]
        assert step.removed_original == 2 and step.group == 0
        assert step.scale_factor == pytest.approx(1.5)
        npt.assert_array_equal(res.final_game.payoff, EXAMPLE_REDUCED)
        npt.assert_array_equal(res.final_equilibrium, [0.5, 0.5, 0.5, 0.5])
        assert res.certificate.values == (1.5, 1.0)
        assert check_with_scaling(res.final_game, res.certificate).kind == CONSERVATIVE

    def test_the_interior_point_is_searched_once(self, monkeypatch, example_game):
        calls = []
        search = games._maximize_min_coordinate
        monkeypatch.setattr(games, "_maximize_min_coordinate", lambda *args: calls.append(args) or search(*args))
        game = PolymatrixGame(example_game.gtype, example_game.payoff)  # a fresh analysis
        assert analyse(game, SEMIDEF_TOL).equilibria.interior_point is not None
        hamiltonian_collapse(game)
        assert len(calls) == 1

    def test_no_interior_equilibrium_is_refused(self):
        # admissible, but its only equilibrium is (0, 1), on the boundary
        game = PolymatrixGame(GameType((2,)), np.array([[-1.0, 0.0], [0.0, 0.0]]))
        assert admissible(game)[0]
        with pytest.raises(ValueError, match="no interior equilibrium"):
            hamiltonian_collapse(game)

    def test_already_conservative_zero_steps(self):
        ok, _ = admissible(ZERO32)
        assert ok
        res = hamiltonian_collapse(ZERO32)
        assert res.steps == ()
        npt.assert_array_equal(res.final_game.payoff, ZERO32.payoff)

    def test_single_group_damped_collapse(self):
        # cyclic skew core with one damped strategy: equilibrium at
        # (4/9, 3/9, 2/9), one removal, then conservative
        a = np.array(
            [
                [0.0, -1.0, 1.0],
                [1.0, -1.0, -1.0],
                [-1.0, 1.0, 0.0],
            ]
        )
        game = PolymatrixGame(GameType((3,)), a)
        eq = interior_equilibria(game)
        assert eq.interior_point is not None
        assert rationalize_equilibrium(game, eq.interior_point) == [Fraction(4, 9), Fraction(3, 9), Fraction(2, 9)]
        res = hamiltonian_collapse(game)
        assert len(res.steps) == 1
        assert res.steps[0].removed_original == 1
        assert check_with_scaling(res.final_game, res.certificate).kind == CONSERVATIVE

    def test_intermediate_games_admissible(self, example_game):
        res = hamiltonian_collapse(example_game)
        ok, _ = admissible(res.final_game)
        assert ok

    def test_certificate_transport_exact(self, example_game):
        # the scaled vertex matrix of the reduced game is the original one
        # with the removed row and column deleted
        res = hamiltonian_collapse(example_game)
        v0 = enumerate_vertices(example_game.gtype)[0]
        before = vertex_matrix(example_game, v0).entries  # identity certificate
        pos = vertex_matrix(example_game, v0).index_set.index(2)
        expect = np.delete(np.delete(before, pos, 0), pos, 1)
        after = vertex_matrix(
            scaled_game(res.final_game, res.certificate), res.vertex
        ).entries
        npt.assert_array_equal(after, expect)

    def test_equilibrium_transport(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            game, _, _ = make_admissible_game(GameType((3, 2)), rng)
            res = hamiltonian_collapse(game)
            resid = np.max(np.abs(vector_field(res.final_game, res.final_equilibrium)))
            assert resid <= 1e-10
            verdict = check_with_scaling(res.final_game, res.certificate)
            assert verdict.kind == CONSERVATIVE

    def test_two_step_collapse_with_group_fold(self):
        # one damped strategy per two-strategy group and no coupling:
        # each removal empties a group; the first triggers the fold, the
        # second ends in the one-point prism
        a0 = -np.diag([0.0, 1.0, 0.0, 1.0])
        shift = -(a0 @ np.full(4, 0.5)) / 2
        game = PolymatrixGame(GameType((2, 2)), a0 + np.outer(shift, np.ones(4)))
        res = hamiltonian_collapse(game)
        assert [s.removed_original for s in res.steps] == [1, 3]
        assert res.steps[0].cleanup_group == 0
        assert res.steps[0].scale_factor == pytest.approx(2.0)
        assert res.final_game.gtype == GameType((1,))
        assert res.identification.kept == (2,)
        assert res.vertex == VertexLabel((0,))  # the fold took group 0's chosen strategy
        npt.assert_allclose(res.final_equilibrium, [1.0])
        assert check_with_scaling(res.final_game, res.certificate).kind == CONSERVATIVE

    def test_reduce_by_set_folds_group(self):
        a0 = -np.diag([0.0, 1.0, 0.0, 1.0])
        q = [Fraction(1, 2)] * 4
        shift = -(a0 @ np.full(4, 0.5)) / 2
        game = PolymatrixGame(GameType((2, 2)), a0 + np.outer(shift, np.ones(4)))
        reduced, ident = reduce_by_set(game, q, {1})
        assert reduced.gtype == GameType((2,))
        assert ident.kept == (2, 3)
        # strategy 0 goes in the fold, so asking for it too changes nothing
        assert reduce_by_set(game, q, {0, 1})[1] == ident

    @pytest.mark.parametrize("scale", [1e9, 1e12])
    def test_equilibrium_residual_is_relative_to_the_payoff(self, example_game, scale):
        # the float q's rounding leaves a residual of about scale * 1e-16, which is no defect
        game = PolymatrixGame(example_game.gtype, example_game.payoff * scale)
        res = hamiltonian_collapse(game)
        npt.assert_array_equal(res.final_game.payoff, EXAMPLE_REDUCED * scale)
        assert res.certificate.values == (1.5, 1.0)

    def test_removes_the_damped_strategies_of_the_first_stable_vertex(self, example_game):
        rng = np.random.default_rng(62)
        cases = [example_game] + [
            make_admissible_game(GameType(sizes), rng)[0] for sizes in [(3, 2), (2, 2, 2), (3, 3), (4,)] for _ in range(3)
        ]
        for game in cases:
            res = hamiltonian_collapse(game)
            an = analyse(game, SEMIDEF_TOL)
            signs = ref_layer.vertex_graph(*ref_layer.vertex_matrix(game, an.vstar[0])).diagonal_sign
            assert [s.removed_original for s in res.steps] == sorted(i for i, sign in signs.items() if sign < 0)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_a_core_left_dissipative_is_refused(self, monkeypatch, example_game, scale):
        # an analysis that sees no damped strategy removes nothing, so the
        # final game is the dissipative input, at any payoff scale
        def blind(game, tol):
            an = analyse(game, tol)
            edges, signs = an.pattern
            return SimpleNamespace(
                admissible=an.admissible, unit=an.unit, stable_rows=an.stable_rows, scaling=an.scaling,
                tensor=an.tensor, pattern=(edges, np.zeros_like(signs)), equilibria=an.equilibria,
            )

        monkeypatch.setattr(collapse, "analyse", blind)
        game = PolymatrixGame(example_game.gtype, example_game.payoff * scale)
        with pytest.raises(RuntimeError, match="collapsed game classifies as dissipative, not conservative"):
            hamiltonian_collapse(game)

    @pytest.mark.parametrize("sizes,seed", [((2, 2), 0), ((3, 3), 19), ((3, 2), 9), ((2, 2, 2), 26)])
    def test_collapses_at_tol_0(self, sizes, seed):
        # the reductions round, so the core's eigenvalues come out near 1e-16, not 0:
        # at tol 0 these games once read indefinite or dissipative after the chain
        game, _, _ = make_dissipative_game(GameType(sizes), np.random.default_rng(seed))
        an = analyse(game, 0.0)
        assert an.admissible
        res = hamiltonian_collapse(game, tol=0.0)
        assert check_with_scaling(res.final_game, res.certificate).kind == CONSERVATIVE

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
            hamiltonian_collapse(skew)


class TestRationalize:
    def test_example(self, example_game, example_q):
        got = rationalize_equilibrium(example_game, example_q)
        assert got == EXAMPLE_Q

    def test_rejects_non_equilibrium(self, example_game):
        assert rationalize_equilibrium(example_game, np.full(5, 0.2)) is None
