import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from polyrep.dynamics import (
    MAX_STEPS,
    LVSystem,
    attractor_probe,
    first_integrals,
    h_derivative,
    integrate,
    integrate_batch,
    lv_embedding,
    lv_pushforward_residual,
    lv_to_replicator,
    lyapunov_h,
    quotient_rule_check,
    step_count,
)
from polyrep.games import (
    DiagonalScaling,
    GameType,
    PolymatrixGame,
    random_prism_state,
    vector_field,
)
from polyrep.reduction import run_to_fixpoint
from polyrep.vertices import VertexLabel, enumerate_vertices

from conftest import make_dissipative_game, rejection_prism_state

RPS = PolymatrixGame(
    GameType((3,)), np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], dtype=float)
)
ID1 = DiagonalScaling((1.0,))
ID2 = DiagonalScaling((1.0, 1.0))


class TestIntegrate:
    def test_zero_game_constant(self):
        zero = PolymatrixGame(GameType((2, 2)), np.zeros((4, 4)))
        x0 = np.array([0.3, 0.7, 0.6, 0.4])
        traj = integrate(zero, x0, T=5.0, dt=0.01)
        assert traj.ok
        assert np.max(np.abs(traj.states - x0)) <= 1e-14

    def test_face_invariance_exact(self, example_game):
        x0 = np.array([0.0, 0.4, 0.6, 0.3, 0.7])
        traj = integrate(example_game, x0, T=2.0, dt=0.01)
        assert np.all(traj.states[:, 0] == 0.0)

    def test_group_sums_preserved(self, example_game):
        rng = np.random.default_rng(60)
        x0 = random_prism_state(example_game.gtype, rng)
        traj = integrate(example_game, x0, T=10.0, dt=0.01)
        sums = traj.states @ example_game.gtype.indicator.T
        npt.assert_allclose(sums, 1.0, atol=1e-12)
        assert np.max(traj.renorm_drift) < 1e-9

    def test_batch_matches_single(self, example_game):
        rng = np.random.default_rng(61)
        starts = np.array([random_prism_state(example_game.gtype, rng) for _ in range(3)])
        batch = integrate_batch(example_game, starts, T=1.0, dt=0.01)
        for k in range(3):
            # matmul reduction order differs between batch shapes, so agreement
            # is to rounding, not bitwise
            single = integrate(example_game, starts[k], T=1.0, dt=0.01)
            npt.assert_allclose(batch[k].states, single.states, atol=1e-12)

    def test_batch_matches_single_at_the_benchmark_shape(self, example_game):
        # 500 starts on a (3,2)x4 sum (n = 20) over 1000 steps: long BLAS
        # rows over the starts, which three starts never reach
        rng = np.random.default_rng(64)
        gt = GameType((3, 2) * 4)
        payoff = np.zeros((gt.n, gt.n))
        for j in range(4):
            payoff[5 * j : 5 * j + 5, 5 * j : 5 * j + 5] = rng.integers(1, 4) * example_game.payoff
        for a in range(gt.p):  # equal-row blocks change nothing the flow sees
            payoff[gt.group_indices(a), :] += rng.integers(-3, 4, gt.n)
        game = PolymatrixGame(gt, payoff)
        starts = np.array([rejection_prism_state(gt, rng, 0.02) for _ in range(500)])
        batch = integrate_batch(game, starts, T=10.0, dt=0.01)
        assert all(tr.ok for tr in batch)
        for k in rng.choice(len(starts), 5, replace=False):
            single = integrate(game, starts[k], T=10.0, dt=0.01)
            npt.assert_allclose(batch[k].states, single.states, rtol=0, atol=1e-12)
            npt.assert_allclose(batch[k].renorm_drift, single.renorm_drift, rtol=0, atol=1e-12)

    def test_a_single_start_is_contiguous(self, example_game):
        traj = integrate(example_game, np.array([0.2, 0.3, 0.5, 0.4, 0.6]), T=0.5, dt=0.01)
        assert traj.states.shape == (51, 5)
        assert traj.states.flags.c_contiguous
        assert traj.states.strides == (8 * 5, 8)

    def test_a_batch_shares_one_time_major_history(self, example_game):
        rng = np.random.default_rng(65)
        starts = np.array([random_prism_state(example_game.gtype, rng) for _ in range(3)])
        trajs = integrate_batch(example_game, starts, T=0.5, dt=0.01)
        assert len({id(tr.states.base) for tr in trajs}) == 1
        assert len({id(tr.times.base) for tr in trajs}) == 1
        for tr, start in zip(trajs, starts):
            assert tr.states.shape == (51, 5)
            assert tr.states.strides == (8 * 3 * 5, 8)
            npt.assert_array_equal(tr.states[0], start)
            assert not tr.times.flags.writeable and not tr.times.base.flags.writeable

    def test_an_empty_batch_is_empty(self, example_game):
        assert integrate_batch(example_game, np.empty((0, 5)), T=0.5, dt=0.01) == []

    def test_one_flat_start_is_refused_by_the_batch(self, example_game):
        # a 1-D start would broadcast into n rows: n runs for one start
        with pytest.raises(ValueError, match=r"shape \(m, 5\)"):
            integrate_batch(example_game, np.array([0.2, 0.3, 0.5, 0.4, 0.6]), 0.1)

    def test_a_start_of_the_wrong_length_is_refused(self, example_game):
        with pytest.raises(ValueError, match=r"shape \(m, 5\), got \(1, 4\)"):
            integrate(example_game, np.array([0.5, 0.5, 0.0, 0.5]), 0.1)

    def test_a_history_past_max_history_is_refused_before_any_allocation(self, example_game):
        # 13501 samples of 2000 starts of 5 strategies: 135010000 entries, past the 2**27 a run may keep
        starts = np.tile([1 / 3, 1 / 3, 1 / 3, 1 / 2, 1 / 2], (2000, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="would keep 135010000 state entries, more than the 134217728 it"):
                integrate_batch(example_game, starts, T=135, dt=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_step_count_rounds_the_ratio(self):
        assert step_count(1.0, 0.01) == 100
        assert step_count(0.0, 0.01) == 0
        assert step_count(MAX_STEPS * 0.5, 0.5) == MAX_STEPS

    @pytest.mark.parametrize("T, dt", [(1e300, 0.01), (1.0, 1e-320), (MAX_STEPS + 1.0, 1.0), (float("nan"), 0.01)])
    def test_step_count_beyond_the_ceiling_raises(self, T, dt, example_game):
        with pytest.raises(ValueError, match="steps is not a finite count"):
            step_count(T, dt)
        with pytest.raises(ValueError):
            integrate_batch(example_game, np.full((1, 5), 0.4), T, dt)

    @pytest.mark.parametrize("T, dt", [(1.0, 0.0), (1.0, -0.01), (-1.0, 0.01), (1.0, float("inf"))])
    def test_a_bad_duration_or_step_raises(self, T, dt, example_game):
        # an infinite dt would round T / dt to a run of 0 steps
        x0 = np.full((1, 5), 0.4)
        with pytest.raises(ValueError, match=r"expected T >= 0 and a finite dt > 0, got T = "):
            integrate(example_game, x0[0], T, dt)
        with pytest.raises(ValueError, match=r"expected T >= 0 and a finite dt > 0, got T = "):
            integrate_batch(example_game, x0, T, dt)

    def test_rps_cycles_conserve_h(self):
        q = np.full(3, 1 / 3)
        traj = integrate(RPS, np.array([0.5, 0.3, 0.2]), T=100.0, dt=0.01)
        h = lyapunov_h(RPS, q, ID1, traj.states)
        assert np.max(np.abs(h - h[0])) <= 1e-6 * max(1.0, abs(h[0]))


class TestLyapunov:
    def test_monotone_on_example(self, example_game, example_q):
        rng = np.random.default_rng(62)
        x0 = rejection_prism_state(example_game.gtype, rng, 0.05)
        traj = integrate(example_game, x0, T=50.0, dt=0.01)
        h = lyapunov_h(example_game, example_q, ID2, traj.states)
        assert np.max(np.diff(h)) <= 1e-9

    def test_minimum_on_leaf_at_q(self, example_game, example_q):
        # h(q) minimizes h over the leaf through q; leaf states built
        # directly: the conserved quantity 2 log(x1/x0) + 3 log(x4/x3)
        # vanishes at q, so picking the first-group ratio r forces the
        # second-group ratio to r^(-2/3)
        hq = lyapunov_h(example_game, example_q, ID2, example_q)
        fi = first_integrals(example_game, enumerate_vertices(example_game.gtype)[0])[0]
        level = fi(example_q)
        rng = np.random.default_rng(63)
        for _ in range(1000):
            r = np.exp(rng.uniform(-2, 2))
            s = r ** (-2 / 3)
            x2 = rng.uniform(0.05, 0.9)
            x = np.array(
                [
                    (1 - x2) / (1 + r),
                    r * (1 - x2) / (1 + r),
                    x2,
                    1 / (1 + s),
                    s / (1 + s),
                ]
            )
            assert abs(fi(x) - level) < 1e-9
            assert lyapunov_h(example_game, example_q, ID2, x) >= hq - 1e-9

    def test_rejects_boundary(self, example_game, example_q):
        # a NaN passes a comparison with the floor, and an inf has a log
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="undefined off the open interior and at non-finite states"):
                lyapunov_h(example_game, example_q, ID2, np.array([bad, 0.5, 0.5, 0.5, 0.5]))
            states = np.tile(example_q, (3, 1))
            states[1, 2] = bad
            with pytest.raises(ValueError):
                lyapunov_h(example_game, example_q, ID2, states)


class TestHDerivative:
    def test_zero_at_equilibrium(self, example_game, example_q):
        assert h_derivative(example_game, example_q, ID2, example_q) == 0.0

    def test_example_closed_form(self, example_game, example_q):
        rng = np.random.default_rng(64)
        for _ in range(50):
            x = random_prism_state(example_game.gtype, rng)
            got = h_derivative(example_game, example_q, ID2, x)
            expected = -9.0 * (x[2] - 1 / 3) ** 2
            assert abs(got - expected) <= 1e-9

    def test_matches_finite_differences(self):
        # central difference of h along the field vs the quadratic form
        rng = np.random.default_rng(65)
        for _ in range(30):
            gt = GameType((3, 2)) if rng.random() < 0.5 else GameType((2, 2))
            game, q, d = make_dissipative_game(gt, rng)
            x = rejection_prism_state(gt, rng, 0.05)
            f = vector_field(game, x)
            eps = 1e-6
            num = (
                lyapunov_h(game, q, d, x + eps * f)
                - lyapunov_h(game, q, d, x - eps * f)
            ) / (2 * eps)
            ana = h_derivative(game, q, d, x)
            assert abs(num - ana) <= 1e-6 * max(abs(ana), 1e-4) + 1e-10


class TestFirstIntegrals:
    def test_example_kernel_direction(self, example_game):
        v0 = enumerate_vertices(example_game.gtype)[0]
        fis = first_integrals(example_game, v0)
        assert len(fis) == 1
        b = fis[0].kernel_vector
        npt.assert_allclose(b / b[0], [1.0, 0.0, 1.5], atol=1e-12)

    def test_constant_along_orbits(self, example_game):
        rng = np.random.default_rng(66)
        v0 = enumerate_vertices(example_game.gtype)[0]
        fi = first_integrals(example_game, v0)[0]
        x0 = rejection_prism_state(example_game.gtype, rng, 0.05)
        traj = integrate(example_game, x0, T=100.0, dt=0.01)
        series = fi(traj.states)
        assert np.max(np.abs(series - series[0])) <= 1e-6

    def test_rejects_boundary(self, example_game, example_q):
        fi = first_integrals(example_game, enumerate_vertices(example_game.gtype)[0])[0]
        for bad in (0.0, np.nan, np.inf):
            x = example_q.copy()
            x[1] = bad
            with pytest.raises(ValueError, match="undefined off the open interior and at non-finite states"):
                fi(x)
            with pytest.raises(ValueError):
                fi(np.array([example_q, x]))

    def test_defined_on_the_whole_open_interior(self, example_game, example_q):
        # a subnormal coordinate is inside the open prism, for g as for h
        fi = first_integrals(example_game, enumerate_vertices(example_game.gtype)[0])[0]
        x = np.array([1 / 3, 1e-310, 2 / 3 - 1e-310, 1 / 2, 1 / 2])
        assert fi(x) == np.log(x) @ fi.coefficients
        assert np.isfinite(lyapunov_h(example_game, example_q, ID2, x))

    def test_zero_game_conserves_all_ratios(self):
        zero = PolymatrixGame(GameType((2, 2)), np.zeros((4, 4)))
        v0 = enumerate_vertices(zero.gtype)[0]
        fis = first_integrals(zero, v0)
        assert len(fis) == 2  # full kernel: one ratio per group

    def test_full_rank_vertex_empty(self):
        # damped everything: vertex matrices are invertible
        game = PolymatrixGame(
            GameType((3,)),
            np.array([[-1.0, -1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0]]),
        )
        assert first_integrals(game, VertexLabel((0,))) == []


class TestRatioAndQuotient:
    def test_quotient_rule_at_equilibrium(self, example_game, example_q):
        v0 = enumerate_vertices(example_game.gtype)[0]
        assert quotient_rule_check(example_game, example_q, v0, example_q) <= 1e-12

    def test_quotient_rule_example(self, example_game, example_q):
        rng = np.random.default_rng(68)
        v0 = enumerate_vertices(example_game.gtype)[0]
        for _ in range(100):
            x = rejection_prism_state(example_game.gtype, rng, 1e-3)
            assert quotient_rule_check(example_game, example_q, v0, x) <= 1e-9


class TestAttractorProbe:
    def test_example_probe(self, example_game, example_q):
        red = run_to_fixpoint(example_game)
        report = attractor_probe(example_game, example_q, red, runs=3, T=200.0)
        assert report.pinned_residual[2] <= 1e-4
        for i in (0, 1, 3, 4):
            assert report.plus_velocity[i] <= 1e-5
        assert report.link_drift[(3, 4)] <= 1e-5

    def test_all_black_converges_to_q(self):
        game = PolymatrixGame(
            GameType((3,)),
            np.array([[-1.0, -1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0]]),
        )
        red = run_to_fixpoint(game)
        assert red.verdict == "all_black"
        q = np.full(3, 1 / 3)
        report = attractor_probe(game, q, red, runs=3, T=100.0)
        assert all(v <= 1e-6 for v in report.pinned_residual.values())


class TestLotkaVolterra:
    def test_zero_system(self):
        game = lv_to_replicator(LVSystem(np.zeros((2, 2)), np.zeros(2)))
        assert game.gtype == GameType((3,))
        assert np.all(game.payoff == 0)

    def test_predator_prey_matrix(self):
        lv = LVSystem(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
        game = lv_to_replicator(lv)
        npt.assert_array_equal(
            game.payoff, [[0, -1, 1], [1, 0, -1], [0, 0, 0]]
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LVSystem(np.array([[0.0, bad], [1.0, 0.0]]), np.ones(2))
        with pytest.raises(ValueError, match="finite"):
            LVSystem(np.zeros((2, 2)), np.array([1.0, bad]))

    def test_pushforward_identity(self):
        rng = np.random.default_rng(69)
        lv = LVSystem(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
        for _ in range(20):
            z = rng.uniform(0.1, 3.0, 2)
            assert lv_pushforward_residual(lv, z) <= 1e-8

    def test_interior_fixed_point_maps_to_equilibrium(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            s = rng.uniform(-1, 1, (n, n))
            a = s - s.T - np.diag(rng.uniform(0.1, 1.0, n))
            z_star = rng.uniform(0.2, 2.0, n)
            r = -(a @ z_star)
            lv = LVSystem(a, r)
            npt.assert_allclose(lv.field(z_star), 0, atol=1e-12)
            game = lv_to_replicator(lv)
            x_star = lv_embedding(z_star)
            assert np.max(np.abs(vector_field(game, x_star))) <= 1e-10

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            LVSystem(np.zeros((2, 2)), np.zeros(3))


class TestNonFiniteAbort:
    def test_partial_trajectory_flagged(self):
        poisoned = PolymatrixGame(
            GameType((2,)), np.array([[np.nan, 0.0], [0.0, 0.0]])
        )
        traj = integrate(poisoned, np.array([0.5, 0.5]), T=1.0, dt=0.01)
        assert not traj.ok
        assert len(traj.times) < 101

    def test_bad_start_spares_the_batch(self, example_game, example_q):
        # the last start's second group sums to 0, so its first step is 0/0
        rng = np.random.default_rng(62)
        moving = random_prism_state(example_game.gtype, rng)
        starts = np.array([example_q, moving, [0.2, 0.3, 0.5, 0.0, 0.0]])
        fixed, free, bad = integrate_batch(example_game, starts, T=1.0, dt=0.01)
        for start, traj in ((example_q, fixed), (moving, free)):
            assert traj.ok
            assert traj.states.shape == (101, 5) and len(traj.renorm_drift) == 101
            single = integrate(example_game, start, T=1.0, dt=0.01)
            npt.assert_allclose(traj.states, single.states, atol=1e-12)
        assert not bad.ok
        assert bad.states.shape == (1, 5) and len(bad.times) == len(bad.renorm_drift) == 1
        npt.assert_array_equal(bad.states[0], starts[2])

    def test_every_start_bad(self, example_game):
        starts = np.array([[0.2, 0.3, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5, 0.5]])
        for traj in integrate_batch(example_game, starts, T=1.0, dt=0.01):
            assert traj.ok is False
            assert traj.states.shape == (1, 5)


class TestReductionSoundnessProbe:
    """Empirical soundness of the inference rules against the flow.

    Every strategy the fixpoint colors black must approach its
    equilibrium value on simulated runs of random admissible games;
    convergence rates vary (weak damping mixes slowly), so the check is
    decay over the horizon, with an absolute bound once converged.
    """

    def test_random_admissible_games(self):
        from conftest import make_admissible_game

        rng = np.random.default_rng(71)
        for k in range(6):
            gt = GameType((2, 2)) if k % 2 else GameType((3, 2))
            game, q, _ = make_admissible_game(gt, rng)
            red = run_to_fixpoint(game)
            black = list(red.black())
            assert black  # the factory damps something at every stable vertex
            srng = np.random.default_rng(k)
            starts = np.array([rejection_prism_state(gt, srng, 0.05) for _ in range(3)])
            trajs = integrate_batch(game, starts, T=300.0, dt=0.01)

            def residual(frac):
                worst = 0.0
                for tr in trajs:
                    idx = int(frac * (len(tr.times) - 1))
                    worst = max(worst, np.max(np.abs(tr.states[idx][black] - q[black])))
                return worst

            early, late = residual(1 / 3), residual(1.0)
            assert late <= max(1e-6, 0.5 * early), (k, early, late)
            for i in red.plus():
                for tr in trajs:
                    assert abs(vector_field(game, tr.final)[i]) <= 1e-3
