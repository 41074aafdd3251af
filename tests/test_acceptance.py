"""Acceptance suite: the exit criteria of the build, one test per criterion.

Each test pins the golden values of the worked example (two
groups of sizes 3 and 2) or runs a seeded property suite at its stated
tolerance, and prints one PASS line; a failure shows up as the usual
pytest failure for that criterion.

Strategy indices are 0-based throughout (1-based table values shift by
one: strategy 3 becomes index 2, the pair {4,5} becomes {3,4}).
"""

import time

import numpy as np
import numpy.testing as npt

from polyrep.collapse import q_ell_reduction
from polyrep.dynamics import (
    LVSystem,
    h_derivative,
    integrate_batch,
    lv_pushforward_residual,
    lyapunov_h,
    quotient_rule_check,
)
from polyrep.games import (
    DiagonalScaling,
    GameType,
    PolymatrixGame,
    games_equivalent,
    random_prism_state,
    random_tangent_vector,
    vector_field,
)
from polyrep.reduction import Color, collapse_trace, run_to_fixpoint
from polyrep.stability import Analysis, kernel_duality, stably_dissipative
from polyrep.vertices import (
    diag_property_check,
    enumerate_vertices,
    quadratic_via_vertex,
    vertex_matrix,
)

from conftest import (
    EXAMPLE_Q,
    EXAMPLE_REDUCED,
    EXAMPLE_VERTEX_TABLE,
    make_dissipative_game,
    make_stable_matrix,
    random_equal_rows,
    rejection_prism_state,
    random_game,
)

SMALL_TYPES = (GameType((2, 2)), GameType((3, 2)), GameType((2, 3)), GameType((2, 2, 2)))


def _pick_type(rng) -> GameType:
    return SMALL_TYPES[rng.integers(len(SMALL_TYPES))]


def test_criterion_01_vertex_matrix_table(example_game):
    start = time.perf_counter()
    for v in enumerate_vertices(example_game.gtype):
        expected, _ = EXAMPLE_VERTEX_TABLE[v.chosen]
        got = vertex_matrix(example_game, v).entries
        npt.assert_array_equal(got, np.array(expected, dtype=float))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: all six vertex matrices exact ({elapsed:.3f}s)")


def test_criterion_02_stable_vertex_classification(example_game):
    start = time.perf_counter()
    for v in enumerate_vertices(example_game.gtype):
        _, expected = EXAMPLE_VERTEX_TABLE[v.chosen]
        rep = stably_dissipative(vertex_matrix(example_game, v).entries)
        assert rep.stable == expected, f"vertex {v} misclassified"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: stable vertices are exactly the first four ({elapsed:.3f}s)")


def test_criterion_03_quadratic_form_closed_form(example_game):
    rng = np.random.default_rng(100)
    for _ in range(100):
        w = random_tangent_vector(example_game.gtype, rng)
        got = float(w @ example_game.payoff @ w)
        expected = -9.0 * w[2] ** 2
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))
    print("\nACCEPTANCE 3 PASS: payoff form is -9 w2^2 on the tangent space (100 draws)")


def test_criterion_04_reduction_trace(example_game):
    red = run_to_fixpoint(Analysis(example_game))
    rules = [s.rule for s in collapse_trace(red.final.trace)]
    assert rules == [1, 4, 6, 3]
    assert tuple(red.final.colors) == (
        Color.PLUS,
        Color.PLUS,
        Color.BLACK,
        Color.PLUS,
        Color.PLUS,
    )
    assert red.final.links == frozenset({(3, 4)})
    assert red.verdict == "black_plus"
    print("\nACCEPTANCE 4 PASS: trace 1->4->6->3, colors {2:black, rest:plus}, link {3,4}")


def test_criterion_05_collapse_to_trivial(example_game):
    reduced = q_ell_reduction(example_game, EXAMPLE_Q, 2)
    npt.assert_array_equal(reduced.payoff, EXAMPLE_REDUCED)
    zero = PolymatrixGame(GameType((2, 2)), np.zeros((4, 4)))
    assert games_equivalent(reduced, zero)
    print("\nACCEPTANCE 5 PASS: exact reduction matrix, equivalent to the trivial game")


def test_criterion_06_dynamics(example_game, example_q):
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    starts = np.array(
        [rejection_prism_state(example_game.gtype, rng, 0.1) for _ in range(10)]
    )
    trajs = integrate_batch(example_game, starts, T=500.0, dt=0.01)
    d = DiagonalScaling((1.0, 1.0))
    hw = example_q / d.expand(example_game.gtype)
    integral = np.zeros(5)
    integral[[1, 0, 4, 3]] = [2.0, -2.0, 3.0, -3.0]  # 2 log(x1/x0) + 3 log(x4/x3)
    for tr in trajs:
        assert tr.ok
        assert abs(tr.final[2] - 1 / 3) <= 1e-4
        h = -np.log(tr.states) @ hw
        assert np.max(np.diff(h)) <= 1e-9
        series = np.log(tr.states) @ integral
        assert np.max(np.abs(series - series[0])) <= 1e-6
        tail = tr.states[tr.states.shape[0] // 2 :]
        ratio = tail[:, 3] / tail[:, 4]
        assert np.max(ratio) - np.min(ratio) <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 6 PASS: 10 runs converge with monotone h ({elapsed:.1f}s)")


def test_criterion_07a_representation_identity():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        gt = _pick_type(rng)
        game = random_game(gt, rng)
        verts = enumerate_vertices(gt)
        v = verts[rng.integers(len(verts))]
        x = random_prism_state(gt, rng)
        q = random_prism_state(gt, rng)
        direct = float((x - q) @ game.payoff @ (x - q))
        via = quadratic_via_vertex(game, v, x, q)
        assert abs(via - direct) <= 1e-9 * max(1.0, abs(direct))
    print("\nACCEPTANCE 7a PASS: vertex representation of the form (1000 trials, 1e-9)")


def test_criterion_07b_diagonal_factorization_exact():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        gt = _pick_type(rng)
        game = random_game(gt, rng, integer=True)
        d = DiagonalScaling(tuple(float(v) for v in rng.integers(1, 7, gt.p)))
        verts = enumerate_vertices(gt)
        v = verts[rng.integers(len(verts))]
        assert diag_property_check(game, d, v, tol=0.0)
    print("\nACCEPTANCE 7b PASS: (AD)_v = A_v D_v exact on integers (1000 trials)")


def test_criterion_07c_equivalence_invariant_fields():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        gt = _pick_type(rng)
        game = random_game(gt, rng)
        other = PolymatrixGame(gt, game.payoff + random_equal_rows(gt, rng))
        x = random_prism_state(gt, rng)
        diff = np.max(np.abs(vector_field(game, x) - vector_field(other, x)))
        assert diff <= 1e-10
    print("\nACCEPTANCE 7c PASS: equivalent games share the field (1000 trials, 1e-10)")


def test_criterion_07d_lyapunov_derivative_vs_finite_differences():
    rng = np.random.default_rng(104)
    for _ in range(1000):
        gt = _pick_type(rng)
        game, q, d = make_dissipative_game(gt, rng)
        x = rejection_prism_state(gt, rng, 0.05)
        f = vector_field(game, x)
        eps = 1e-6
        num = (
            lyapunov_h(game, q, d, x + eps * f) - lyapunov_h(game, q, d, x - eps * f)
        ) / (2 * eps)
        ana = h_derivative(game, q, d, x)
        assert abs(num - ana) <= 1e-6 * max(1.0, abs(ana)) + 1e-10
    print("\nACCEPTANCE 7d PASS: dh/dt matches central differences (1000 trials)")


def test_criterion_07e_quotient_rule():
    rng = np.random.default_rng(105)
    for _ in range(1000):
        gt = _pick_type(rng)
        game, q, _ = make_dissipative_game(gt, rng)
        verts = enumerate_vertices(gt)
        v = verts[rng.integers(len(verts))]
        x = rejection_prism_state(gt, rng, 1e-3)
        assert quotient_rule_check(game, q, v, x) <= 1e-9
    print("\nACCEPTANCE 7e PASS: ratio quotient rule (1000 trials, 1e-9)")


def test_criterion_07f_kernel_duality():
    rng = np.random.default_rng(106)
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        s = rng.uniform(-2, 2, (k, k))
        s = s - s.T
        core = s - np.diag(rng.uniform(0.1, 1.0, k) * (rng.random(k) > 0.5))
        u = rng.uniform(-1.5, 1.5, k)
        m = np.zeros((k + 1, k + 1))
        m[:k, :k] = core
        m[:k, k] = core @ u
        m[k, :k] = u @ core
        m[k, k] = float(u @ core @ u)
        d = rng.uniform(0.2, 3.0, k + 1)
        assert kernel_duality(m / d, d, tol=1e-8)
    print("\nACCEPTANCE 7f PASS: Ker(M) = D Ker(M^T) on constructed pairs (1000 trials)")


def test_criterion_07g_stability_closure_lemmas():
    rng = np.random.default_rng(107)
    curated = [make_stable_matrix(int(rng.integers(1, 6)), rng) for _ in range(20)]
    for m in curated:
        assert stably_dissipative(m).stable
        k = m.shape[0]
        for _ in range(3):
            p = rng.uniform(0.2, 4.0, k)
            assert stably_dissipative(m * p).stable  # right scaling M P
            assert stably_dissipative(m / p[:, None]).stable  # left scaling P^-1 M
        for mask in range(1, 2**k - 1):
            idx = [i for i in range(k) if mask & (1 << i)]
            assert stably_dissipative(m[np.ix_(idx, idx)]).stable
    print("\nACCEPTANCE 7g PASS: stability closed under scalings and submatrices (20 matrices)")


def test_criterion_08_slice_consistency(example_game):
    from scipy.optimize import brentq

    reduced = q_ell_reduction(example_game, EXAMPLE_Q, 2)
    scale = np.array([1.5, 1.5, 1.0, 1.0])
    rng = np.random.default_rng(108)
    checked = 0
    while checked < 20:
        u1, u2 = rng.uniform(0.05, 2 / 3 - 0.05, 2)
        w1, w2 = rng.uniform(0.05, 0.95, 2)

        def state(s):
            u = u1 + s * (u2 - u1)
            w = w1 + s * (w2 - w1)
            return np.array([u, 2 / 3 - u, 1 / 3, w, 1 - w])

        def vel(s):
            return vector_field(example_game, state(s))[2]

        if vel(0.0) * vel(1.0) >= 0:
            continue
        x = state(brentq(vel, 0.0, 1.0, xtol=1e-12))
        fx = vector_field(example_game, x)
        assert abs(fx[2]) <= 1e-10  # genuine tangency point
        lhs = vector_field(reduced, np.delete(x, 2) * scale)
        rhs = np.delete(fx, 2) * scale
        assert np.max(np.abs(lhs - rhs)) <= 1e-8
        checked += 1
    print("\nACCEPTANCE 8 PASS: original and reduced fields agree at 20 tangency points")


def test_criterion_09_lotka_volterra_compactification():
    rng = np.random.default_rng(109)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        a = rng.uniform(-2, 2, (n, n))
        r = rng.uniform(-2, 2, n)
        lv = LVSystem(a, r)
        for _ in range(20):
            z = rng.uniform(0.05, 4.0, n)
            assert lv_pushforward_residual(lv, z) <= 1e-8
    print("\nACCEPTANCE 9 PASS: push-forward equals the compactified field (5 systems x 20 points)")
