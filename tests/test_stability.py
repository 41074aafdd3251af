import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrep.games import DiagonalScaling, GameType, PolymatrixGame, random_tangent_vector
from polyrep.stability import (
    CONSERVATIVE,
    DISSIPATIVE,
    INDEFINITE,
    NO_FORMAL_EQUILIBRIUM,
    NOT_DISSIPATIVE,
    SEMIDEF_TOL,
    Analysis,
    admissible,
    almost_skew_symmetric,
    check_with_scaling,
    find_almost_skew_scaling,
    find_scaling,
    kernel_duality,
    skew_decomposition,
    stable_vertices,
    stably_dissipative,
)
from polyrep.stability import _largest_angle, _sym, _VertexForm
from polyrep.vertices import (
    VertexLabel,
    VertexMatrix,
    enumerate_vertices,
    first_vertex,
    scaled_game,
    vertex_graph,
    vertex_matrix,
)

from conftest import (
    EXAMPLE_PAYOFF,
    EXAMPLE_VERTEX_TABLE,
    make_dissipative_game,
    make_stable_matrix,
    random_game,
    random_type_scaling,
)

IDENTITY2 = DiagonalScaling((1.0, 1.0))


def _skew(rng, n):
    s = rng.uniform(-2, 2, (n, n))
    return s - s.T


class TestCheckWithScaling:
    def test_example_dissipative_under_identity(self, example_game):
        assert check_with_scaling(example_game, IDENTITY2).kind == DISSIPATIVE

    def test_zero_game_conservative(self):
        zero = PolymatrixGame(GameType((2, 2)), np.zeros((4, 4)))
        assert check_with_scaling(zero, IDENTITY2).kind == CONSERVATIVE

    def test_positive_diagonal_game_indefinite(self):
        # single block: the one vertex coefficient is a00+a11-a01-a10 = 2 > 0
        game = PolymatrixGame(GameType((2,)), np.eye(2))
        verdict = check_with_scaling(game, DiagonalScaling((1.0,)))
        assert verdict.kind == INDEFINITE
        w = verdict.witness
        assert w is not None and float(w @ game.payoff @ w) > 0

    def test_no_formal_equilibrium_kind(self):
        skew = PolymatrixGame(GameType((2,)), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert check_with_scaling(skew, DiagonalScaling((1.0,))).kind == NO_FORMAL_EQUILIBRIUM

    def test_constructed_games_certify(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            game, _, d = make_dissipative_game(GameType((3, 2)), rng)
            assert check_with_scaling(game, d).kind in (CONSERVATIVE, DISSIPATIVE)

    def test_conservative_construction(self):
        rng = np.random.default_rng(32)
        game, _, d = make_dissipative_game(GameType((2, 2)), rng, conservative=True)
        assert check_with_scaling(game, d).kind == CONSERVATIVE

    def test_scaling_length_checked(self, example_game):
        with pytest.raises(ValueError):
            check_with_scaling(example_game, DiagonalScaling((1.0, 1.0, 1.0)))

    @pytest.mark.parametrize("classify", [check_with_scaling, skew_decomposition])
    @pytest.mark.parametrize(
        "game,d",
        [
            (PolymatrixGame(GameType((3, 2)), EXAMPLE_PAYOFF), DiagonalScaling((1e308, 1.0))),
            (PolymatrixGame(GameType((2,)), np.array([[0.0, 0.0], [-1.0, 0.0]])), DiagonalScaling((1e308,))),
        ],
        ids=["entries", "symmetric-part"],
    )
    def test_a_form_past_the_float_range_is_refused(self, classify, game, d):
        # once overflow warnings, then LinAlgError from the eigensolver, itself a ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves the float range"):
                classify(game, d)


class TestVertexForm:
    """The certificate objective, built once per game, against the scaled game."""

    @pytest.mark.parametrize("sizes", [(3, 3), (2, 2, 2), (3, 2, 1), (2,) * 4, (1, 1), (4,)])
    def test_bitwise_equal_to_scaled_vertex_matrix(self, sizes):
        gt = GameType(sizes)
        rng = np.random.default_rng(len(sizes) * 100 + sum(sizes))
        v0 = first_vertex(gt)
        games = [random_game(gt, rng, integer=True), make_dissipative_game(gt, rng)[0]]
        for game in games:
            form = _VertexForm(game, v0)
            scalings = [random_type_scaling(gt, rng) for _ in range(5)]
            scalings.append(DiagonalScaling(tuple(np.exp(rng.uniform(-30.0, 30.0, gt.p)))))
            for d in scalings:
                expected = _sym(vertex_matrix(scaled_game(game, d), v0).entries)
                got = form.sym(np.array(d.values))
                assert np.array_equal(got, expected)

    def test_zero_dimensional_vertex(self):
        game = PolymatrixGame(GameType((1, 1)), np.array([[1.0, 2.0], [3.0, 4.0]]))
        form = _VertexForm(game, first_vertex(game.gtype))
        assert form.dim == 0
        assert form.eigvals(np.array([1.0, 2.0])).size == 0
        assert find_scaling(game).values == (1.0, 1.0)


# Certificates that an earlier multistart Nelder-Mead search found on
# make_dissipative_game(GameType(sizes), default_rng(seed)).  The convex
# search must certify the same games, by whatever certificate it finds.
PINNED_SCALINGS = [
    ((3, 3), 1, (1.0, 3.593122503624089)),
    ((3, 3), 5, (1.0, 8.311633047670558)),
    ((2, 2, 2), 2, (1.0, 0.7068217259697972, 3.838546303396272)),
    ((2, 2, 2), 6, (1.0, 0.6182816264721677, 0.13136511706251347)),
    ((2,) * 4, 4, (1.0, 6.015929076425002, 3.3936067297398775, 6.027214708319475)),
    ((2,) * 4, 6, (1.0, 1.3376573485128915, 1.1187898714374305, 0.17851740205212616)),
]


class TestFindScaling:
    def test_example(self, example_game):
        d = find_scaling(example_game)
        assert d is not None
        assert check_with_scaling(example_game, d).kind in (CONSERVATIVE, DISSIPATIVE)

    def test_zero_game_identity(self):
        zero = PolymatrixGame(GameType((2, 2)), np.zeros((4, 4)))
        assert find_scaling(zero).values == (1.0, 1.0)

    def test_recovers_hidden_scaling(self):
        # a skew core times diag(1,1,3,3) needs the inverse group weights
        rng = np.random.default_rng(33)
        gt = GameType((2, 2))
        s = _skew(rng, 4)
        hidden = np.array([1.0, 1.0, 3.0, 3.0])
        game = PolymatrixGame(gt, s * hidden)
        d = find_scaling(game)
        assert d is not None
        verdict = check_with_scaling(game, d)
        assert verdict.kind in (CONSERVATIVE, DISSIPATIVE)

    def test_indefinite_game_gives_none(self):
        game = PolymatrixGame(GameType((2,)), np.eye(2))
        assert find_scaling(game) is None

    def test_no_formal_equilibrium_gives_none(self):
        # strategy 0 always pays 1 more than strategy 1, so no state equalizes them;
        # the form at the first vertex is 0, which the identity would certify
        game = PolymatrixGame(GameType((2,)), np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert check_with_scaling(game, DiagonalScaling((1.0,))).kind == NO_FORMAL_EQUILIBRIUM
        assert Analysis(game).scaling is None
        assert find_scaling(game) is None

    @pytest.mark.parametrize("tol", [-1e-9, float("inf"), float("nan")])
    def test_rejects_a_tolerance_the_analysis_rejects(self, example_game, tol):
        with pytest.raises(ValueError, match="finite number >= 0"):
            find_scaling(example_game, tol)

    @pytest.mark.parametrize("sizes,seed,values", PINNED_SCALINGS)
    def test_pinned_certificates(self, sizes, seed, values):
        game, _, _ = make_dissipative_game(GameType(sizes), np.random.default_rng(seed))
        assert check_with_scaling(game, DiagonalScaling(values)).kind in (CONSERVATIVE, DISSIPATIVE)
        d = find_scaling(game)
        assert d.values[0] == 1.0
        assert check_with_scaling(game, d).kind in (CONSERVATIVE, DISSIPATIVE)

    def test_pinned_miss(self):
        game = random_game(GameType((2, 2)), np.random.default_rng(1), integer=True)
        assert find_scaling(game) is None
        assert Analysis(game).kind == NOT_DISSIPATIVE

    def test_underflowing_search_does_not_raise(self):
        # the multistart raised here once exp(theta) underflowed to 0
        game = PolymatrixGame(
            GameType((2,) * 8), np.random.default_rng(0).integers(-5, 6, (16, 16))
        )
        assert find_scaling(game) is None
        assert Analysis(game).kind == NOT_DISSIPATIVE

    @pytest.mark.parametrize("sizes", [(2,) * 8, (2,) * 6, (3,) * 4, (3, 3, 3), (3, 3), (2, 2, 2), (4, 3)])
    def test_constructed_games_are_certified(self, sizes):
        # certificates whose feasible set has no interior included: every
        # undamped same-group direction is in the kernel of the hidden scaling
        for seed in range(1000, 1005):
            game, _, _ = make_dissipative_game(GameType(sizes), np.random.default_rng(seed))
            assert Analysis(game).kind in (CONSERVATIVE, DISSIPATIVE), seed
            d = find_scaling(game)
            assert d.values[0] == 1.0
            assert check_with_scaling(game, d).kind in (CONSERVATIVE, DISSIPATIVE)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(sizes=st.sampled_from([(2, 2, 2), (3, 3), (2,) * 4]), seed=st.integers(0, 2**32 - 1))
    def test_every_certificate_passes_the_check(self, sizes, seed):
        # the search and check_with_scaling read the form's sign by one rule,
        # so at tol 0 rounding cannot split them
        game, _, _ = make_dissipative_game(GameType(sizes), np.random.default_rng(seed))
        for tol in (0.0, SEMIDEF_TOL):
            d = find_scaling(game, tol)
            assert d is None or check_with_scaling(game, d, tol).kind in (CONSERVATIVE, DISSIPATIVE)

    @pytest.mark.parametrize("sizes", [(2,), (3,), (2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2,) * 6])
    def test_proofs_hold_for_every_scaling(self, sizes):
        rng = np.random.default_rng(len(sizes) * 10 + sizes[0])
        v0 = first_vertex(GameType(sizes))
        proved = 0
        for _ in range(10):
            game = random_game(GameType(sizes), rng, integer=rng.random() < 0.5)
            an = Analysis(game)
            if an.kind != NOT_DISSIPATIVE:
                continue
            proved += 1
            u = an.search.proof
            assert u.shape == (vertex_matrix(game, v0).dim,) and np.isclose(u @ u, 1.0)
            for _ in range(20):
                d = DiagonalScaling(tuple(np.exp(rng.uniform(-20.0, 20.0, len(sizes)))))
                assert u @ _sym(vertex_matrix(scaled_game(game, d), v0).entries) @ u > 0
        assert proved >= 5


class TestSkewDecomposition:
    def test_zero_game(self):
        zero = PolymatrixGame(GameType((2, 2)), np.zeros((4, 4)))
        a0, c = skew_decomposition(zero, IDENTITY2)
        assert np.max(np.abs(a0)) < 1e-12 and np.max(np.abs(c)) < 1e-12

    def test_rps_already_skew(self):
        rps = PolymatrixGame(
            GameType((3,)), np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], dtype=float)
        )
        a0, c = skew_decomposition(rps, DiagonalScaling((1.0,)))
        npt.assert_allclose(a0, rps.payoff, atol=1e-12)
        npt.assert_allclose(c, 0, atol=1e-12)

    def test_structural_predicates(self):
        # skewness of one part, equal-row blocks of the other, exact sum
        from polyrep.games import has_equal_row_blocks

        rng = np.random.default_rng(34)
        gt = GameType((2, 2))
        game, _, d = make_dissipative_game(gt, rng, conservative=True)
        a0, c = skew_decomposition(game, d)
        npt.assert_allclose(a0, -a0.T, atol=1e-12)
        assert has_equal_row_blocks(gt, c, tol=1e-9)
        npt.assert_allclose(a0 + c, game.payoff * d.expand(gt), atol=1e-12)

    def test_rejects_non_conservative(self, example_game):
        with pytest.raises(ValueError):
            skew_decomposition(example_game, IDENTITY2)


class TestAlmostSkew:
    def test_example_vertex_matrix(self, example_game):
        v0 = enumerate_vertices(example_game.gtype)[0]
        assert almost_skew_symmetric(vertex_matrix(example_game, v0).entries)

    def test_zero_matrix(self):
        assert almost_skew_symmetric(np.zeros((3, 3)))

    def test_asymmetric_pair_fails(self):
        assert not almost_skew_symmetric(np.array([[-1.0, 2.0], [1.0, 0.0]]))

    def test_definiteness_clause(self):
        # antisymmetry holds but the damped block is only semidefinite
        m = np.array([[-1.0, -1.0, 1.0], [-1.0, -1.0, 1.0], [-1.0, -1.0, 0.0]])
        assert not almost_skew_symmetric(m)


class TestAlmostSkewScaling:
    def test_example_identity_works(self, example_game):
        v0 = enumerate_vertices(example_game.gtype)[0]
        d = find_almost_skew_scaling(vertex_matrix(example_game, v0).entries)
        npt.assert_allclose(d, np.ones(3))

    def test_skew_matrix_identity(self):
        rng = np.random.default_rng(35)
        s = np.array([[0.0, 1.5], [-1.5, 0.0]])
        npt.assert_allclose(find_almost_skew_scaling(s), np.ones(2))

    def test_ratio_propagation(self):
        m = np.array([[0.0, 1.0], [-2.0, 0.0]])
        d = find_almost_skew_scaling(m)
        # constraint 1 * d2 = 2 * d1 with the first index pinned at 1
        npt.assert_allclose(d, [1.0, 2.0])

    def test_same_sign_pair_infeasible(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert find_almost_skew_scaling(m) is None

    def test_inconsistent_cycle_infeasible(self):
        # triangle of zero-diagonal constraints with an inconsistent loop ratio
        m = np.array(
            [
                [0.0, 1.0, 1.0],
                [-1.0, 0.0, 1.0],
                [-2.0, -1.0, 0.0],
            ]
        )
        # d2/d1 = 1, d3/d2 = 1, but d3/d1 = 1/2
        assert find_almost_skew_scaling(m) is None

    def test_same_sign_pair_with_underflowing_product_infeasible(self):
        # m_12 m_21 = 1e-400 rounds to 0, yet the signs agree: d = (1, -1) is no scaling
        m = np.array([[0.0, 1e-200], [1e-200, 0.0]])
        assert find_almost_skew_scaling(m, tol=0.0) is None

    @pytest.mark.parametrize(
        "m",
        [
            # one pair's ratio d_3 / d_2 is 1e-400 or 1e400
            [[0.0, 0.0, 1.0], [0.0, 0.0, 1e200], [-1.0, -1e-200, 0.0]],
            [[0.0, 0.0, 1.0], [0.0, 0.0, 1e-200], [-1.0, -1e200, 0.0]],
            # two ratios 1e200 or 1e-200 in a row: d = (1, 1e200, 1e400) or (1, 1e-200, 1e-400)
            [[0.0, 1e-100, 0.0], [-1e100, 0.0, 1e-100], [0.0, -1e100, 0.0]],
            [[0.0, 1e100, 0.0], [-1e-100, 0.0, 1e100], [0.0, -1e-100, 0.0]],
        ],
        ids=["ratio underflows", "ratio overflows", "product overflows", "product underflows"],
    )
    def test_scaling_beyond_float_range_infeasible(self, m):
        # no d > 0 that a float can hold meets these constraints
        assert find_almost_skew_scaling(np.array(m), tol=0.0) is None


class TestStablyDissipative:
    def test_example_table(self, example_game):
        for v in enumerate_vertices(example_game.gtype):
            _, expected = EXAMPLE_VERTEX_TABLE[v.chosen]
            rep = stably_dissipative(vertex_matrix(example_game, v).entries)
            assert rep.stable == expected, v

    def test_zero_matrix_stable(self):
        rep = stably_dissipative(np.zeros((3, 3)))
        assert rep.stable and rep.cycle_ok and rep.skew_ok

    def test_unstable_reports_reason(self, example_game):
        from polyrep.vertices import VertexLabel

        rep = stably_dissipative(
            vertex_matrix(example_game, VertexLabel((2, 3))).entries
        )
        assert not rep.stable and rep.failures

    def test_cycle_without_strong_link(self):
        # skew triangle: dissipative, all-zero diagonal, 3-cycle, no strong link
        m = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
        rep = stably_dissipative(m)
        assert not rep.cycle_ok and not rep.stable

    def test_cycle_with_strong_link_ok(self):
        m = np.array([[-1.0, 1.0, 0.5], [-1.0, -1.0, 1.0], [-0.5, -1.0, 0.0]])
        rep = stably_dissipative(m)
        assert rep.stable

    def test_generated_family(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            assert stably_dissipative(make_stable_matrix(k, rng)).stable



def _dusted(seed):
    """A small seeded float matrix, and the same matrix with 1e-12 dust on its zeros."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 7))
    if rng.random() < 0.5:
        clean = make_stable_matrix(k, rng) * rng.uniform(0.1, 10.0, k)
    else:
        clean = rng.normal(size=(k, k)) * (rng.random((k, k)) < 0.4)
    return clean, clean + rng.uniform(-1e-12, 1e-12, (k, k)) * (clean == 0)


def _is_forest(k, edges):
    parent = list(range(k))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


class TestOneZeroRule:
    """The vertex graph is the zero pattern the stability test decides on."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_graph_matches_the_stability_decision(self, seed):
        clean, m = _dusted(seed)
        k = len(m)
        g = vertex_graph(VertexMatrix(VertexLabel(()), tuple(range(k)), m))
        assert g.diagonal_sign == {i: int(np.sign(clean[i, i])) for i in range(k)}
        assert g.edges == {(a, b) for a in range(k) for b in range(a + 1, k) if clean[a, b] or clean[b, a]}
        rep = stably_dissipative(m)
        weak = [(a, b) for a, b in g.edges if not g.diagonal_sign[a] == g.diagonal_sign[b] == -1]
        assert rep.cycle_ok == _is_forest(k, weak)
        if rep.skew_ok:
            s = _sym(m * rep.scaling)
            for i, sign in g.diagonal_sign.items():
                if sign == 0:
                    off = np.delete(s[i], i)
                    assert np.all(np.abs(off) <= 1e-9 * max(1.0, float(np.max(np.abs(m * rep.scaling)))))
                else:
                    assert sign == -1  # the damped block is negative definite


class TestScalingTransport:
    def test_left_and_right_scaling_preserve_stability(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            m = make_stable_matrix(int(rng.integers(2, 6)), rng)
            p = np.diag(rng.uniform(0.2, 4.0, m.shape[0]))
            assert stably_dissipative(m @ p).stable
            assert stably_dissipative(np.linalg.inv(p) @ m).stable

    def test_submatrix_closure(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            m = make_stable_matrix(k, rng)
            for size in range(1, k):
                idx = sorted(rng.choice(k, size=size, replace=False))
                assert stably_dissipative(m[np.ix_(idx, idx)]).stable


class TestQuadraticFormScalingIdentity:
    def test_left_vs_right_scaling(self):
        # Q_{D^-1 A}(w) equals Q_{AD}(D^-1 w) on the tangent space
        rng = np.random.default_rng(39)
        for _ in range(100):
            gt = GameType((3, 2)) if rng.random() < 0.5 else GameType((2, 2))
            game = PolymatrixGame(gt, rng.uniform(-2, 2, (gt.n, gt.n)))
            d = random_type_scaling(gt, rng)
            dv = d.expand(gt)
            w = random_tangent_vector(gt, rng)
            left = float((w / dv) @ game.payoff @ w)
            wd = w / dv
            right = float(wd @ (game.payoff * dv) @ wd)
            assert abs(left - right) <= 1e-9 * max(1.0, abs(left))


class TestDampedKernelCoordinates:
    def test_diagonal_kills_kernel_coordinates(self):
        # on the zero set of the scaled form, m_ii w_i = 0
        rng = np.random.default_rng(40)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            m = make_stable_matrix(k, rng)
            rep = stably_dissipative(m)
            assert rep.stable
            d = rep.scaling
            sym = 0.5 * ((m * d) + (m * d).T)
            eigs, vecs = np.linalg.eigh(sym)
            null = vecs[:, np.abs(eigs) <= 1e-10 * max(1.0, np.max(np.abs(eigs)))]
            if null.shape[1] == 0:
                continue
            for _ in range(10):
                w = null @ rng.standard_normal(null.shape[1])
                assert np.max(np.abs(np.diag(m) * w)) <= 1e-8 * max(1.0, np.max(np.abs(w)))


class TestAdmissible:
    def test_example(self, example_game):
        ok, vstar = admissible(example_game)
        assert ok
        assert [v.chosen for v in vstar] == [(0, 3), (0, 4), (1, 3), (1, 4)]

    def test_zero_game_all_vertices(self):
        zero = PolymatrixGame(GameType((2, 2)), np.zeros((4, 4)))
        ok, vstar = admissible(zero)
        assert ok and len(vstar) == 4

    def test_skew_cycle_not_admissible(self):
        # skew single-group game on four strategies: every 3x3 vertex matrix
        # has zero diagonal (no strong links) and a full triangle of edges,
        # so no vertex is stably dissipative
        m = np.array(
            [
                [0.0, 1.0, -2.0, 1.0],
                [-1.0, 0.0, 3.0, -1.0],
                [2.0, -3.0, 0.0, 1.0],
                [-1.0, 1.0, -1.0, 0.0],
            ]
        )
        game = PolymatrixGame(GameType((4,)), m)
        for v in enumerate_vertices(game.gtype):
            vm = vertex_matrix(game, v).entries
            assert np.all(np.diag(vm) == 0)
        ok, vstar = admissible(game)
        assert vstar == []
        assert not ok


def _defect_n_game() -> PolymatrixGame:
    """With rng seed 5, three dissipative draws at (3,2), three at (3,3), then the third at (2,2,2)."""
    rng = np.random.default_rng(5)
    for sizes in [(3, 2)] * 3 + [(3, 3)] * 3 + [(2, 2, 2)] * 3:
        game = make_dissipative_game(GameType(sizes), rng)[0]
    return game


class TestDefectN:
    """The skew test fixes each component's free scalar at 1, so it misses vertices another D makes stable.

    The fixture is certified, and each of its 8 vertices passes the cycle
    test and fails the skew test at d = 1.
    """

    @pytest.mark.xfail(strict=True, reason="defect N: the skew test tries d = 1 only")
    def test_the_fixture_is_admissible(self):
        assert Analysis(_defect_n_game()).admissible

    def test_the_witness_scaling(self):
        # vertex (0, 2, 4) in the unit game: Sym(M) is not negative definite, Sym(M D) is
        an = Analysis(_defect_n_game())
        labels, _, t = an.tensor
        [m] = [t[r] for r, v in enumerate(labels) if v.chosen == (0, 2, 4)]
        npt.assert_allclose(np.linalg.eigvalsh(_sym(m)), [-1.287, -0.671, 0.025], atol=1e-3)
        d = np.diag([1.0, 0.853, 1.231])
        npt.assert_allclose(np.linalg.eigvalsh(_sym(m @ d)), [-0.980, -0.607, -0.296], atol=1e-3)
        assert an.kind == DISSIPATIVE


class TestKernelDuality:
    def test_skew_identity(self):
        rng = np.random.default_rng(41)
        s = _skew(rng, 4)
        assert kernel_duality(s, np.ones(4))

    def test_example_vertex_kernel(self, example_game):
        # Ker(A_v) at the first stable vertex is the (2, 0, 3) ray
        v0 = enumerate_vertices(example_game.gtype)[0]
        m = vertex_matrix(example_game, v0).entries
        npt.assert_allclose(m @ np.array([2.0, 0.0, 3.0]), 0, atol=1e-12)
        assert kernel_duality(m, np.ones(3))

    def test_constructed_singular_pairs(self):
        # bordered skew-damped core: (u, -1) spans the kernel by construction
        rng = np.random.default_rng(42)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            s = _skew(rng, k)
            core = s - np.diag(rng.uniform(0.1, 1.0, k) * (rng.random(k) > 0.5))
            u = rng.uniform(-1.5, 1.5, k)
            m = np.zeros((k + 1, k + 1))
            m[:k, :k] = core
            m[:k, k] = core @ u
            m[k, :k] = u @ core
            m[k, k] = float(u @ core @ u)
            d = rng.uniform(0.2, 3.0, k + 1)
            scaled = m / d  # scaled @ diag(d) = m, so d certifies dissipativity
            assert kernel_duality(scaled, d)


    @pytest.mark.parametrize("target", [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, np.pi / 2 - 1e-2, np.pi / 2 - 1e-3])
    def test_largest_angle_matches_scipy(self, target):
        from scipy.linalg import subspace_angles

        rng = np.random.default_rng(43)
        for _ in range(5):
            n = int(rng.integers(3, 8))
            k = int(rng.integers(1, n))
            frame, _ = np.linalg.qr(rng.normal(size=(n, n)))
            # span(q1) and span(b) share k - 1 directions; the last pair meets at target
            q1 = frame[:, :k]
            b = frame[:, :k].copy()
            b[:, -1] = np.cos(target) * frame[:, k - 1] + np.sin(target) * frame[:, k]
            b = b @ (rng.uniform(-2, 2, (k, k)) + 3 * np.eye(k))  # same span, columns neither unit nor orthogonal
            expected = float(np.max(subspace_angles(q1, b)))
            assert expected == pytest.approx(target, abs=1e-6)
            assert _largest_angle(q1, b) == pytest.approx(expected, rel=1e-9, abs=1e-14)


class TestStableVerticesHelper:
    def test_matches_reports(self, example_game):
        got = {v.chosen for v in stable_vertices(example_game)}
        expected = {label for label, (_, ok) in EXAMPLE_VERTEX_TABLE.items() if ok}
        assert got == expected


class TestFindScalingMultiGroup:
    def test_three_group_hidden_certificates(self):
        # two free log-parameters; the skew-damped core is certified by
        # the inverse of the hidden group weights (or anything better)
        rng = np.random.default_rng(44)
        gt = GameType((2, 2, 2))
        for _ in range(5):
            s = _skew(rng, 6)
            hidden = np.repeat(rng.uniform(0.2, 5.0, 3), (2, 2, 2))
            game = PolymatrixGame(gt, (s - np.diag(rng.uniform(0, 1, 6))) / hidden)
            d = find_scaling(game)
            assert d is not None
            assert check_with_scaling(game, d).kind in (CONSERVATIVE, DISSIPATIVE)
