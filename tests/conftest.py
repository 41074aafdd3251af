"""Shared fixtures: the worked-example game and random game factories."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polyrep.games import (
    DiagonalScaling,
    GameType,
    PolymatrixGame,
)

FIXTURES = Path(__file__).parent / "fixtures"

# Two groups of sizes 3 and 2; the running example all golden values
# in this suite come from.
EXAMPLE_PAYOFF = np.array(
    [
        [-1, 8, -7, 3, -3],
        [-10, -1, 11, 3, -3],
        [11, -7, -4, -6, 6],
        [-3, -3, 6, 0, 0],
        [3, 3, -6, 0, 0],
    ],
    dtype=float,
)

# Its interior equilibrium, exact.
EXAMPLE_Q = [Fraction(1, 3)] * 3 + [Fraction(1, 2)] * 2

# Vertex label -> expected coefficient matrix (index set ascending) and
# whether the vertex is stably dissipative.
EXAMPLE_VERTEX_TABLE = {
    (0, 3): ([[0, 27, 0], [-27, -9, 18], [0, -18, 0]], True),
    (0, 4): ([[0, 27, 0], [-27, -9, -18], [0, 18, 0]], True),
    (1, 3): ([[0, -27, 0], [27, -9, 18], [0, -18, 0]], True),
    (1, 4): ([[0, -27, 0], [27, -9, -18], [0, 18, 0]], True),
    (2, 3): ([[-9, 18, -18], [-36, -9, -18], [18, 18, 0]], False),
    (2, 4): ([[-9, 18, 18], [-36, -9, 18], [-18, -18, 0]], False),
}

# The game after removing strategy 2 at the equilibrium.
EXAMPLE_REDUCED = np.array(
    [
        [-9, 9, 9, -9],
        [-9, 9, 9, -9],
        [-6, 6, 6, -6],
        [-6, 6, 6, -6],
    ],
    dtype=float,
)

# An integer (2,2,2) game that no direction tried before the Kelley cuts
# proves not dissipative: the proof is the top eigenvector at a cut's d.
KELLEY_PROOF_GAME = """type: 2 2 2
-3 -1 3 4 0 -5
1 -3 -2 0 -4 5
-2 3 2 -3 -5 4
5 -1 5 -5 5 0
4 3 -4 -4 -2 2
-1 -4 -3 -5 3 5
"""

# Tokens outside the one number grammar (`gamefile._NUMBER`): a digit separator, an
# Arabic-Indic and a full-width one, words for non-finite values, hex, a bare exponent
# or point, and fractions of anything but two integers; every reader refuses each.
NOT_NUMBERS = ["1_0", "\u0661", "\uff11", "nan", "inf", "Infinity", "0x10", "1e", ".", "1.5/2", "3/-4", "1e3/7", "1/0"]


@pytest.fixture(scope="session")
def example_game() -> PolymatrixGame:
    return PolymatrixGame(GameType((3, 2)), EXAMPLE_PAYOFF)


@pytest.fixture(scope="session")
def example_q() -> np.ndarray:
    return np.array([float(x) for x in EXAMPLE_Q])


@pytest.fixture(scope="session")
def example_game_file() -> Path:
    return FIXTURES / "example_game.txt"


def random_game(gtype: GameType, rng: np.random.Generator, integer: bool = False) -> PolymatrixGame:
    if integer:
        a = rng.integers(-5, 6, (gtype.n, gtype.n)).astype(float)
    else:
        a = rng.uniform(-3, 3, (gtype.n, gtype.n))
    return PolymatrixGame(gtype, a)


def random_equal_rows(gtype: GameType, rng: np.random.Generator, integer: bool = False) -> np.ndarray:
    """A matrix whose blocks all have equal rows (a dynamics no-op)."""
    c = np.zeros((gtype.n, gtype.n))
    for a in range(gtype.p):
        rows = gtype.group_indices(a)
        row = (
            rng.integers(-4, 5, gtype.n).astype(float)
            if integer
            else rng.uniform(-2, 2, gtype.n)
        )
        c[rows.start : rows.stop, :] = row
    return c


def random_type_scaling(gtype: GameType, rng: np.random.Generator) -> DiagonalScaling:
    return DiagonalScaling(tuple(rng.uniform(0.3, 3.0, gtype.p)))


def rejection_prism_state(gtype: GameType, rng: np.random.Generator, floor: float) -> np.ndarray:
    """Dirichlet(1) per group, drawn again until every coordinate exceeds floor.

    The draw the seeded recipes and probes were recorded with:
    games.random_prism_state samples the same law in one draw, so it
    gives other numbers from the same generator.  Returns only when every
    group of k has k * floor < 1.
    """
    while True:
        x = np.concatenate([rng.dirichlet(np.ones(s)) for s in gtype.sizes])
        if np.min(x) > floor:
            return x


def make_dissipative_game(
    gtype: GameType,
    rng: np.random.Generator,
    zero_diag_fraction: float = 0.5,
    conservative: bool = False,
) -> tuple[PolymatrixGame, np.ndarray, DiagonalScaling]:
    """A game certified dissipative by construction, with an interior q.

    Start from a skew core minus a nonnegative diagonal (so the quadratic
    form is negative semidefinite everywhere), unscale by the certificate
    diagonal, then add a rank-one all-ones column pattern tuned to make a
    chosen interior point a formal equilibrium; that addition moves
    neither the form on the tangent space nor the certificate.
    """
    n, p = gtype.n, gtype.p
    s = rng.uniform(-2, 2, (n, n))
    s = s - s.T
    if conservative:
        damping = np.zeros(n)
    else:
        damping = rng.uniform(0.2, 2.0, n) * (rng.random(n) > zero_diag_fraction)
    core = s - np.diag(damping)
    d = random_type_scaling(gtype, rng)
    base = core / d.expand(gtype)
    q = rejection_prism_state(gtype, rng, 0.05)
    shift = -(base @ q) / p
    payoff = base + np.outer(shift, np.ones(n))
    return PolymatrixGame(gtype, payoff), q, d


def make_admissible_game(
    gtype: GameType, rng: np.random.Generator, max_tries: int = 200
) -> tuple[PolymatrixGame, np.ndarray, DiagonalScaling]:
    """Rejection-sample the dissipative factory until a stable vertex shows."""
    from polyrep.stability import admissible

    for _ in range(max_tries):
        game, q, d = make_dissipative_game(gtype, rng)
        ok, _ = admissible(game)
        if ok:
            return game, q, d
    raise RuntimeError(f"no admissible game found for type {gtype}")


def make_stable_matrix(k: int, rng: np.random.Generator) -> np.ndarray:
    """A stably dissipative matrix whose stability is decidable by ratio
    propagation.

    Every off-diagonal coupling passes through a zero-diagonal hub, so
    the antisymmetry constraints pin the rescaling of each connected
    piece globally, couplings between damped coordinates never appear,
    and the damped block stays strictly negative under any positive
    column scaling.  The zero pattern is a forest of stars: acyclic, so
    the cycle condition is vacuous.
    """
    if k == 1:
        return np.array([[-float(rng.uniform(0.5, 2.0))]])
    hubs = sorted(rng.choice(k, size=int(rng.integers(1, max(2, k // 2 + 1))), replace=False))
    hub_of = {}
    for node in range(k):
        if node not in hubs:
            hub_of[node] = int(rng.choice(hubs))
    s = np.zeros((k, k))
    for leaf, hub in hub_of.items():
        w = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        s[hub, leaf] = w
        s[leaf, hub] = -w
    damping = np.zeros(k)
    for node in range(k):
        if node not in hubs:
            damping[node] = rng.uniform(0.5, 2.0)  # hubs keep a zero diagonal
    d0 = rng.uniform(0.3, 3.0, k)
    return (s - np.diag(damping)) * d0
