"""Output checks from ground truth, computed with numpy alone.

Each check returns a list of problems (empty when the output is right).
The truth comes from how the games were built (corpus.py), never from
what polyrep printed at some earlier commit, so a change that certifies
more games or finds a different but valid certificate still passes.
"""

from __future__ import annotations

import numpy as np

from corpus import (
    EXAMPLE_COLORS,
    EXAMPLE_CORE_SIZES,
    EXAMPLE_LINKS,
    EXAMPLE_VERDICT,
    Game,
)

# polyrep's documented relative semidefiniteness tolerance (README).
SEMIDEF_TOL = 1e-9
STATE_TOL = 1e-9

# Exit codes the CLI documents: 0 ok, 1 input, 2 not admissible,
# 3 no certificate or no formal equilibrium, 4 internal certificate failure.
DOCUMENTED_EXITS = {0, 1, 2, 3, 4}


def _groups(sizes) -> list[range]:
    out, acc = [], 0
    for s in sizes:
        out.append(range(acc, acc + s))
        acc += s
    return out


def vertex_matrix(payoff: np.ndarray, sizes, chosen) -> tuple[list[int], np.ndarray]:
    """Index set and coefficient matrix a_ik + a_jl - a_il - a_jk at a vertex."""
    groups = _groups(sizes)
    group_of = {i: a for a, g in enumerate(groups) for i in g}
    idx = [i for i in range(sum(sizes)) if i not in set(chosen)]
    ii = np.array(idx, dtype=int)
    jj = np.array([chosen[group_of[i]] for i in idx], dtype=int)
    a = payoff
    m = a[np.ix_(ii, ii)] + a[np.ix_(jj, jj)] - a[np.ix_(ii, jj)] - a[np.ix_(jj, ii)]
    return idx, m


def _scaled_form_eigs(payoff: np.ndarray, sizes, d) -> np.ndarray:
    """Eigenvalues of Sym((A D)_v) at the first vertex, v = first strategies."""
    scaled = payoff * np.repeat(np.asarray(d, dtype=float), sizes)[None, :]
    chosen = tuple(g.start for g in _groups(sizes))
    _, m = vertex_matrix(scaled, sizes, chosen)
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(0.5 * (m + m.T))


def certificate_problems(payoff: np.ndarray, sizes, d) -> list[str]:
    """A returned scaling must be positive and make the form NSD within tol."""
    d = np.asarray(d, dtype=float)
    if d.shape != (len(sizes),) or not np.all(np.isfinite(d)) or np.min(d) <= 0:
        return [f"scaling {d.tolist()} is not a positive group diagonal"]
    eigs = _scaled_form_eigs(payoff, sizes, d)
    if eigs.size == 0:
        return []
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if float(eigs[-1]) > SEMIDEF_TOL * scale:
        return [f"certificate fails: lambda_max {eigs[-1]:.3e} > tol*scale {SEMIDEF_TOL * scale:.3e}"]
    return []


def conservative_problems(payoff: np.ndarray, sizes, d) -> list[str]:
    """Sym((A D)_v) must vanish within tol: the scaled form is zero on H."""
    d = np.asarray(d, dtype=float)
    if d.shape != (len(sizes),) or np.min(d) <= 0:
        return [f"certificate {d.tolist()} is not a positive group diagonal"]
    eigs = _scaled_form_eigs(payoff, sizes, d)
    top = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if top > SEMIDEF_TOL * max(1.0, top):
        return [f"collapsed game is not conservative: |lambda| up to {top:.3e}"]
    return []


def check_output(game: Game, code: int, out: dict) -> tuple[list[str], bool]:
    """Problems with a `check` result, and whether it certified the game."""
    problems = []
    if code not in (0, 2, 3, 4):
        problems.append(f"check exited {code}")
    if out.get("admissible") != (code == 0):
        problems.append(f"admissible={out.get('admissible')} disagrees with exit code {code}")
    scaling = out.get("scaling")
    certified = False
    if scaling is not None:
        cert = certificate_problems(game.payoff, game.sizes, scaling)
        problems += cert
        certified = not cert
    elif out.get("kind") in ("dissipative", "conservative"):
        problems.append(f"kind {out.get('kind')} without a scaling")
    if game.kind in ("dissipative", "example_sum") and out.get("kind") not in (
        "dissipative",
        "conservative",
        "no_certificate_found",
    ):
        problems.append(f"dissipative-by-construction game reported as {out.get('kind')}")
    if game.kind == "example_sum":
        if code != 0 or not certified:
            problems.append(f"admissible game not certified admissible (exit {code})")
        if len(out.get("vstar", [])) != 4**game.copies:
            problems.append(f"{len(out.get('vstar', []))} stable vertices, expected {4 ** game.copies}")
    return problems, certified


def reduce_output(game: Game, code: int, out: dict) -> list[str]:
    if code != 0:
        return [f"reduce exited {code} on an admissible game"]
    problems = []
    colors = [out["colors"][str(i)] for i in range(game.n)]
    if colors != list(EXAMPLE_COLORS) * game.copies:
        problems.append(f"colors {colors} are not {game.copies} copies of the example's")
    links = sorted(tuple(l) for l in out["links"])
    expected = sorted((i + 5 * j, k + 5 * j) for j in range(game.copies) for i, k in EXAMPLE_LINKS)
    if links != expected:
        problems.append(f"links {links}, expected {expected}")
    if out["verdict"] != EXAMPLE_VERDICT:
        problems.append(f"verdict {out['verdict']}, expected {EXAMPLE_VERDICT}")
    return problems


def collapse_output(game: Game, code: int, out: dict) -> list[str]:
    if code != 0:
        return [f"collapse exited {code} on an admissible game"]
    problems = []
    expected = list(EXAMPLE_CORE_SIZES) * game.copies
    if out["final_type"] != expected:
        problems.append(f"final type {out['final_type']}, expected {expected}")
        return problems
    problems += conservative_problems(np.array(out["final_payoff"]), expected, out["certificate"])
    return problems


def state_problems(sizes, x: np.ndarray) -> list[str]:
    """Finite, nonnegative, group sums 1 within 1e-9; x shaped (..., n)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        return ["non-finite state"]
    problems = []
    if np.min(x) < 0:
        problems.append(f"negative coordinate {np.min(x):.3e}")
    for g in _groups(sizes):
        err = float(np.max(np.abs(np.sum(x[..., g.start : g.stop], axis=-1) - 1.0)))
        if err > STATE_TOL:
            problems.append(f"group sum off by {err:.3e}")
            break
    return problems


def equilibrium_output(game: Game, code: int, out: dict) -> list[str]:
    if code != 0:
        return [f"equilibrium exited {code}"]
    if not (out["exists"] and out["interior"]):
        return ["known interior equilibrium not found"]
    q = np.array(out["interior_point"])
    problems = state_problems(game.sizes, q)
    if np.min(q) <= 0:
        problems.append("interior point is not interior")
    pay = game.payoff @ q
    scale = max(1.0, float(np.max(np.abs(game.payoff))))
    for g in _groups(game.sizes):
        if np.ptp(pay[g.start : g.stop]) > 1e-8 * scale:
            problems.append("payoffs differ inside a group at the reported equilibrium")
            break
    return problems


def vertices_output(game: Game, code: int, out: dict) -> list[str]:
    if code != 0:
        return [f"vertices exited {code}"]
    entries = out["vertices"]
    if len(entries) != game.vertices:
        return [f"{len(entries)} vertices, expected {game.vertices}"]
    for e in entries:
        idx, m = vertex_matrix(game.payoff, game.sizes, tuple(e["label"]))
        if e["index_set"] != idx or not np.array_equal(np.array(e["matrix"]).reshape(m.shape), m):
            return [f"vertex {e['label']}: matrix differs from a_ik + a_jl - a_il - a_jk"]
    return []


def simulate_output(game: Game, code: int, out: dict, steps: int) -> list[str]:
    if code != 0:
        return [f"simulate exited {code}"]
    problems = []
    if out["steps"] != steps or not out["ok"]:
        problems.append(f"steps={out['steps']} ok={out['ok']}, expected {steps} steps")
    problems += state_problems(game.sizes, np.array(out["final_state"]))
    h = out["monitors"].get("h")
    if h is None:
        problems.append("h monitor missing on a certified game")
    elif h["last"] > h["first"] + 1e-9 * max(1.0, abs(h["first"])):
        problems.append("Lyapunov monitor increased")
    return problems


def trajectory_problems(game: Game, states: np.ndarray, ok: bool) -> list[str]:
    """Finite, nonnegative, on the prism; h for the known (q, d) nonincreasing."""
    if not ok:
        return ["integration aborted"]
    problems = state_problems(game.sizes, states)
    if problems:
        return problems
    if np.min(states) <= 0:
        return ["trajectory reached the boundary"]
    w = game.q / np.repeat(game.d, game.sizes)
    h = -np.log(states) @ w
    rise = float(np.max(np.diff(h, axis=-1)))
    if rise > 1e-9 * max(1.0, float(np.max(np.abs(h)))):
        problems.append(f"Lyapunov value rose by {rise:.3e}")
    return problems
