"""Command-line entry point wiring ingestion, analysis, and simulation.

Each command returns (payload, text lines, notes, exit code) to main,
which writes each note as a `note:` line on stderr, then the report.
main alone turns a failure into an exit code: a refusal (its verdict
code, 2 or 3), an OSError or ValueError (1; a numpy LinAlgError is one)
or a RuntimeError (4) is one `error:` line on stderr, nothing on stdout.
Exit codes: 0 success (admissible where that is the question), 1 usage,
file or parse errors and any other ValueError, 2 dissipative but not
admissible, 3 proved not dissipative, no certificate found, no formal
equilibrium or, for collapse, no interior one, 4 internal failure: a
RuntimeError, or a certificate or collapse check that an admissible
game should pass failed (a bug, not a property of the input).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import collapse as collapse_mod
from . import dynamics, gamefile, reduction, stability
from .games import (
    PolymatrixGame,
    check_prism_state,
    clearable_floor,
    has_equal_row_blocks,
    in_unit,
    interior_equilibria,
    random_prism_state,
)
from .vertices import first_vertex

EXIT_OK = 0
EXIT_IO = 1
EXIT_NOT_ADMISSIBLE = 2
EXIT_NOT_DISSIPATIVE = 3
EXIT_CERTIFICATE = 4


class _Refused(Exception):
    """A verdict's refusal, CODE 2 or 3: main prints `error: TEXT` on stderr, nothing on stdout, and returns CODE."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code


def _fmt_matrix(m: np.ndarray) -> list[str]:
    cells = [[gamefile._format_number(v) for v in row] for row in m]
    width = max((len(c) for row in cells for c in row), default=1)
    return ["  ".join(c.rjust(width) for c in row) for row in cells]


def _finite_or_null(value):
    """The payload with every non-finite float replaced by None: JSON has no NaN or Infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        try:
            out = json.dumps(payload, sort_keys=True, allow_nan=False)
        except ValueError:  # a NaN or an infinity; most payloads have none, so walk only then
            out = json.dumps(_finite_or_null(payload), sort_keys=True, allow_nan=False)
    else:
        out = "\n".join(text_lines)
    print(out)


def _analysis(game: PolymatrixGame, tol: float) -> stability.Analysis:
    """The game's analysis, its vertex stack built: exit 1 past vertices.MAX_VERTICES or MAX_ENTRIES."""
    an = stability.Analysis(game, tol)
    an.tensor  # the vertex ceilings' ValueError comes before any verdict
    return an


def _verdict_code(an: stability.Analysis) -> int:
    """Exit code of the admissibility verdict: why the game is not admissible, if it is not."""
    if an.admissible:
        return EXIT_OK
    return EXIT_NOT_DISSIPATIVE if an.scaling is None else EXIT_NOT_ADMISSIBLE


def _admitted(game: PolymatrixGame, tol: float, what: str) -> stability.Analysis:
    """The analysis of an admissible game; any other is refused with its verdict's code."""
    an = _analysis(game, tol)
    if not an.admissible:
        raise _Refused(_verdict_code(an), f"game is not admissible; {what}")
    return an


def cmd_check(args) -> tuple[dict, list[str], list[str], int]:
    an = _analysis(gamefile.parse_game(args.game), args.tol)
    scaling = None if an.scaling is None else list(an.scaling.values)
    vstar = [list(v.chosen) for v in an.vstar]
    reports = {
        str(v): {
            "stable": cycle and skew,
            "cycle_ok": cycle,
            "skew_ok": skew,
            "failures": list(stability.FAILURES[cycle, skew]),
            "scaling": d if skew else None,
        }
        for v, cycle, skew, d in zip(an.tensor[0], *(a.tolist() for a in an.verdicts))
    }
    payload = {
        "kind": an.kind,
        "admissible": an.admissible,
        "scaling": scaling,
        "vstar": vstar,
        "vertex_reports": reports,
    }
    lines = [
        f"kind: {an.kind}",
        f"admissible: {an.admissible}",
        f"scaling: {scaling}",
        "stable vertices: " + (", ".join(map(str, an.vstar)) or "none"),
    ]
    for name, rep in reports.items():
        status = "stable" if rep["stable"] else "unstable: " + "; ".join(rep["failures"])
        lines.append(f"  vertex {name}: {status}")
    return payload, lines, [], _verdict_code(an)


def cmd_vertices(args) -> tuple[dict, list[str], list[str], int]:
    an = _analysis(gamefile.parse_game(args.game), args.tol)
    labels, ii, t = an.tensor
    payload, lines = {"vertices": []}, []
    for v, idx, m, edges in zip(labels, ii.tolist(), np.ldexp(t, an.unit[1]), an.pattern[0]):  # in the game's unit
        entry = {
            "label": list(v.chosen),
            "index_set": idx,
            "matrix": m.tolist(),
            "edges": [[idx[a], idx[b]] for a, b in np.argwhere(np.triu(edges)).tolist()],
        }
        payload["vertices"].append(entry)
        lines.append(f"vertex {v}")
        lines.append(f"  index set: {idx}")
        lines.extend("  " + row for row in _fmt_matrix(m))
        lines.append("  edges: " + (", ".join(str(tuple(e)) for e in entry["edges"]) or "none"))
    return payload, lines, [], EXIT_OK


def cmd_reduce(args) -> tuple[dict, list[str], list[str], int]:
    an = _admitted(gamefile.parse_game(args.game), args.tol, "the reduction rules do not apply")
    red = reduction.run_to_fixpoint(an)
    rows = reduction.collapse_trace(red.final.trace)
    payload = {
        "trace": [
            {
                "step": i + 1,
                "rule": s.rule,
                "vertices": [list(v.chosen) for v in s.vertices],
                "strategies": list(s.strategies),
            }
            for i, s in enumerate(rows)
        ],
        "colors": {str(i): c.value for i, c in enumerate(red.final.colors)},
        "links": sorted([list(l) for l in red.final.links]),
        "verdict": red.verdict,
        "rounds": red.fixpoint_rounds,
    }
    lines = ["step  rule  vertices              strategies"]
    for i, s in enumerate(rows):
        verts = ", ".join(str(v) for v in s.vertices) or "-"
        lines.append(f"{i + 1:<5} {s.rule:<5} {verts:<21} {', '.join(map(str, s.strategies))}")
    lines.append("colors: " + "  ".join(f"{i}:{c.symbol}" for i, c in enumerate(red.final.colors)))
    lines.append("links: " + (", ".join(str(tuple(l)) for l in sorted(red.final.links)) or "none"))
    lines.append(f"verdict: {red.verdict}")
    return payload, lines, [], EXIT_OK


def cmd_collapse(args) -> tuple[dict, list[str], list[str], int]:
    an = _admitted(gamefile.parse_game(args.game), args.tol, "nothing to collapse")
    if an.equilibria.interior_point is None:
        raise _Refused(EXIT_NOT_DISSIPATIVE, "no interior equilibrium; the collapse is undefined")
    try:
        result = collapse_mod.hamiltonian_collapse(an)
    except ValueError as exc:  # admissible with an interior q: a refusal now is internal
        raise RuntimeError(str(exc)) from None
    final = result.final_game
    trivial = has_equal_row_blocks(final.gtype, in_unit(final)[0].payoff)  # equivalent to the zero game
    payload = {
        "steps": [
            {
                "removed": s.removed_original,
                "group": s.group,
                "q_ell": s.q_ell,
                "scale_factor": s.scale_factor,
                "type_after": list(s.after.sizes),
                "cleanup_group": s.cleanup_group,
            }
            for s in result.steps
        ],
        "final_type": list(result.final_game.gtype.sizes),
        "final_payoff": result.final_game.payoff.tolist(),
        "final_equilibrium": result.final_equilibrium.tolist(),
        "certificate": list(result.certificate.values),
        "equivalent_to_trivial": trivial,
    }
    lines = []
    for s in result.steps:
        note = f", group {s.cleanup_group} folded away" if s.cleanup_group is not None else ""
        lines.append(
            f"removed strategy {s.removed_original} (group {s.group}, q={s.q_ell:g}, "
            f"scale x{s.scale_factor:g}) -> type {s.after}{note}"
        )
    if not result.steps:
        lines.append("already conservative; no reduction needed")
    lines.append(f"final type: {result.final_game.gtype}")
    lines.extend(_fmt_matrix(result.final_game.payoff))
    lines.append(f"conservativity certificate: {list(result.certificate.values)}")
    lines.append("final game is conservative (Hamiltonian limit dynamics)")
    if trivial:
        lines.append("equivalent to the trivial game")
    if args.emit_game:  # before the report, so a write that fails leaves stdout empty
        gamefile.write_game(result.final_game, args.emit_game)
    return payload, lines, [], EXIT_OK


def cmd_equilibrium(args) -> tuple[dict, list[str], list[str], int]:
    game = gamefile.parse_game(args.game)
    eq = interior_equilibria(game)
    payload = {
        "exists": eq.exists,
        "particular": None if not eq.exists else eq.particular.tolist(),
        "basis": eq.basis.tolist(),
        "dimension": eq.dimension,
        "interior": eq.interior_point is not None,
        "interior_point": None if eq.interior_point is None else eq.interior_point.tolist(),
    }
    lines = [f"formal equilibria exist: {eq.exists}"]
    if eq.exists:
        lines.append(f"particular: {eq.particular}")
        lines.append(f"direction space dimension: {eq.dimension}")
        lines.append(f"interior: {eq.interior_point is not None}")
        if eq.interior_point is not None:
            lines.append(f"interior point: {eq.interior_point}")
    return payload, lines, [], EXIT_OK


def _numbers(option: str, text: str) -> list[float]:
    """The numbers of a comma or space separated list, spelled as in game files (1/3 too).

    ValueError naming the option and the first token that is no number.
    """
    vals = []
    for tok in text.replace(",", " ").split():
        try:
            vals.append(gamefile._parse_number(tok, None))
        except ValueError:
            raise ValueError(f"cannot parse {option}: {tok!r} is not a number") from None
    return vals


def _parse_x0(spec: str, game: PolymatrixGame) -> np.ndarray:
    """The start --x0 spells: `random`, `random:SEED` or a list of game.n numbers; ValueError if none."""
    name, colon, seed = spec.partition(":")
    if name == "random":
        if not colon:
            seed = "0"
        elif not (seed.isascii() and seed.isdigit()):
            raise ValueError(f"cannot parse --x0: expected an integer >= 0, got {seed!r}")
        rng = np.random.default_rng(gamefile._read_int(seed))
        return random_prism_state(game.gtype, rng, clearable_floor(game.gtype, 0.02))
    vals = _numbers("--x0", spec)
    if len(vals) != game.n:
        raise ValueError(f"x0 needs {game.n} coordinates")
    return np.array(vals)


def cmd_simulate(args) -> tuple[dict, list[str], list[str], int]:
    game = gamefile.parse_game(args.game)
    x0 = _parse_x0(args.x0, game)
    problems = check_prism_state(game.gtype, x0)
    if problems:
        raise ValueError("--x0 is not a prism state: " + "; ".join(problems))
    an = stability.Analysis(game, args.tol)  # fields computed only for the monitors asked for
    if "gb" in args.monitors or "ratios" in args.monitors:  # past the vertex ceilings this exits before any step
        monitor_vertex = an.vstar[0] if an.vstar else first_vertex(game.gtype)
    traj = dynamics.integrate(game, x0, args.T, args.dt)
    notes = []
    # past dt max|a_ij| = 1 the step nears RK4's stability bound and the final state drifts
    step_scale = float(args.dt * np.max(np.abs(game.payoff)))
    if step_scale > 1:
        notes.append(f"step_scale dt*max|a_ij| = {step_scale:.3g} exceeds 1; "
                     "the final state is not to be trusted, take a smaller --dt")

    names: list[str] = []
    columns: list[np.ndarray] = []
    positive = np.min(traj.states) > 0
    if "h" in args.monitors:
        if positive and an.scaling is not None:
            names.append("h")
            columns.append(dynamics.lyapunov_h(game, an.equilibria.particular, an.scaling, traj.states))
        else:
            notes.append("h monitor skipped (needs equilibrium, certificate, interior orbit)")
    if "gb" in args.monitors:
        if positive:
            for k, g in enumerate(dynamics.first_integrals(game, monitor_vertex)):
                names.append(f"g{k}")
                columns.append(g(traj.states))
        else:
            notes.append("gb monitors skipped (orbit touches the boundary)")
    if "ratios" in args.monitors:
        for i in monitor_vertex.support(game.gtype):
            j = monitor_vertex.partner(game.gtype, i)
            names.append(f"r{i}_{j}")
            with np.errstate(divide="ignore", invalid="ignore"):
                columns.append(traj.states[:, i] / traj.states[:, j])

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"x{i}" for i in range(game.n)] + names)
            for k in range(len(traj.times)):
                row = [repr(float(traj.times[k]))]
                row += [repr(float(v)) for v in traj.states[k]]
                row += [repr(float(col[k])) for col in columns]
                writer.writerow(row)
    summary = {
        "steps": len(traj.times) - 1,
        "ok": traj.ok,
        "final_state": traj.final.tolist(),
        "max_renorm_drift": float(np.max(traj.renorm_drift)),
        "min_coordinate": float(np.min(traj.states)),
        "step_scale": step_scale,
        "monitors": {
            name: {"first": float(col[0]), "last": float(col[-1])}
            for name, col in zip(names, columns)
        },
        "notes": notes,
    }
    lines = [
        f"integrated {summary['steps']} steps, ok={traj.ok}",
        f"final state: {traj.final}",
        f"max renormalization drift: {summary['max_renorm_drift']:.3e}",
        f"min coordinate: {summary['min_coordinate']:.3e}",
        f"step scale dt*max|a_ij|: {step_scale:.3g}",
    ]
    for name, col in zip(names, columns):
        lines.append(f"monitor {name}: first {col[0]:.9g} last {col[-1]:.9g}")
    return summary, lines, notes, EXIT_OK


def cmd_lv2rep(args) -> tuple[dict, list[str], list[str], int]:
    lv = dynamics.LVSystem(gamefile.parse_matrix(args.A), np.array(_numbers("--r", args.r)))
    game = dynamics.lv_to_replicator(lv)
    if args.emit_game:
        gamefile.write_game(game, args.emit_game)
    payload = {"type": list(game.gtype.sizes), "payoff": game.payoff.tolist()}
    lines = [f"compactified game type: {game.gtype}"] + _fmt_matrix(game.payoff)
    return payload, lines, [], EXIT_OK


def _number(text: str) -> float:
    """The float a command-line value spells as in a game file (1/3 too), padding aside; NaN when it spells none."""
    try:
        return gamefile._parse_number(text.strip(), None)
    except ValueError:
        return float("nan")


def _nonnegative(text: str) -> float:
    """A --tol or --T value: a finite number >= 0."""
    x = _number(text)
    if not 0.0 <= x < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return x


def _positive(text: str) -> float:
    """A --dt value: a finite number > 0."""
    x = _number(text)
    if not 0.0 < x < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return x


MONITORS = ("h", "gb", "ratios")


def _monitors(text: str) -> frozenset[str]:
    """A --monitors value: a comma list of MONITORS names, possibly empty."""
    names = [m.strip() for m in text.split(",") if m.strip()]
    for name in names:
        if name not in MONITORS:
            raise argparse.ArgumentTypeError(f"unknown monitor {name!r}; the monitors are {', '.join(MONITORS)}")
    return frozenset(names)


def _add_common(sub, game_positional=True, tol=True):
    """The options a subcommand shares: its GAME, --tol where it reads one, and --format."""
    if game_positional:
        sub.add_argument("game", help="game file (see README for the format)")
    if tol:
        sub.add_argument("--tol", type=_nonnegative, default=stability.SEMIDEF_TOL,
                         help="semidefiniteness tolerance (relative)")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyrep",
        description="Analyze polymatrix replicator systems: classify, reduce, collapse, simulate.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="classify the game and list stable vertices")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("vertices", help="vertex matrices and their graphs")
    _add_common(p)
    p.set_defaults(func=cmd_vertices)

    p = subs.add_parser("reduce", help="run the information-set reduction")
    _add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = subs.add_parser("collapse", help="collapse to the conservative core")
    _add_common(p)
    p.add_argument("--emit-game", metavar="FILE", help="write the final game here")
    p.set_defaults(func=cmd_collapse)

    p = subs.add_parser("equilibrium", help="formal and interior equilibria")
    _add_common(p, tol=False)
    p.set_defaults(func=cmd_equilibrium)

    p = subs.add_parser("simulate", help="integrate the flow with monitors")
    _add_common(p, game_positional=False)
    p.add_argument("--game", required=True, help="game file (see README for the format)")
    p.add_argument("--x0", default="random", help="start: comma list or random[:SEED], SEED 0 when omitted")
    p.add_argument("--T", type=_nonnegative, default=100.0, help="duration, a finite number >= 0")
    p.add_argument("--dt", type=_positive, default=0.01, help="step, a finite number > 0")
    p.add_argument("--monitors", type=_monitors, default="h,gb,ratios", help="comma list of h, gb, ratios")
    p.add_argument("--csv", metavar="FILE", help="write t, states, monitors as CSV")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("lv2rep", help="compactify a Lotka-Volterra system")
    _add_common(p, game_positional=False, tol=False)
    p.add_argument("--A", required=True, help="interaction matrix file")
    p.add_argument("--r", required=True, help="intrinsic rates, comma separated")
    p.add_argument("--emit-game", metavar="FILE", help="write the game file here")
    p.set_defaults(func=cmd_lv2rep)

    for sub in subs.choices.values():  # main reports a leftover argument through its command's parser
        sub.set_defaults(parser=sub)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main reads, built on first use: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args, extra = _parser().parse_known_args(argv)
        if extra:  # so the usage line printed is the subcommand's
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse exits 2 on a usage error, a verdict code here
        return EXIT_OK if exc.code == 0 else EXIT_IO
    try:
        payload, lines, notes, code = args.func(args)
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
        _emit(args, payload, lines)
    except (_Refused, OSError, ValueError, RuntimeError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _Refused):
            return exc.code
        return EXIT_CERTIFICATE if isinstance(exc, RuntimeError) else EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
