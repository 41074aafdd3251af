"""Per-layer metrics from a traced run's spans and from -X importtime.

The traced window opens with one warm-up pass over the bundled example,
which reaches every layer, so every per-call time below is measured in
every workload.  Per-operation counts and ratios use the measured
operations only (op id >= 0); warm-up spans carry op id -1.
"""

from __future__ import annotations

import statistics
import subprocess
import time
from dataclasses import dataclass

import numpy as np

from tracer import LAYERS

# Per-layer metric names and units, in report order.  A count of 0 means
# that the workload has no operation of that kind.
PER_LAYER = (
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.import_scipy_ms", "ms"),
    ("cli.import_numpy_ms", "ms"),
    ("cli.main.ms", "ms"),
    ("gamefile.parse_game_text.ms", "ms"),
    ("games.formal_equilibria.calls_per_op", "count"),
    ("games.interior_equilibria.ms", "ms"),
    ("games.vector_field.calls_per_step", "count"),
    ("games.vector_field.ms", "ms"),
    ("stability.find_scaling.calls_per_op.check", "count"),
    ("stability.find_scaling.calls_per_op.reduce", "count"),
    ("stability.find_scaling.calls_per_op.collapse", "count"),
    ("stability.find_scaling.ms", "ms"),
    ("stability.find_scaling.evals", "count"),
    ("stability.find_scaling.hit_frac", "ratio"),
    ("stability.errors", "count"),
    ("stability.stable_vertices.calls_per_op", "count"),
    ("stability.stably_dissipative.ms", "ms"),
    ("vertices.vertex_matrix.calls_per_vertex.check", "count"),
    ("vertices.vertex_matrix.calls_per_vertex.reduce", "count"),
    ("vertices.vertex_matrix.calls_per_vertex.collapse", "count"),
    ("vertices.vertex_matrix.ms", "ms"),
    ("vertices.vertex_graph.ms", "ms"),
    ("reduction.run_to_fixpoint.ms", "ms"),
    ("reduction.rounds", "count"),
    ("collapse.hamiltonian_collapse.ms", "ms"),
    ("dynamics.integrate.ms", "ms"),
    ("dynamics.integrate_batch.ms", "ms"),
    *((f"{layer}.self_ms", "ms") for layer in LAYERS),
    ("trace.overhead_frac", "ratio"),
)


@dataclass(frozen=True)
class OpInfo:
    kind: str  # CLI subcommand, or "integrate" / "integrate_batch"
    vertices: int
    steps: int  # RK4 steps taken, 0 when the operation integrates nothing


def _inside(parent: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Spans that have a marked span among their ancestors."""
    inside = np.zeros(parent.size, dtype=bool)
    has = parent >= 0
    while True:
        new = np.zeros_like(inside)
        new[has] = marked[parent[has]] | inside[parent[has]]
        if np.array_equal(new, inside):
            return inside
        inside = new


def span_metrics(spans: dict[str, np.ndarray], ops: dict[int, OpInfo], traced_passes: int) -> dict[str, float]:
    names = [str(s) for s in spans["names"]]
    name, parent, op = spans["name"], spans["parent"], spans["op"]
    dur = spans["t1"] - spans["t0"]
    has = parent >= 0
    self_t = dur - np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    measured = op >= 0
    top_op = max(ops) + 1 if ops else 1

    def sel(fn: str) -> np.ndarray:
        return name == names.index(fn) if fn in names else np.zeros(dur.size, dtype=bool)

    def mean_ms(fn: str) -> float:
        s = sel(fn)
        return 1e3 * float(dur[s].mean()) if s.any() else 0.0

    def per_op_counts(mask: np.ndarray) -> np.ndarray:
        return np.bincount(op[mask & measured], minlength=top_op)

    def per_op(fn: str) -> float:
        return float(per_op_counts(sel(fn)).sum()) / max(1, len(ops))

    def per_kind(fn: str, kind: str, per_vertex: bool = False) -> float:
        ids = [o for o, info in ops.items() if info.kind == kind]
        if not ids:
            return 0.0
        counts = per_op_counts(sel(fn))
        return float(np.mean([counts[o] / (ops[o].vertices if per_vertex else 1) for o in ids]))

    def mean_value(fn: str) -> float:
        s = sel(fn) & measured & ~spans["error"]
        return float(np.nanmean(spans["value"][s])) if s.any() else 0.0

    out: dict[str, float] = {
        "cli.main.ms": mean_ms("cli.main"),
        "gamefile.parse_game_text.ms": mean_ms("gamefile.parse_game_text"),
        "games.formal_equilibria.calls_per_op": per_op("games.formal_equilibria"),
        "games.interior_equilibria.ms": mean_ms("games.interior_equilibria"),
        "games.vector_field.ms": mean_ms("games.vector_field"),
        "stability.find_scaling.ms": mean_ms("stability.find_scaling"),
        "stability.find_scaling.hit_frac": mean_value("stability.find_scaling"),
        "stability.stable_vertices.calls_per_op": per_op("stability.stable_vertices"),
        "stability.stably_dissipative.ms": mean_ms("stability.stably_dissipative"),
        "vertices.vertex_matrix.ms": mean_ms("vertices.vertex_matrix"),
        "vertices.vertex_graph.ms": mean_ms("vertices.vertex_graph"),
        "reduction.run_to_fixpoint.ms": mean_ms("reduction.run_to_fixpoint"),
        "reduction.rounds": mean_value("reduction.run_to_fixpoint"),
        "collapse.hamiltonian_collapse.ms": mean_ms("collapse.hamiltonian_collapse"),
        "dynamics.integrate.ms": mean_ms("dynamics.integrate"),
        "dynamics.integrate_batch.ms": mean_ms("dynamics.integrate_batch"),
    }
    for kind in ("check", "reduce", "collapse"):
        out[f"stability.find_scaling.calls_per_op.{kind}"] = per_kind("stability.find_scaling", kind)
        out[f"vertices.vertex_matrix.calls_per_vertex.{kind}"] = per_kind("vertices.vertex_matrix", kind, True)

    fs = sel("stability.find_scaling")
    fs_calls = int((fs & measured).sum())
    evals = int((sel("vertices.vertex_matrix") & _inside(parent, fs) & measured).sum())
    out["stability.find_scaling.evals"] = evals / fs_calls if fs_calls else 0.0

    steps = sum(info.steps for info in ops.values())
    vf = int((sel("games.vector_field") & measured).sum())
    out["games.vector_field.calls_per_step"] = vf / steps if steps else 0.0

    span_layer = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=int)[name]
    in_stability = span_layer == LAYERS.index("stability")
    parent_in_stability = np.zeros_like(in_stability)
    parent_in_stability[has] = in_stability[parent[has]]
    escaped = spans["error"] & in_stability & ~parent_in_stability & measured
    out["stability.errors"] = float(escaped.sum()) / max(1, traced_passes)

    for li, layer in enumerate(LAYERS):
        out[f"{layer}.self_ms"] = 1e3 * float(self_t[span_layer == li].sum()) / max(1, len(ops))
    return out


def _parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative ms of polyrep (total), and of the outermost scipy / numpy imports."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, raw = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        level = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((level, raw.strip(), int(cumulative) / 1e3))
    totals = {"polyrep": 0.0, "scipy": 0.0, "numpy": 0.0}
    # Lines come in post-order; reversed, each entry follows its ancestors.
    ancestors: list[tuple[int, str]] = []
    for level, mod, ms in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        top = mod.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for _, a in ancestors):
            totals[top] += ms
        ancestors.append((level, mod))
    return totals


def import_breakdown(python: str, env: dict, cwd, reps: int = 3) -> dict[str, float]:
    """Median of `reps` runs: bare interpreter start, and the import of polyrep.cli."""
    interp, parts = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, cwd=cwd, check=True)
        interp.append(1e3 * (time.perf_counter() - t0))
        res = subprocess.run(
            [python, "-X", "importtime", "-c", "import polyrep.cli"],
            env=env, cwd=cwd, check=True, capture_output=True, text=True,
        )
        parts.append(_parse_importtime(res.stderr))
    return {
        "cli.interp_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(p["polyrep"] for p in parts),
        "cli.import_scipy_ms": statistics.median(p["scipy"] for p in parts),
        "cli.import_numpy_ms": statistics.median(p["numpy"] for p in parts),
    }
