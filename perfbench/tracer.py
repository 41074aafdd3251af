"""Span recorder for the traced run, wrapped around polyrep's functions.

`install` replaces each function in TRACED with a wrapper and rebinds
the wrapper in every polyrep module that imported the function by name
(for example `collapse.find_scaling` or `dynamics.vector_field`), so
calls between modules are seen too.  Spans (name, start, end, parent
span, operation id) stay in memory and are written out once, at the
end.  The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Module, function: the functions the per-layer metrics name, plus the
# entry points through which each of the eight modules is reached.
TRACED = (
    ("cli", "main"),
    ("gamefile", "parse_game_text"),
    ("games", "formal_equilibria"),
    ("games", "interior_equilibria"),
    ("games", "games_equivalent"),
    ("games", "vector_field"),
    ("vertices", "enumerate_vertices"),
    ("vertices", "vertex_matrix"),
    ("vertices", "vertex_graph"),
    ("stability", "find_scaling"),
    ("stability", "check_with_scaling"),
    ("stability", "stable_vertices"),
    ("stability", "stably_dissipative"),
    ("stability", "admissible"),
    ("reduction", "run_to_fixpoint"),
    ("collapse", "rationalize_equilibrium"),
    ("collapse", "hamiltonian_collapse"),
    ("dynamics", "integrate"),
    ("dynamics", "integrate_batch"),
    ("dynamics", "first_integrals"),
)
LAYERS = ("cli", "gamefile", "games", "vertices", "stability", "reduction", "collapse", "dynamics")


def _outcome(name: str, result) -> float:
    """The one number a span keeps about its result, NaN when none."""
    if name == "stability.find_scaling":
        return float(result is not None)
    if name == "reduction.run_to_fixpoint":
        return float(result.fixpoint_rounds)
    return float("nan")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.error: list[bool] = []
        self.value: list[float] = []
        self.stack: list[int] = []
        self.current_op = -1

    def wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        clock = time.perf_counter
        stack, t1, error, value = self.stack, self.t1, self.error, self.value
        keep = qualname in ("stability.find_scaling", "reduction.run_to_fixpoint")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t1)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            t1.append(0.0)
            error.append(False)
            value.append(float("nan"))
            stack.append(idx)
            self.t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1[idx] = clock()
                error[idx] = True
                stack.pop()
                raise
            t1[idx] = clock()
            stack.pop()
            if keep:
                value[idx] = _outcome(qualname, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "t0": np.array(self.t0),
            "t1": np.array(self.t1),
            "error": np.array(self.error, dtype=bool),
            "value": np.array(self.value),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function and rebind it wherever polyrep holds it."""
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "polyrep" or name.startswith("polyrep."))
    }
    for modname, fname in TRACED:
        orig = getattr(modules[f"polyrep.{modname}"], fname)
        wrapped = tracer.wrap(f"{modname}.{fname}", orig)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)


def merge(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Concatenate span tables, remapping name ids and parent indices."""
    names: list[str] = []
    cols = {k: [] for k in ("name", "parent", "op", "t0", "t1", "error", "value")}
    offset = 0
    for part in parts:
        local = [str(s) for s in part["names"]]
        names += [s for s in dict.fromkeys(local) if s not in names]
        remap = np.array([names.index(s) for s in local], dtype=np.int32)
        cols["name"].append(remap[part["name"]])
        cols["parent"].append(np.where(part["parent"] >= 0, part["parent"] + offset, -1))
        for k in ("op", "t0", "t1", "error", "value"):
            cols[k].append(part[k])
        offset += part["name"].size
    out = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
    out["names"] = np.array(names)
    return out
