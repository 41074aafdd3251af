"""Analysis toolkit for conservative and dissipative polymatrix replicators.

Each submodule runs on first use: `import polyrep` registers all seven in
sys.modules through importlib's LazyLoader, and a module's code runs on
the first read of one of its attributes.  The names below are served
from their submodules by the module __getattr__ (PEP 562).  Before
CPython 3.13 that first read takes no lock, so a threaded program should
touch the submodules it uses before it starts its threads.
"""

import importlib.util
import sys

_EXPORTS = {
    "games": (
        "DiagonalScaling",
        "EquilibriumSet",
        "GameType",
        "PolymatrixGame",
        "formal_equilibria",
        "games_equivalent",
        "interior_equilibria",
        "validate_game",
        "vector_field",
        "zero_row_representative",
    ),
    "vertices": (
        "StrategyGraph",
        "VertexLabel",
        "VertexMatrix",
        "enumerate_vertices",
        "first_vertex",
        "quadratic_via_vertex",
        "vertex_graph",
        "vertex_matrix",
    ),
    "stability": (
        "Analysis",
        "Classification",
        "StableDissipativityReport",
        "admissible",
        "almost_skew_symmetric",
        "check_with_scaling",
        "find_scaling",
        "kernel_duality",
        "skew_decomposition",
        "stably_dissipative",
    ),
    "reduction": (
        "Color",
        "InformationSet",
        "ReducedInformationSet",
        "apply_rule",
        "classify_attractor",
        "initialize",
        "run_to_fixpoint",
    ),
    "collapse": (
        "CollapseResult",
        "ReductionMap",
        "ReductionStep",
        "cardinal2_cleanup",
        "hamiltonian_collapse",
        "q_ell_reduction",
        "reduce_by_set",
    ),
    "dynamics": (
        "FirstIntegral",
        "LVSystem",
        "Trajectory",
        "attractor_probe",
        "first_integrals",
        "h_derivative",
        "integrate",
        "lv_to_replicator",
        "lyapunov_h",
        "quotient_rule_check",
    ),
    "gamefile": ("GameFileError", "emit_game", "parse_game", "parse_game_text", "write_game"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def _lazy(name: str):
    """polyrep.NAME, put in sys.modules unexecuted: its code runs on the first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
