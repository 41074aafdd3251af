"""The names `polyrep` re-exports: each is its submodule's own object, served on first use."""

import pytest

import polyrep
from polyrep import collapse, dynamics, gamefile, games, reduction, stability, vertices

EXPORTS = {
    games: ["DiagonalScaling", "EquilibriumSet", "GameType", "PolymatrixGame", "formal_equilibria",
            "games_equivalent", "interior_equilibria", "validate_game", "vector_field", "zero_row_representative"],
    vertices: ["StrategyGraph", "VertexLabel", "VertexMatrix", "enumerate_vertices", "first_vertex",
               "quadratic_via_vertex", "vertex_graph", "vertex_matrix"],
    stability: ["Analysis", "Classification", "StableDissipativityReport", "admissible", "almost_skew_symmetric",
                "check_with_scaling", "find_scaling", "kernel_duality", "skew_decomposition", "stably_dissipative"],
    reduction: ["Color", "InformationSet", "ReducedInformationSet", "apply_rule", "classify_attractor", "initialize",
                "run_to_fixpoint"],
    collapse: ["CollapseResult", "ReductionMap", "ReductionStep", "cardinal2_cleanup", "hamiltonian_collapse",
               "q_ell_reduction", "reduce_by_set"],
    dynamics: ["FirstIntegral", "LVSystem", "Trajectory", "attractor_probe", "first_integrals", "h_derivative",
               "integrate", "lv_to_replicator", "lyapunov_h", "quotient_rule_check"],
    gamefile: ["GameFileError", "emit_game", "parse_game", "parse_game_text", "write_game"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_there_are_57_names():
    assert len(set(NAMES)) == 57
    assert sorted(polyrep.__all__) == sorted(NAMES)


@pytest.mark.parametrize(("module", "name"), [(m, n) for m, names in EXPORTS.items() for n in names],
                         ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_each_name_is_its_submodules_object(module, name):
    assert getattr(polyrep, name) is getattr(module, name)
    assert name in dir(polyrep)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from polyrep import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(NAMES)
    assert all(namespace[name] is getattr(polyrep, name) for name in NAMES)


def test_an_unknown_name_is_no_attribute():
    with pytest.raises(AttributeError, match="^module 'polyrep' has no attribute 'no_such_name'$"):
        polyrep.no_such_name
    assert not hasattr(polyrep, "SEMIDEF_TOL")  # a submodule's name that the package does not re-export
    with pytest.raises(ImportError):
        exec("from polyrep import no_such_name", {})
