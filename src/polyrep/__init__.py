"""Analysis toolkit for conservative and dissipative polymatrix replicators."""

from .games import (
    DiagonalScaling,
    EquilibriumSet,
    GameType,
    PolymatrixGame,
    formal_equilibria,
    games_equivalent,
    interior_equilibria,
    validate_game,
    vector_field,
    zero_row_representative,
)
from .vertices import (
    StrategyGraph,
    VertexLabel,
    VertexMatrix,
    enumerate_vertices,
    first_vertex,
    quadratic_via_vertex,
    vertex_graph,
    vertex_matrix,
)
from .stability import (
    Analysis,
    Classification,
    StableDissipativityReport,
    admissible,
    almost_skew_symmetric,
    check_with_scaling,
    find_scaling,
    kernel_duality,
    skew_decomposition,
    stably_dissipative,
)
from .reduction import (
    Color,
    InformationSet,
    ReducedInformationSet,
    apply_rule,
    classify_attractor,
    initialize,
    run_to_fixpoint,
)
from .collapse import (
    CollapseResult,
    ReductionMap,
    ReductionStep,
    cardinal2_cleanup,
    hamiltonian_collapse,
    q_ell_reduction,
    reduce_by_set,
)
from .dynamics import (
    FirstIntegral,
    LVSystem,
    Trajectory,
    attractor_probe,
    first_integrals,
    h_derivative,
    integrate,
    lv_to_replicator,
    lyapunov_h,
    quotient_rule_check,
)
from .gamefile import GameFileError, emit_game, parse_game, parse_game_text, write_game

__version__ = "0.1.0"
