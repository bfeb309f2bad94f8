"""Structure analysis and numerical verification for Grover-mixer QAOA circuits."""

__version__ = "0.1.0"

from .analytic import (
    CommutantPrediction,
    DlaPrediction,
    LossStatsPrediction,
    RestrictedGenerators,
    isotypic_summary,
    predict_commutant,
    predict_dla,
    predict_loss_stats,
    restricted_generators,
    slocal_bound,
)
from .core import (
    InitialState,
    LevelOverlaps,
    ObjectiveTable,
    SizeLimitError,
    Spectrum,
    build_spectrum,
    decompose_initial_state,
    uniform_state,
)
from .oracle import (
    AmbiguousSelectorError,
    ClosureReport,
    CommutantReport,
    FrameConditionError,
    MatrixUnitError,
    OracleCapError,
    commutant_dimension,
    extract_matrix_units,
    frame_condition,
    gm_generators,
    grover_commutant_dimension,
    invariant_subspace_residual,
    isotypic_split,
    lie_closure,
    x_mixer_generator,
)
from .problems import (
    CnfFormula,
    Graph,
    ParseError,
    ValidationError,
    cnf_objective,
    coloring_objective,
    complete_graph,
    cycle_graph,
    house_graph,
    maxcut_objective,
    parse_cnf,
    parse_custom_table,
    parse_graph,
    path_graph,
    threshold_transform,
)
from .simulator import (
    McReport,
    ParameterSet,
    apply_grover_mixer,
    apply_phase_layer,
    grover_mixer_identity_check,
    loss,
    monte_carlo_stats,
    run_circuit,
)
