"""Structure analysis and numerical verification for Grover-mixer QAOA circuits."""

__version__ = "0.4.0"

from .analytic import (
    CommutantPrediction,
    DlaPrediction,
    LossStatsPrediction,
    isotypic_summary,
    predict_commutant,
    predict_dla,
    predict_loss_stats,
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
    uniform_overlaps,
    uniform_state,
)
from .oracle import (
    ClosureReport,
    CommutantReport,
    IsotypicReport,
    OracleCapError,
    closure_report,
    gm_generators,
    grover_commutant_dimension,
    isotypic_residuals,
    isotypic_split,
    level_span_generators,
    lie_closure,
    x_mixer_generator,
)
from .problems import (
    CnfFormula,
    Graph,
    ParseError,
    ValidationError,
    cnf_objective,
    cnf_terms,
    coloring_objective,
    coloring_terms,
    complete_graph,
    cycle_graph,
    house_graph,
    local_spectrum,
    maxcut_objective,
    maxcut_terms,
    parse_cnf,
    parse_custom_table,
    parse_graph,
    path_graph,
    threshold_transform,
)
from .simulator import McReport, monte_carlo_stats
