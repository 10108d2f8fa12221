"""repro — error-propagation analysis for modular software.

A complete, self-contained reproduction of

    M. Hiller, A. Jhumka, N. Suri,
    "An Approach for Analysing the Propagation of Data Errors in
    Software", DSN 2001.

The package provides:

* :mod:`repro.model` — the modular software-system model (modules
  inter-linked by signals);
* :mod:`repro.core` — the paper's contribution: error permeability
  (Eq. 1), the module measures (Eqs. 2–3), the permeability graph,
  exposure measures (Eqs. 4–6), backtrack/trace trees, propagation-path
  ranking and EDM/ERM placement recommendations;
* :mod:`repro.simulation` — a slot-scheduled embedded runtime with
  simulated hardware registers and tracing;
* :mod:`repro.injection` — a PROPANE-style fault-injection environment
  (SWIFI traps, Golden Run Comparison, campaigns, permeability
  estimation);
* :mod:`repro.arrestment` — the paper's target system: an aircraft
  arrestment controller with a physical plant simulation;
* :mod:`repro.baselines` — the comparison analyses of Section 2.

Quickstart::

    from repro import (
        PermeabilityMatrix, PropagationAnalysis, build_fig2_system,
        fig2_permeabilities,
    )

    system = build_fig2_system()
    matrix = PermeabilityMatrix.from_dict(system, fig2_permeabilities())
    analysis = PropagationAnalysis(matrix)
    print(analysis.render_table2())
"""

from repro.arrestment import (
    ArrestmentPlant,
    ArrestmentTestCase,
    PlantConfig,
    arrestment_schedule,
    build_arrestment_model,
    build_arrestment_modules,
    build_arrestment_run,
    paper_test_cases,
    reduced_test_cases,
)
from repro.baselines import (
    EdmSelection,
    UniformPropagationReport,
    analyse_uniform_propagation,
    greedy_edm_selection,
)
from repro.core import (
    BacktrackTree,
    MatrixDiff,
    PairDelta,
    SensitivityReport,
    output_reach,
    output_sensitivities,
    what_if,
    ModuleExposure,
    ModuleMeasures,
    NodeKind,
    PermeabilityEstimate,
    PermeabilityGraph,
    PermeabilityMatrix,
    PlacementAdvisor,
    PlacementReport,
    PropagationAnalysis,
    PropagationPath,
    TraceTree,
    build_all_backtrack_trees,
    build_all_trace_trees,
    build_backtrack_tree,
    build_trace_tree,
    graph_to_dot,
    nonzero_paths,
    paths_of_backtrack_tree,
    paths_of_trace_tree,
    rank_paths,
    system_to_dot,
    tree_to_dot,
)
from repro.edm import (
    ConstancyCheck,
    DeltaCheck,
    DetectorEvaluation,
    ErrorDetector,
    MonotonicCheck,
    RangeCheck,
    calibrate_delta,
    calibrate_range,
    evaluate_detectors,
)
from repro.injection import (
    ArcTally,
    BitFlip,
    CriticalityReport,
    FailureMode,
    SeverityLimits,
    classify_campaign,
    CampaignConfig,
    CampaignResult,
    GoldenRun,
    GoldenRunComparison,
    InjectionCampaign,
    InjectionOutcome,
    InputInjectionTrap,
    PermeabilityEstimator,
    bit_flip_models,
    compare_to_golden_run,
    estimate_matrix,
    paper_grid,
    paper_times,
)
from repro.injection.latency import (
    latency_statistics,
    lifetime_statistics,
    render_latency_table,
    render_lifetime_table,
)
from repro.lint import (
    Diagnostic,
    LintReport,
    Severity,
    lint_system,
)
from repro.obs import (
    CampaignObserver,
    MetricsRegistry,
)
from repro.model import (
    ModuleSpec,
    ReproError,
    SignalKind,
    SignalSpec,
    SoftwareModule,
    SystemBuilder,
    SystemModel,
    build_fig2_system,
    fig2_permeabilities,
)
from repro.simulation import (
    SimulationRun,
    SlotSchedule,
    TraceSet,
)
from repro.verify import (
    OracleFailure,
    generate_system,
    verify_generated,
)

__version__ = "1.0.0"

__all__ = [
    "ArcTally",
    "ArrestmentPlant",
    "ArrestmentTestCase",
    "BacktrackTree",
    "BitFlip",
    "CampaignConfig",
    "CampaignObserver",
    "CampaignResult",
    "ConstancyCheck",
    "CriticalityReport",
    "FailureMode",
    "SeverityLimits",
    "DeltaCheck",
    "DetectorEvaluation",
    "Diagnostic",
    "LintReport",
    "EdmSelection",
    "ErrorDetector",
    "MonotonicCheck",
    "RangeCheck",
    "GoldenRun",
    "GoldenRunComparison",
    "InjectionCampaign",
    "InjectionOutcome",
    "InputInjectionTrap",
    "MatrixDiff",
    "MetricsRegistry",
    "ModuleExposure",
    "ModuleMeasures",
    "ModuleSpec",
    "NodeKind",
    "PairDelta",
    "PermeabilityEstimate",
    "PermeabilityEstimator",
    "PermeabilityGraph",
    "PermeabilityMatrix",
    "PlacementAdvisor",
    "PlacementReport",
    "PlantConfig",
    "PropagationAnalysis",
    "PropagationPath",
    "ReproError",
    "Severity",
    "SignalKind",
    "SignalSpec",
    "SimulationRun",
    "SlotSchedule",
    "SoftwareModule",
    "SystemBuilder",
    "SensitivityReport",
    "SystemModel",
    "TraceSet",
    "TraceTree",
    "UniformPropagationReport",
    "analyse_uniform_propagation",
    "arrestment_schedule",
    "bit_flip_models",
    "build_all_backtrack_trees",
    "build_all_trace_trees",
    "build_arrestment_model",
    "build_arrestment_modules",
    "build_arrestment_run",
    "build_backtrack_tree",
    "build_fig2_system",
    "build_trace_tree",
    "calibrate_delta",
    "calibrate_range",
    "classify_campaign",
    "compare_to_golden_run",
    "estimate_matrix",
    "evaluate_detectors",
    "fig2_permeabilities",
    "latency_statistics",
    "lifetime_statistics",
    "lint_system",
    "render_latency_table",
    "render_lifetime_table",
    "graph_to_dot",
    "greedy_edm_selection",
    "nonzero_paths",
    "output_reach",
    "output_sensitivities",
    "paper_grid",
    "paper_test_cases",
    "paper_times",
    "paths_of_backtrack_tree",
    "paths_of_trace_tree",
    "rank_paths",
    "reduced_test_cases",
    "system_to_dot",
    "tree_to_dot",
    "what_if",
    "OracleFailure",
    "generate_system",
    "verify_generated",
    "__version__",
]
