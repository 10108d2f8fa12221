"""PROPANE-equivalent fault-injection environment (Sections 6 and 7.3).

SWIFI-style trap instrumentation, error models, Golden Run Comparison,
campaign orchestration over a test-case grid, and the aggregation of
outcomes into experimental permeability estimates.
"""

from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import (
    BitFlip,
    DoubleBitFlip,
    ErrorModel,
    Offset,
    RandomBitFlip,
    RandomReplacement,
    StuckAtOne,
    StuckAtZero,
    bit_flip_models,
)
from repro.injection.estimator import PermeabilityEstimator, estimate_matrix
from repro.injection.failure_modes import (
    CriticalityReport,
    FailureMode,
    SeverityLimits,
    classify_campaign,
    classify_run,
)
from repro.injection.latency import latency_statistics, render_latency_table
from repro.injection.golden_run import (
    GoldenRun,
    GoldenRunComparison,
    compare_to_golden_run,
)
from repro.injection.outcomes import (
    ArcTally,
    CampaignResult,
    InjectionOutcome,
    PairCounts,
)
from repro.injection.selection import full_grid, paper_grid, paper_times, sampled_grid
from repro.injection.traps import InputInjectionTrap

__all__ = [
    "ArcTally",
    "BitFlip",
    "CampaignConfig",
    "CampaignResult",
    "CriticalityReport",
    "FailureMode",
    "SeverityLimits",
    "DoubleBitFlip",
    "ErrorModel",
    "GoldenRun",
    "GoldenRunComparison",
    "InjectionCampaign",
    "InjectionOutcome",
    "InputInjectionTrap",
    "Offset",
    "PairCounts",
    "PermeabilityEstimator",
    "RandomBitFlip",
    "RandomReplacement",
    "StuckAtOne",
    "StuckAtZero",
    "bit_flip_models",
    "classify_campaign",
    "classify_run",
    "compare_to_golden_run",
    "estimate_matrix",
    "full_grid",
    "paper_grid",
    "latency_statistics",
    "paper_times",
    "render_latency_table",
    "sampled_grid",
]
