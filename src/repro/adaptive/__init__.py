"""repro.adaptive — confidence-driven sequential-stopping campaigns.

Runs injection campaigns in rounds, handing each round's trials to the
open (module, input) targets with the widest Wilson intervals, and
retiring a target once the intervals of its output arcs are tight
enough (``ci_width``, the one adaptive setting) or its exhaustive grid
has run.  See docs/ADAPTIVE.md for the stopping rule, the allocator
and the soundness argument; the campaign engine wires this in through
``CampaignConfig(adaptive=True, ...)`` / ``repro campaign
--adaptive``.  :mod:`repro.adaptive.controller` holds the round loop,
the allocator and the stopping rule.
"""

from repro.adaptive.controller import (
    REASON_CONFIDENCE,
    REASON_EXHAUSTED,
    AdaptiveController,
    RetiredTarget,
    TargetMeasurement,
    projected_half_width,
)

__all__ = [
    "REASON_CONFIDENCE",
    "REASON_EXHAUSTED",
    "AdaptiveController",
    "RetiredTarget",
    "TargetMeasurement",
    "projected_half_width",
]
