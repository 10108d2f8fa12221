"""Shared interval statistics for permeability estimates.

One implementation of the Wilson score interval, used by both
:meth:`repro.core.permeability.PermeabilityEstimate.wilson_interval`
(post-hoc estimates) and
:meth:`repro.injection.outcomes.PairCounts.wilson_interval` (the
per-arc counts of every fold), and driven directly by the adaptive campaign controller
(:mod:`repro.adaptive`) to decide when an arc's estimate is tight
enough to retire.

The Wilson interval is preferred over the normal (Wald) approximation
because it behaves at the boundary cases fault injection constantly
produces — ``k = 0`` (an arc that never propagated) and ``k = n`` (an
arc that always propagated) — where the Wald interval collapses to a
point and claims certainty after one trial.
"""

from __future__ import annotations

import math

__all__ = ["wilson_half_width", "wilson_interval"]


def wilson_interval(
    n_errors: int, n_injections: int, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score interval for ``n_errors`` successes in ``n_injections``.

    Returns the clamped ``(lower, upper)`` bounds: the interval always
    contains the point estimate ``n_errors / n_injections`` and stays
    inside ``[0, 1]`` (the min/max guards absorb floating-point
    round-off at ``p = 0`` or ``1``).  With no trials there is no
    information, so the interval spans the whole unit range; ``z = 0``
    degenerates to the point estimate.
    """
    if n_injections <= 0:
        return (0.0, 1.0)
    n = n_injections
    p = n_errors / n_injections
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (
        max(0.0, min(centre - half, p)),
        min(1.0, max(centre + half, p)),
    )


def wilson_half_width(
    n_errors: int, n_injections: int, z: float = 1.96
) -> float:
    """Half the width of the clamped Wilson interval.

    The adaptive controller's uncertainty measure: a target retires
    once every arc's half-width drops below the requested ``ci_width``,
    and each round's budget goes to the targets where this value is
    largest.  Defined on the *clamped* interval so it agrees with what
    :func:`wilson_interval` reports to users.
    """
    lo, hi = wilson_interval(n_errors, n_injections, z)
    return (hi - lo) / 2.0
