"""Propagation-latency and error-lifetime analysis (beyond the paper).

The paper's permeability is a *probability*; reference [18] (whose EDM
selection the paper discusses) also uses detection *latency*.  This
module adds the temporal dimension to campaign results: for every
(module, input, output) pair, the distribution of the delay between the
injection and the first divergence of the output trace.

Latency matters for ERM placement: a recovery mechanism can only act
before the error reaches the system boundary, so pairs with short
propagation latency need in-line (synchronous) mechanisms while pairs
with long latency can be guarded by periodic scrubbing.

Reconvergence fast-forward contributes the complementary measurement
for free: every fast-forwarded IR records the instant its complete
state provably re-matched the Golden Run, i.e. the injected error's
*lifetime* (:func:`lifetime_statistics`).  Errors still alive when the
run ends are right-censored, not zero — they are reported separately
as ``n_censored``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.injection.outcomes import CampaignResult, direct_outputs

__all__ = [
    "PairLatency",
    "latency_statistics",
    "render_latency_table",
    "InputLifetime",
    "input_lifetime",
    "lifetime_statistics",
    "render_lifetime_table",
]


@dataclass(frozen=True)
class PairLatency:
    """Latency statistics of one (module, input, output) pair."""

    module: str
    input_signal: str
    output_signal: str
    #: Number of injections whose error reached the output.
    n_samples: int
    #: Milliseconds from injection (trap firing) to first divergence.
    min_ms: int
    max_ms: int
    mean_ms: float
    #: Median latency (50th percentile).
    median_ms: float

    @property
    def is_synchronous(self) -> bool:
        """Whether propagation is immediate (within one activation cycle).

        Pairs whose *maximum* observed latency is below one 7 ms
        scheduling cycle propagate within the same frame: only in-line
        mechanisms can intercept them.
        """
        return self.max_ms <= 7


def _percentile(sorted_values: list[int], fraction: float) -> float:
    """Linear-interpolated percentile of a pre-sorted sample list."""
    if not sorted_values:
        raise ValueError("no samples")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = fraction * (len(sorted_values) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(sorted_values[low])
    weight = position - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


def latency_statistics(
    result: CampaignResult, direct_only: bool = True
) -> dict[tuple[str, str, str], PairLatency]:
    """Per-pair propagation-latency statistics of a campaign.

    Only pairs with at least one propagated error appear.  Latency is
    measured from the actual trap firing time (not the scheduled time),
    so scheduling slack does not pollute the distribution.
    """
    samples: dict[tuple[str, str, str], list[int]] = {}
    for outcome in result:
        outputs = result.system.module(outcome.module).outputs
        for output_signal in direct_outputs(outcome, outputs, direct_only):
            divergence = outcome.comparison.divergence_time(output_signal)
            assert divergence is not None and outcome.fired_at_ms is not None
            key = (outcome.module, outcome.input_signal, output_signal)
            samples.setdefault(key, []).append(divergence - outcome.fired_at_ms)
    return {
        key: PairLatency(*key, **_spread(values)) for key, values in samples.items()
    }


def _spread(samples: Iterable[int]) -> dict:
    """Sample count, min, max, mean and median (all zero when empty)."""
    values = sorted(samples)
    return {
        "n_samples": len(values),
        "min_ms": values[0] if values else 0,
        "max_ms": values[-1] if values else 0,
        "mean_ms": sum(values) / len(values) if values else 0.0,
        "median_ms": _percentile(values, 0.5) if values else 0.0,
    }


@dataclass(frozen=True)
class InputLifetime:
    """Error-lifetime statistics of injections into one module input.

    Lifetime is measured from the trap firing to the proven
    reconvergence instant (complete-state digest match with the Golden
    Run); a lifetime of 0 means the error was masked within its own
    frame — the write the corrupted read produced was identical to the
    Golden Run's.
    """

    module: str
    input_signal: str
    #: Fired injections whose error provably died before the run ended.
    n_samples: int
    #: Fired injections whose error was still alive at the end of the
    #: run (right-censored: lifetime >= remaining run length).
    n_censored: int
    min_ms: int
    max_ms: int
    mean_ms: float
    median_ms: float

    @property
    def observed_fraction(self) -> float:
        """Fraction of fired injections with a measured (finite) lifetime."""
        total = self.n_samples + self.n_censored
        return self.n_samples / total if total else 0.0


def lifetime_statistics(
    result: CampaignResult,
) -> dict[tuple[str, str], InputLifetime]:
    """Per-input error-lifetime statistics of a campaign.

    Requires a campaign executed with reconvergence fast-forward
    (:attr:`~repro.injection.campaign.CampaignConfig.fast_forward`);
    without it no run records a reconvergence instant and every fired
    injection counts as censored.  Only inputs with at least one fired
    injection appear.
    """
    samples: dict[tuple[str, str], list[int]] = {}
    censored: dict[tuple[str, str], int] = {}
    for outcome in result:
        if not outcome.fired:
            continue
        key = (outcome.module, outcome.input_signal)
        lifetime = outcome.error_lifetime_ms
        if lifetime is None:
            censored[key] = censored.get(key, 0) + 1
            samples.setdefault(key, [])
        else:
            samples.setdefault(key, []).append(lifetime)
    return {
        key: input_lifetime(*key, values, censored.get(key, 0))
        for key, values in samples.items()
    }


def input_lifetime(
    module: str, input_signal: str, samples: Iterable[int], n_censored: int
) -> InputLifetime:
    """Summarise one input's observed lifetimes plus its censored count
    (the post-hoc :func:`lifetime_statistics` and the dashboard
    reducer's live view share it)."""
    return InputLifetime(
        module=module,
        input_signal=input_signal,
        n_censored=n_censored,
        **_spread(samples),
    )


def render_lifetime_table(
    statistics: dict[tuple[str, str], InputLifetime]
) -> str:
    """Monospace table of per-input error lifetimes."""
    from repro.core.report import format_table

    rows = []
    for (module, input_signal), stats in sorted(statistics.items()):
        if stats.n_samples:
            spread = (
                f"{stats.min_ms}",
                f"{stats.median_ms:.0f}",
                f"{stats.mean_ms:.1f}",
                f"{stats.max_ms}",
            )
        else:
            spread = ("-", "-", "-", "-")
        rows.append(
            (
                f"{module}: {input_signal}",
                stats.n_samples,
                stats.n_censored,
                *spread,
            )
        )
    return format_table(
        headers=("Input", "died", "alive", "min", "p50", "mean", "max"),
        rows=rows,
        title="Error lifetime from injection to proven reconvergence [ms]",
    )


def render_latency_table(
    statistics: dict[tuple[str, str, str], PairLatency]
) -> str:
    """Monospace table of per-pair propagation latencies."""
    from repro.core.report import format_table

    rows = []
    for (module, input_signal, output_signal), stats in sorted(statistics.items()):
        rows.append(
            (
                f"{module}: {input_signal} -> {output_signal}",
                stats.n_samples,
                stats.min_ms,
                f"{stats.median_ms:.0f}",
                f"{stats.mean_ms:.1f}",
                stats.max_ms,
                "sync" if stats.is_synchronous else "async",
            )
        )
    return format_table(
        headers=("Pair", "n", "min", "p50", "mean", "max", "class"),
        rows=rows,
        title="Propagation latency from injection to first output divergence [ms]",
    )
