"""Evaluating EDMs against injection campaigns.

Closes the loop of the paper's OB3: given a set of executable-assertion
detectors (:mod:`repro.edm.detectors`) placed at candidate locations,
replay them over every injection run of a campaign and measure

* **false-alarm freedom** — a usable assertion must stay silent on the
  Golden Run of every workload;
* **coverage** — the fraction of error-producing injections the
  detector catches (it fires *and* the fired sample genuinely deviates
  from the Golden Run);
* **latency** — milliseconds from the injection to the detection.

The evaluation plugs into
:meth:`repro.injection.campaign.InjectionCampaign.execute` through the
``inspector`` callback, so it adds no extra simulation runs.

The headline analysis, :func:`effectiveness_score`, reproduces OB3's
argument quantitatively: a detector's *usefulness* is its coverage of
propagating errors, which couples its raw detection quality with the
error exposure of the signal it watches — "it should be preferred to
put a detection mechanism with a slightly lower detection probability
at a location where errors very likely pass by".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.edm.detectors import ErrorDetector
from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.golden_run import GoldenRun
from repro.injection.outcomes import InjectionOutcome
from repro.model.errors import CampaignError
from repro.model.system import SystemModel
from repro.simulation.runtime import RunResult, SimulationRun

__all__ = ["DetectorStats", "DetectorEvaluation", "evaluate_detectors"]


@dataclass
class DetectorStats:
    """Aggregated campaign statistics of one detector."""

    detector: str
    signal: str
    #: Golden runs on which the assertion (wrongly) fired.
    false_alarm_cases: list[str] = field(default_factory=list)
    #: Error-producing injections seen (the coverage denominator).
    n_detectable: int = 0
    #: Injections the detector caught.
    n_detected: int = 0
    #: Detection latencies (ms from injection to first firing).
    latencies_ms: list[int] = field(default_factory=list)

    @property
    def has_false_alarms(self) -> bool:
        return bool(self.false_alarm_cases)

    @property
    def coverage(self) -> float:
        """Detected fraction of error-producing injections."""
        if self.n_detectable == 0:
            return 0.0
        return self.n_detected / self.n_detectable

    @property
    def mean_latency_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        return sum(self.latencies_ms) / len(self.latencies_ms)


@dataclass(frozen=True)
class DetectorEvaluation:
    """The full evaluation result: one :class:`DetectorStats` per detector."""

    stats: tuple[DetectorStats, ...]
    n_injections: int
    n_detectable: int

    def by_name(self) -> Mapping[str, DetectorStats]:
        return {item.detector: item for item in self.stats}

    def ranked(self) -> list[DetectorStats]:
        """Detectors ordered by coverage (false-alarming ones last)."""
        return sorted(
            self.stats,
            key=lambda s: (s.has_false_alarms, -s.coverage, s.mean_latency_ms),
        )

    def render(self) -> str:
        from repro.core.report import format_table

        rows = []
        for item in self.ranked():
            rows.append(
                (
                    item.detector,
                    item.signal,
                    f"{item.coverage:.3f}",
                    f"{item.mean_latency_ms:.0f}",
                    "YES" if item.has_false_alarms else "no",
                )
            )
        table = format_table(
            headers=("Detector", "Signal", "Coverage", "Latency[ms]", "FalseAlarm"),
            rows=rows,
            title=(
                "EDM evaluation: coverage of error-producing injections "
                f"(n={self.n_detectable} of {self.n_injections} runs)"
            ),
        )
        return table


def evaluate_detectors(
    system: SystemModel,
    run_factory: Callable[..., SimulationRun],
    test_cases: Mapping[str, object] | Sequence[object],
    config: CampaignConfig,
    detectors: Sequence[ErrorDetector],
) -> DetectorEvaluation:
    """Run one campaign and replay all detectors over every run.

    A detection is *credited* only when the detector fires at a sample
    where (or after) its signal genuinely deviates from the Golden Run;
    a firing on an untouched trace would equally fire on the GR and is
    counted as a false alarm instead.
    """
    if not detectors:
        raise CampaignError("at least one detector is required")
    for detector in detectors:
        if detector.signal not in system.signals:
            raise CampaignError(
                f"detector {detector.name} watches unknown signal "
                f"{detector.signal!r}"
            )
    stats = {
        detector.name: DetectorStats(detector=detector.name, signal=detector.signal)
        for detector in detectors
    }
    counters = {"injections": 0, "detectable": 0}
    golden_checked: set[str] = set()

    def inspector(
        outcome: InjectionOutcome, injected: RunResult, golden: GoldenRun
    ) -> None:
        counters["injections"] += 1
        if golden.case_id not in golden_checked:
            golden_checked.add(golden.case_id)
            for detector in detectors:
                fired = detector.first_detection(
                    golden.traces[detector.signal].samples
                )
                if fired is not None:
                    stats[detector.name].false_alarm_cases.append(golden.case_id)
        if not outcome.fired or outcome.comparison.error_free():
            return
        counters["detectable"] += 1
        assert outcome.fired_at_ms is not None
        assert injected.traces is not None, "an inspected run has traces"
        for detector in detectors:
            item = stats[detector.name]
            item.n_detectable += 1
            fired = detector.first_detection(
                injected.traces[detector.signal].samples
            )
            if fired is None:
                continue
            divergence = outcome.comparison.divergence_time(detector.signal)
            if divergence is None or fired < divergence:
                # The assertion fired on Golden-Run-identical data: it
                # would fire on the GR too — not a genuine detection.
                continue
            item.n_detected += 1
            item.latencies_ms.append(fired - outcome.fired_at_ms)

    campaign = InjectionCampaign(system, run_factory, test_cases, config)
    campaign.execute(inspector=inspector)
    return DetectorEvaluation(
        stats=tuple(stats.values()),
        n_injections=counters["injections"],
        n_detectable=counters["detectable"],
    )


def effectiveness_score(stats: DetectorStats, signal_exposure: float) -> float:
    """OB3's usefulness measure: detection quality x location traffic.

    A perfect detector on a signal errors rarely reach scores below a
    mediocre detector on a high-exposure signal — the paper's argument
    for choosing `SetValue`/`OutValue` over `InValue` even though the
    `InValue` assertion detected errors "with a very high probability".
    """
    return stats.coverage * signal_exposure
