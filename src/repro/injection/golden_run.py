"""The Golden Run and the Golden Run Comparison (GRC).

"A Golden Run (GR) is a trace of the system executing without any
injections being made, hence, this trace is used as reference and is
stated to be 'correct'.  All traces obtained from the injection runs
(IR's ...) are compared to the GR, and any difference indicates that an
error has occurred" (Section 6).

The comparison semantics follow Section 7.3: per signal, "the comparison
stopped as soon as the first difference between the GR trace and the IR
trace was encountered" — exact equality is a valid criterion here
because both runs execute "in simulated time, in a simulated
environment, and on simulated hardware".

:class:`GoldenRun` itself lives in :mod:`repro.simulation.runtime`,
which resumes every injection run from it, and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.model.errors import TraceMismatchError
from repro.simulation.runtime import GoldenRun, RunResult

__all__ = ["GoldenRun", "GoldenRunComparison", "compare_to_golden_run"]


@dataclass(frozen=True)
class GoldenRunComparison:
    """Outcome of comparing one injection run against its Golden Run.

    ``first_divergence_ms[signal]`` is the millisecond of the first
    differing sample for that signal, or ``None`` if the traces agree —
    i.e. no error was observed on the signal.
    """

    case_id: str
    first_divergence_ms: dict[str, int | None]

    def diverged(self, signal: str) -> bool:
        """Whether any error was observed on ``signal``."""
        try:
            return self.first_divergence_ms[signal] is not None
        except KeyError:
            raise TraceMismatchError(f"signal {signal!r} was not compared") from None

    def divergence_time(self, signal: str) -> int | None:
        """First divergence time of ``signal``, or ``None``."""
        try:
            return self.first_divergence_ms[signal]
        except KeyError:
            raise TraceMismatchError(f"signal {signal!r} was not compared") from None

    def diverged_signals(self) -> tuple[str, ...]:
        """All signals on which errors were observed, earliest first."""
        hit = [
            (time, signal)
            for signal, time in self.first_divergence_ms.items()
            if time is not None
        ]
        hit.sort()
        return tuple(signal for _, signal in hit)

    def error_free(self) -> bool:
        """Whether the injection left every compared trace untouched."""
        return all(time is None for time in self.first_divergence_ms.values())

    def latency_ms(self, signal: str, injection_time_ms: int) -> int | None:
        """Detection latency: first divergence minus injection time.

        Used by the EDM-selection baseline ([18] uses coverage *and*
        latency estimates).  ``None`` when the signal never diverged.
        """
        time = self.divergence_time(signal)
        if time is None:
            return None
        return time - injection_time_ms

    def to_jsonable(self) -> dict:
        """JSON-safe form; signal order is preserved (it is trace order)."""
        return {
            "case_id": self.case_id,
            "first_divergence_ms": dict(self.first_divergence_ms),
        }

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "GoldenRunComparison":
        """Rebuild a comparison persisted by :meth:`to_jsonable`."""
        return cls(
            case_id=data["case_id"],
            first_divergence_ms=dict(data["first_divergence_ms"]),
        )


def compare_to_golden_run(
    golden: GoldenRun, injected: RunResult, case_id: str | None = None
) -> GoldenRunComparison:
    """Run the GRC of one injection run against its Golden Run.

    A run compared while stepping (a batched lane, or a reference run
    that shared its batch's state memo) carries its own first
    divergences; any other run's traces are scanned against the Golden
    Run's.
    """
    divergences = injected.first_divergence_ms
    if divergences is None:
        assert injected.traces is not None, "a run without divergences has traces"
        divergences = injected.traces.first_divergences(golden.traces)
    return GoldenRunComparison(
        case_id=case_id if case_id is not None else golden.case_id,
        first_divergence_ms=dict(divergences),
    )
