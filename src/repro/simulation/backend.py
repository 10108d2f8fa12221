"""Execution backends: how a campaign's injection runs get stepped.

The campaign engine (:mod:`repro.injection.campaign`) decides *what* to
run — the (target, instant, error-model) grid of one test case — while
a :class:`SimulationBackend` decides *how* those injection runs
execute:

``reference``
    The frame-stepping runtime of :mod:`repro.simulation.runtime`, one
    injection run at a time.  Always available, always correct; every
    other backend is defined by byte-identity against it.

``batched``
    The vectorized lane kernel of :mod:`repro.simulation.batched`:
    all injection runs of one case stepped in lockstep as numpy
    bitwise ops over a signal-major ``(n_signals, n_lanes)`` int64
    array, each lane joining at its own injection instant and retiring
    individually on reconvergence.  Falls
    back to the reference path per run (or per module) whenever a
    precondition for vectorization does not hold, so arbitrary systems
    still execute correctly.  Requires numpy.

Backends do not import the injection layer.  They operate on a duck-
typed *case context* handed over by the campaign, which exposes the
planned injection points in grid order plus two callbacks: execute one
injection the reference way, or fold an already-computed
:class:`~repro.simulation.runtime.RunResult` into a campaign outcome.
This keeps ``repro.simulation`` free of upward dependencies while the
campaign retains ownership of observers, comparison and bookkeeping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Protocol, runtime_checkable

from repro.model.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.runtime import RunResult

__all__ = [
    "SimulationBackend",
    "ReferenceBackend",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
]


class UnknownBackendError(SimulationError):
    """A backend name does not match any registered implementation."""


class CaseContext(Protocol):
    """What a backend receives per test case (provided by the campaign).

    ``injection_points()`` yields the case's planned injections in the
    campaign's canonical grid order; each item carries ``module``,
    ``signal``, ``time_ms`` and ``model`` attributes.  ``runner`` is the
    case's live runtime, ``golden`` its
    :class:`~repro.simulation.runtime.GoldenRun`, whose checkpoints the
    points resume from, ``config`` the campaign configuration and
    ``metrics`` the observer's metrics registry (``None`` without
    observability).
    ``keep_traces`` says whether anyone reads the runs' traces; when it
    is false a backend may return runs with ``traces=None`` that carry
    their ``first_divergence_ms`` instead, and ``run_reference`` does
    so itself: its runs share the context's
    :class:`~repro.simulation.runtime.StateMemo`, so a run may take an
    earlier run's outcome once their states match.
    """

    runner: Any
    golden: Any
    config: Any
    metrics: Any
    keep_traces: bool

    def injection_points(self) -> Iterator[Any]: ...

    def run_reference(self, point: Any) -> tuple[Any, "RunResult"]:
        """Execute one injection with the reference runtime."""

    def record_result(
        self,
        point: Any,
        injected: "RunResult",
        fired_at_ms: int | None,
    ) -> tuple[Any, "RunResult"]:
        """Fold a backend-computed run into a campaign outcome."""


@runtime_checkable
class SimulationBackend(Protocol):
    """One strategy for executing a case's injection runs."""

    name: str

    def case_injections(
        self, context: CaseContext
    ) -> Iterator[tuple[Any, "RunResult"]]:
        """Yield ``(outcome, run_result)`` per injection, in grid order."""


class ReferenceBackend:
    """The frame-stepping runtime, one injection run at a time."""

    name = "reference"

    def case_injections(
        self, context: CaseContext
    ) -> Iterator[tuple[Any, "RunResult"]]:
        for point in context.injection_points():
            yield context.run_reference(point)


#: Names accepted by :func:`get_backend` (and the ``--backend`` CLI
#: flags / ``REPRO_BACKEND`` environment default).
_BACKEND_NAMES = ("reference", "batched")


def available_backends() -> tuple[str, ...]:
    """Registered backend names, reference first."""
    return _BACKEND_NAMES


def get_backend(name: str) -> SimulationBackend:
    """Instantiate the backend registered under ``name``.

    The batched backend is imported lazily so that the reference path
    never needs numpy; a missing numpy surfaces only when the batched
    backend is actually requested.
    """
    if name == "reference":
        return ReferenceBackend()
    if name == "batched":
        from repro.simulation.batched import BatchedBackend

        return BatchedBackend()
    raise UnknownBackendError(
        f"unknown simulation backend {name!r}; "
        f"expected one of {', '.join(_BACKEND_NAMES)}"
    )
