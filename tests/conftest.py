"""Shared fixtures: example systems, toy runtimes and cached campaigns."""

from __future__ import annotations

from typing import Mapping

import pytest

from repro.model.builder import SystemBuilder
from repro.model.examples import build_fig2_system, fig2_permeabilities
from repro.model.module import ModuleSpec, SoftwareModule
from repro.model.system import SystemModel
from repro.core.permeability import PermeabilityMatrix
from repro.simulation.runtime import SignalStore, SimulationRun
from repro.simulation.scheduler import SlotSchedule

# Shared hypothesis strategies, re-exported so test modules can import
# them from either ``tests.conftest`` or ``tests.strategies``.
from tests.strategies import (  # noqa: F401
    dag_matrices,
    generated_executable_systems,
    layered_dag_systems,
    values01,
)

# ---------------------------------------------------------------------------
# Fig. 2 example system
# ---------------------------------------------------------------------------


@pytest.fixture()
def fig2_system() -> SystemModel:
    """The paper's five-module A–E example system."""
    return build_fig2_system()


@pytest.fixture()
def fig2_matrix(fig2_system: SystemModel) -> PermeabilityMatrix:
    """The example system with its documented analytic permeabilities."""
    return PermeabilityMatrix.from_dict(fig2_system, fig2_permeabilities())


# ---------------------------------------------------------------------------
# Toy executable system with exactly known permeabilities
# ---------------------------------------------------------------------------
#
# Topology:   src (system input) -> FILT -> filt -> AMP -> out (system output)
#
# FILT masks away the low byte of its input, so a bit-flip injected into
# ``src`` at FILT propagates iff it hits one of the 8 high bits; AMP is
# the identity, so every flip on ``filt`` propagates.  This gives exact
# expected permeability estimates for the campaign/estimator tests:
# P^FILT = 0.5 over the full 16-bit flip set, P^AMP = 1.0.


class FiltModule(SoftwareModule):
    """Drops the low byte: out = in & 0xFF00."""

    def __init__(self) -> None:
        super().__init__(
            ModuleSpec(
                name="FILT",
                inputs=("src",),
                outputs=("filt",),
                description="Masks the low byte of src",
            )
        )

    def activate(self, inputs: Mapping[str, int], now_ms: int) -> Mapping[str, int]:
        return {"filt": inputs["src"] & 0xFF00}


class AmpModule(SoftwareModule):
    """Identity pass-through."""

    def __init__(self) -> None:
        super().__init__(
            ModuleSpec(
                name="AMP",
                inputs=("filt",),
                outputs=("out",),
                description="Identity pass-through",
            )
        )

    def activate(self, inputs: Mapping[str, int], now_ms: int) -> Mapping[str, int]:
        return {"out": inputs["filt"]}


class RampEnvironment:
    """Feeds ``src`` with a deterministic ramp and ignores the output."""

    def __init__(self, step: int = 3) -> None:
        self._step = step
        self._value = 0

    def reset(self) -> None:
        self._value = 0

    def before_software(self, now_ms: int, store: SignalStore) -> None:
        self._value = (self._value + self._step) & 0xFFFF
        store.write("src", self._value)

    def after_software(self, now_ms: int, store: SignalStore) -> None:
        pass

    def telemetry(self) -> dict[str, float]:
        return {"value": float(self._value)}


class PassThrough:
    """A read interceptor that changes no value.

    It has no ``fired`` attribute, so the runtime never retires it and
    every frame of a run takes the generic loop.
    """

    def on_read(self, module: str, signal: str, value: int, now_ms: int) -> int:
        return value


def build_toy_model() -> SystemModel:
    """Static topology of the toy FILT→AMP chain."""
    builder = SystemBuilder("toy-chain", description="FILT/AMP test chain")
    builder.add_module("FILT", inputs=["src"], outputs=["filt"])
    builder.add_module("AMP", inputs=["filt"], outputs=["out"])
    builder.mark_system_input("src")
    builder.mark_system_output("out")
    return builder.build()


def toy_factory(case: object) -> SimulationRun:
    """Picklable run factory for parallel-campaign tests."""
    return build_toy_run()


def build_toy_run(ramp_step: int = 3) -> SimulationRun:
    """Executable instance of the toy chain (1-slot schedule)."""
    schedule = SlotSchedule(n_slots=1)
    schedule.assign_every_slot("FILT")
    schedule.assign_every_slot("AMP")
    return SimulationRun(
        system=build_toy_model(),
        modules=[FiltModule(), AmpModule()],
        schedule=schedule,
        environment=RampEnvironment(step=ramp_step),
    )


@pytest.fixture()
def toy_model() -> SystemModel:
    return build_toy_model()


@pytest.fixture()
def toy_run() -> SimulationRun:
    return build_toy_run()


def assert_aborted_stream(events_path, reason: str) -> None:
    """The stream of a campaign that raised ends in ``CampaignAborted``.

    It names the exception, passes ``repro obs validate``, folds into
    an ``"aborted"`` snapshot and is summarised with an ``ABORTED``
    line.
    """
    from repro.cli import main
    from repro.obs import CampaignStateReducer, validate_snapshot
    from repro.obs.events import CampaignAborted, read_events
    from repro.obs.summary import summarize_events_file

    events = [parsed.event for parsed in read_events(events_path)]
    assert events[-1] == CampaignAborted(reason=reason)
    assert sum(isinstance(event, CampaignAborted) for event in events) == 1
    assert main(["obs", "validate", str(events_path)]) == 0
    snapshot = CampaignStateReducer.from_events_file(events_path).snapshot()
    assert snapshot["state"] == "aborted"
    validate_snapshot(snapshot)
    assert f"ABORTED: {reason}" in summarize_events_file(events_path)
