"""Embedded-runtime substrate: simulated time, signal store, scheduling.

Reproduces the execution environment of the paper's target system
(Section 7.1): a slot-based non-preemptive schedule of software modules
running in simulated time against simulated hardware registers, with
trap hook points for the fault-injection environment.
"""

from repro.simulation.backend import (
    ReferenceBackend,
    SimulationBackend,
    UnknownBackendError,
    available_backends,
    get_backend,
)
from repro.simulation.runtime import (
    Environment,
    GoldenRun,
    ReadInterceptor,
    RunCheckpoint,
    RunResult,
    SignalStore,
    SimulationRun,
)
from repro.simulation.scheduler import SlotSchedule
from repro.simulation.simtime import SimClock
from repro.simulation.snapshot import Snapshotable, restore_state, snapshot_state
from repro.simulation.traces import SignalTrace, TraceSet

__all__ = [
    "Environment",
    "GoldenRun",
    "ReadInterceptor",
    "ReferenceBackend",
    "RunCheckpoint",
    "RunResult",
    "SignalStore",
    "SignalTrace",
    "SimClock",
    "SimulationBackend",
    "SimulationRun",
    "SlotSchedule",
    "Snapshotable",
    "TraceSet",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "restore_state",
    "snapshot_state",
]
