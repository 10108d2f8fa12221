"""The embedded runtime: signal store, dispatcher and run loop.

Reproduces the execution model of the paper's target (Section 7.1): a
slot-based, non-preemptive schedule of software modules exchanging data
through signals, closed over an environment simulator that feeds the
hardware input registers and consumes the actuator outputs, all in
simulated time.

The runtime also provides the hook point used by the fault-injection
environment (Section 7.3: "the target system was instrumented with
high-level software traps"): **read interceptors** see (and may
replace) every value a module reads from one of its input signals —
consumer-scoped injection, so other consumers of the same signal are
unaffected.  An injection run starts from, and is compared against, its
test case's :class:`GoldenRun`; with a :class:`StateMemo` it may also
take the outcome of an earlier run of its batch whose state it reaches.

Tracing is built in: every signal (or a chosen subset) is sampled at
the end of each millisecond into a :class:`~repro.simulation.traces.TraceSet`.

Implementation note: campaigns execute tens of thousands of runs of
several thousand milliseconds each, so the frame loop is written for
speed.  When a run is built, each distinct slot dispatch order is
compiled into one straight-line function (see
:meth:`SimulationRun.dispatch_source`): it calls the slot's modules in
order, passes positional modules their input values directly and
writes their outputs through width masks held as int literals.  Every
frame with no live read interceptor runs that function — the Golden
Run and every frame after a trap has fired.  Frames with a live
interceptor take the generic loop, which builds each module's input
mapping through the interceptors; it is also the reference the
compiled functions are tested against.  Hot paths bypass the checked
:class:`SignalStore` accessors (which remain the public interface),
hooks that have fired are no longer called, and the traced signals are
read, recorded and compared against the Golden Run as one row per frame.
"""

from __future__ import annotations

import functools
import struct
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Mapping, Protocol, Sequence

from repro.model.errors import SimulationError, UnknownSignalError
from repro.model.module import SoftwareModule
from repro.model.system import SystemModel
from repro.simulation.scheduler import SlotSchedule
from repro.simulation.simtime import SimClock
from repro.simulation.snapshot import (
    FrameDigests,
    digest_payload,
    restore_state,
    snapshot_state,
    state_digest,
)
from repro.simulation.traces import SignalTrace, TraceSet, first_difference

__all__ = [
    "SignalStore",
    "Environment",
    "ReadInterceptor",
    "RunResult",
    "RunCheckpoint",
    "GoldenRun",
    "StateMemo",
    "SimulationRun",
]

#: Frames between repeated reconvergence digest checks while the traced
#: row stays equal to the Golden Run's but hidden (module/plant) state
#: still differs — one 7 ms scheduling cycle of the paper's target.
_DIGEST_RETRY_FRAMES = 7

#: Frames of absolute time between two lookups of a run's complete
#: state in its batch's :class:`StateMemo`: a 6 µs digest every 200
#: frames costs under 1 % of the frames it interleaves, and a hit is
#: found at most 200 frames late.
_MEMO_FRAMES = 200

#: Recorded rows held before they are transposed into the per-signal
#: trace arrays, so a run's pending rows stay a few hundred KiB.
_FLUSH_ROWS = 512


def _row_getter(signals: Sequence[str]) -> Any:
    """``values -> row`` for the traced signals, one C-level call.

    A row is the tuple of the signals' values — or the bare value when
    exactly one signal is traced, as :func:`operator.itemgetter` returns
    it.  :meth:`GoldenRun.row` builds rows of the same shape.
    """
    if not signals:
        return lambda values: ()
    return itemgetter(*signals)


@functools.lru_cache(maxsize=32)
def _compile(source: str) -> Any:
    """Code object of a dispatch program; runs of one system share it."""
    return compile(source, "<slot dispatch>", "exec")


def _undeclared_output(module: str, signal: str) -> SimulationError:
    return SimulationError(f"module {module!r} wrote undeclared output {signal!r}")


def _compile_dispatch(
    dispatch: Sequence[tuple], module_names: Sequence[str]
) -> tuple[str, tuple[Any, ...]]:
    """Straight-line functions for a per-slot dispatch table.

    ``dispatch`` holds, per slot, the ``(name, module, inputs, masks)``
    activations in dispatch order.  Slots with the same order share one
    function ``dispatch_j(values, now_ms)``.  Returns the generated
    source and the function of every slot.  Module ``k`` of
    ``module_names`` is the bound constant ``m{k}``; module and signal
    names enter the source only through :func:`repr`.
    """
    index = {name: k for k, name in enumerate(module_names)}
    slots_of: dict[tuple[str, ...], list[int]] = {}
    for slot, contexts in enumerate(dispatch):
        slots_of.setdefault(tuple(name for name, *_ in contexts), []).append(slot)
    namespace: dict[str, Any] = {"undeclared_output": _undeclared_output}
    lines: list[str] = []
    function_of: dict[int, str] = {}
    for j, slots in enumerate(slots_of.values()):
        body = [
            line
            for context in dispatch[slots[0]]
            for line in _activation_source(index[context[0]], *context, namespace)
        ]
        lines += [
            f"# slot(s) {', '.join(map(str, slots))}",
            f"def dispatch_{j}(values, now_ms):",
            *(body or ["    pass"]),
            "",
        ]
        function_of.update(dict.fromkeys(slots, f"dispatch_{j}"))
    source = "\n".join(lines)
    exec(_compile(source), namespace)
    return source, tuple(namespace[function_of[slot]] for slot in sorted(function_of))


def _activation_source(
    k: int,
    name: str,
    module: SoftwareModule,
    inputs: Sequence[str],
    masks: Mapping[str, int],
    namespace: dict[str, Any],
) -> list[str]:
    """The source lines of one activation of module ``m{k}``."""
    m = f"m{k}"
    namespace[m] = module
    if not module.is_positional():
        namespace[f"k{k}"] = masks
        literal = ", ".join(f"{signal!r}: values[{signal!r}]" for signal in inputs)
        return [
            f"    # {name!r}",
            f"    for signal, value in {m}.activate({{{literal}}}, now_ms).items():",
            "        try:",
            f"            values[signal] = value & k{k}[signal]",
            "        except KeyError:",
            f"            raise undeclared_output({name!r}, signal) from None",
        ]
    arguments = "".join(f"values[{signal!r}], " for signal in inputs)
    targets = ", ".join(f"o{j}" for j in range(len(masks)))
    lines = [
        f"    # {name!r}",
        f"    out = {m}.activate_values({arguments}now_ms)",
        "    try:",
        f"        [{targets}] = out",
        "    except (TypeError, ValueError):",
        f"        raise {m}.bad_values_error(out) from None",
    ]
    for j, (signal, mask) in enumerate(masks.items()):
        lines += [
            f"    if o{j} is not None:",
            f"        values[{signal!r}] = o{j} & {mask:#x}",
        ]
    return lines


def _flush_rows(sinks: Sequence[array], rows: list) -> None:
    """Transpose recorded rows onto the per-signal sinks and clear them.

    Each column is packed to native int64 bytes in one call, which is
    several times faster than extending an ``array('q')`` item by item.
    """
    pack = struct.Struct(f"{len(rows)}q").pack
    if len(sinks) == 1:
        sinks[0].frombytes(pack(*rows))
    elif sinks:
        for sink, column in zip(sinks, zip(*rows)):
            sink.frombytes(pack(*column))
    rows.clear()


class SignalStore:
    """Shared-memory signal values, one slot per declared signal.

    Values are raw bit patterns, wrapped to each signal's width on
    write (the communication style of the target: shared variables and
    hardware registers).
    """

    def __init__(self, system: SystemModel) -> None:
        self._system = system
        self._masks: dict[str, int] = {
            name: (1 << spec.width) - 1 for name, spec in system.signals.items()
        }
        self._initials: dict[str, int] = {
            name: spec.wrap(spec.initial) for name, spec in system.signals.items()
        }
        self._values: dict[str, int] = dict(self._initials)

    def reset(self) -> None:
        """Restore every signal to its declared initial value."""
        self._values = dict(self._initials)

    def read(self, signal: str) -> int:
        """Current raw value of a signal."""
        try:
            return self._values[signal]
        except KeyError:
            raise UnknownSignalError(signal) from None

    def write(self, signal: str, value: int) -> None:
        """Store a raw value, wrapped to the signal's declared width."""
        mask = self._masks.get(signal)
        if mask is None:
            raise UnknownSignalError(signal)
        self._values[signal] = value & mask

    def snapshot(self) -> dict[str, int]:
        """A copy of all current signal values."""
        return dict(self._values)

    def state_dict(self) -> dict:
        """Snapshot for checkpoint/restore (masks/initials are static)."""
        return {"values": dict(self._values)}

    def load_state_dict(self, state: dict) -> None:
        """Restore checkpointed values *in place*.

        The values dict is mutated rather than rebound: the runtime's
        hot loops hold direct references to it.
        """
        values = self._values
        values.clear()
        values.update(state["values"])

    def initial_values(self) -> dict[str, int]:
        """A copy of the declared (wrapped) initial signal values."""
        return dict(self._initials)

    @property
    def signals(self) -> tuple[str, ...]:
        return tuple(self._values)


class Environment(Protocol):
    """The plant/environment simulator seen by the runtime.

    The paper's setup ported the original environment simulator ("the
    environment experienced by the real system and the desktop system
    was identical"); any object with these four methods can play that
    role.
    """

    def reset(self) -> None:
        """Restore the physical state for a fresh run."""

    def before_software(self, now_ms: int, store: SignalStore) -> None:
        """Advance physics by 1 ms and refresh the system-input signals."""

    def after_software(self, now_ms: int, store: SignalStore) -> None:
        """Consume the system-output signals (actuator commands)."""

    def telemetry(self) -> Mapping[str, float]:
        """Physical quantities for reporting (not visible to software)."""


class ReadInterceptor(Protocol):
    """Hook seeing every module input read; may replace the value.

    A hook may expose a ``fired`` attribute.  Once it reads true the
    hook must be inert — return every value unchanged from then on —
    because the runtime stops calling it from the next frame on and may
    splice the rest of the run from the Golden Run.  A hook without
    ``fired`` is called on every read and keeps fast-forward disarmed.
    """

    def on_read(self, module: str, signal: str, value: int, now_ms: int) -> int:
        """Return the value the module should observe."""


@dataclass
class RunResult:
    """Everything recorded during one simulation run."""

    #: Per-signal, per-millisecond traces.  A run given a
    #: :class:`StateMemo` and the batched backend record them only for a
    #: campaign inspector (``None`` otherwise: the run carries
    #: :attr:`first_divergence_ms` instead); the batched ones are
    #: read-only views into a buffer shared by the whole lane batch:
    #: copy a trace's samples to keep them without keeping the buffer.
    traces: TraceSet | None
    #: Total simulated duration in milliseconds.
    duration_ms: int
    #: Final raw value of every signal.
    final_signals: dict[str, int]
    #: Final environment telemetry (physical quantities).
    telemetry: dict[str, float] = field(default_factory=dict)
    #: Frame at which the run provably re-matched its Golden Run and the
    #: remaining frames were spliced from the Golden-Run traces
    #: (``None``: the run was simulated to the end).  Doubles as the
    #: paper's error-lifetime measurement: the error's effect set was
    #: empty from this instant on.
    reconverged_at_ms: int | None = None
    #: Frames *not* simulated thanks to reconvergence fast-forward.
    frames_fast_forwarded: int = 0
    #: Per traced signal (trace order), the first frame whose sample
    #: differs from the Golden Run's, or ``None`` — the Golden Run
    #: Comparison, when the run carries it instead of traces: a batched
    #: lane compares while stepping, a run given a :class:`StateMemo`
    #: over the frames it stepped (and, spliced from an earlier run,
    #: takes that run's next divergence of each signal that had none).
    #: ``None`` when only the traces tell.
    first_divergence_ms: dict[str, int | None] | None = None


@dataclass(frozen=True)
class RunCheckpoint:
    """Complete mid-run state of a :class:`SimulationRun`.

    Captured with :meth:`SimulationRun.checkpoint` after ``time_ms``
    simulated milliseconds; resuming with
    :meth:`SimulationRun.run_from` produces results byte-for-byte
    identical to a full run, because the capture covers *all* mutable
    state (store, clock, environment, every module).  It holds no
    traces: the run's first ``time_ms`` samples are the Golden Run's,
    which the resume copies from the :class:`GoldenRun` that carries
    the checkpoint.

    Checkpoints are plain picklable data, so a Golden Run ships to
    worker processes with its checkpoints (the grid-sharded campaign
    path does exactly that).  Installed hooks are deliberately *not*
    part of a checkpoint — traps are per-run instrumentation.
    """

    #: Simulated milliseconds executed before the capture.
    time_ms: int
    #: :class:`SignalStore` state.
    store: dict
    #: :class:`~repro.simulation.simtime.SimClock` state.
    clock: dict
    #: Environment/plant state (snapshot or deepcopy fallback).
    environment: Any
    #: Per-module internal state, keyed by module name.
    modules: dict[str, Any]


@dataclass(frozen=True)
class GoldenRun:
    """The reference (injection-free) execution of one test case.

    "A Golden Run (GR) is a trace of the system executing without any
    injections being made, hence, this trace is used as reference"
    (Section 6).  Every injection run of the case starts from it and is
    compared against it: :meth:`SimulationRun.run_from` resumes one of
    its :attr:`checkpoints` and copies the trace prefix from its
    traces, and with :attr:`digests` a run may splice the rest of its
    traces from them once it provably re-matches (reconvergence
    fast-forward).  Recorded by :meth:`SimulationRun.run_with_checkpoints`;
    plain picklable data, so pool workers receive it as recorded.
    """

    #: Identifier of the workload/test case the GR belongs to.
    case_id: str
    #: The recorded reference execution; a Golden Run records its traces.
    result: RunResult
    #: Mid-run states keyed by their time, one per injection instant
    #: (empty when the campaign re-runs every IR from time zero).
    checkpoints: Mapping[int, RunCheckpoint] = field(default_factory=dict)
    #: One complete-state digest per frame — the verification track of
    #: reconvergence fast-forward (``None`` disables fast-forward).
    digests: FrameDigests | None = None

    def __post_init__(self) -> None:
        duration_ms = self.result.duration_ms
        if self.result.traces is None:
            raise SimulationError("a Golden Run records its traces")
        for trace in self.result.traces:
            if len(trace.samples) != duration_ms:
                raise SimulationError(
                    f"golden trace of {trace.signal!r} has "
                    f"{len(trace.samples)} samples, expected {duration_ms}"
                )
        if self.digests is not None and len(self.digests) != duration_ms:
            raise SimulationError(
                f"golden run records {len(self.digests)} frame digests for a "
                f"{duration_ms} ms run"
            )

    @property
    def duration_ms(self) -> int:
        return self.result.duration_ms

    @property
    def traces(self) -> TraceSet:
        """The reference traces, in trace order."""
        traces = self.result.traces
        assert traces is not None  # checked on construction
        return traces

    @property
    def signals(self) -> tuple[str, ...]:
        """The traced signals, in trace order."""
        return self.traces.signals

    def signal_trace(self, signal: str) -> SignalTrace:
        """The reference trace of one signal."""
        return self.traces[signal]

    @functools.cached_property
    def _columns(self) -> tuple:
        return tuple(trace.samples for trace in self.traces)

    def row(self, frame: int) -> Any:
        """The traced-signal row at ``frame``, shaped like the runtime's rows."""
        values = tuple(column[frame] for column in self._columns)
        return values[0] if len(values) == 1 else values

    @functools.cached_property
    def row_hashes(self) -> array:
        """``hash(row(t))`` for every frame: 8 bytes each, computed once.

        The frame loop compares a run's row against the Golden Run's
        through this hash first and confirms a match exactly with
        :meth:`row`, so no per-frame row tuples are kept.
        """
        columns = self._columns
        if len(columns) == 1:
            rows: Any = columns[0]
        elif columns:
            rows = zip(*columns)
        else:
            rows = repeat((), self.duration_ms)
        return array("q", map(hash, rows))

    def suffix_bytes(self, signal: str, start_frame: int) -> memoryview:
        """Byte view of a signal's samples from ``start_frame`` on."""
        return memoryview(self.traces[signal].samples)[start_frame:].cast("B")

    def prefix_array(self, signal: str, n_frames: int) -> array:
        """A mutable copy of a signal's first ``n_frames`` samples."""
        prefix = array("q")
        prefix.frombytes(
            memoryview(self.traces[signal].samples)[:n_frames].cast("B")
        )
        return prefix


class _Donor:
    """What one earlier run leaves in a :class:`StateMemo`.

    ``following`` is mark-major: for the donor's ``j``-th entry, item
    ``j * n_signals + k`` is the first frame, from that entry's frame
    on, where traced signal ``k`` differs from the Golden Run (``-1``:
    never).  The rest is the donor's result, shared by its entries.
    """

    __slots__ = (
        "following",
        "n_signals",
        "reconverged_at_ms",
        "frames_fast_forwarded",
        "final_signals",
        "telemetry",
    )

    def __init__(self, following: array, n_signals: int, result: RunResult) -> None:
        self.following = following
        self.n_signals = n_signals
        self.reconverged_at_ms = result.reconverged_at_ms
        self.frames_fast_forwarded = result.frames_fast_forwarded
        self.final_signals = dict(result.final_signals)
        self.telemetry = dict(result.telemetry)


class StateMemo:
    """Complete states the earlier injection runs of one batch reached.

    The second reference of fast-forward, beside the Golden Run: a run
    whose complete state at a frame equals the state an earlier run of
    its batch had at the same frame is, from then on, the same
    deterministic simulation, so it takes that run's outcome instead of
    stepping to the end.  Keys are complete-state digests (which cover
    the clock); each entry remembers, per traced signal, the earlier
    run's next divergence from the Golden Run, and that run's
    lifetime, final signals and telemetry.

    :meth:`SimulationRun.run_from` and :meth:`SimulationRun.run` look
    a run's state up every :data:`_MEMO_FRAMES` frames of absolute time
    while it differs from the Golden Run after its hooks fired; a run
    that finishes without a hit adds an entry per missed lookup.  One
    memo serves one case batch in one process (the campaign's
    ``_CaseContext``), so its memory is bounded by the batch: a few
    hundred bytes per missed lookup.  :attr:`hits` and :attr:`frames`
    count the runs spliced from it and the frames they did not step
    that the Golden Run would not have spliced either.
    """

    def __init__(self) -> None:
        self._entries: dict[bytes, tuple[_Donor, int]] = {}
        self.hits = 0
        self.frames = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, digest: bytes) -> tuple[_Donor, int] | None:
        """The entry recorded under a complete-state digest, if any."""
        return self._entries.get(digest)

    def donate(self, donor: _Donor, digests: Sequence[bytes]) -> None:
        """Record the ``j``-th of ``digests`` as ``donor``'s entry ``j``."""
        entries = self._entries
        for j, digest in enumerate(digests):
            entries.setdefault(digest, (donor, j))


def _divergences(
    samples: Sequence[tuple[str, array]],
    golden: GoldenRun,
    start_ms: int,
    marks: Sequence[int],
) -> tuple[dict[str, int | None], array]:
    """The Golden Run Comparison over the frames a run stepped.

    ``samples`` holds each traced signal's samples of frames
    ``start_ms`` on.  Returns each signal's first frame differing from
    the Golden Run (``None``: none) and, for each of the ascending
    frames ``marks``, each signal's first differing frame from that
    mark on (``-1``: none), mark-major as :class:`_Donor` stores it.
    """
    n_signals = len(samples)
    following = array("q", [-1]) * (len(marks) * n_signals)
    first: dict[str, int | None] = {}
    for k, (signal, sink) in enumerate(samples):
        n = len(sink)
        mine = sink.tobytes()
        theirs = golden.suffix_bytes(signal, start_ms)[: n * 8].tobytes()
        at = first_difference(mine, theirs, 0, n)
        first[signal] = None if at is None else start_ms + at
        if at is None:
            continue
        later = -1
        end = n
        for j in range(len(marks) - 1, -1, -1):
            lo = marks[j] - start_ms
            if lo <= at:
                # Nothing differs before ``at``: it follows every
                # earlier mark too.
                for i in range(j + 1):
                    following[i * n_signals + k] = start_ms + at
                break
            found = first_difference(mine, theirs, lo, end)
            if found is not None:
                later = start_ms + found
            following[j * n_signals + k] = later
            end = lo
    return first, following


class SimulationRun:
    """One executable instance of a modelled system.

    Parameters
    ----------
    system:
        The static topology (used for signal widths and validation).
    modules:
        Behavioural module instances; exactly one per scheduled module.
    schedule:
        The slot schedule to dispatch.
    environment:
        The plant simulator closing the loop.
    slot_signal:
        Name of the signal carrying the current slot number
        (``ms_slot_nbr`` in the target system).  ``None`` falls back to
        ``now_ms % n_slots``, for systems without a software slot
        counter.
    trace_signals:
        Signals to record; defaults to *all* signals (the paper traces
        every input and output signal).
    """

    def __init__(
        self,
        system: SystemModel,
        modules: Sequence[SoftwareModule],
        schedule: SlotSchedule,
        environment: Environment,
        slot_signal: str | None = None,
        trace_signals: Sequence[str] | None = None,
    ) -> None:
        self._system = system
        self._schedule = schedule
        self._environment = environment
        self._modules: dict[str, SoftwareModule] = {}
        for module in modules:
            if module.name in self._modules:
                raise SimulationError(f"duplicate module instance: {module.name!r}")
            if module.name not in system.modules:
                raise SimulationError(
                    f"module instance {module.name!r} not declared in system "
                    f"{system.name!r}"
                )
            self._modules[module.name] = module
        for name in schedule.all_modules():
            if name not in self._modules:
                raise SimulationError(f"scheduled module {name!r} has no instance")
        if slot_signal is not None and slot_signal not in system.signals:
            raise UnknownSignalError(slot_signal)
        self._slot_signal = slot_signal
        self._trace_signals = (
            tuple(trace_signals) if trace_signals is not None else system.signal_names()
        )
        for signal in self._trace_signals:
            if signal not in system.signals:
                raise UnknownSignalError(signal)
        self._store = SignalStore(system)
        self._clock = SimClock()
        self._read_interceptors: list[ReadInterceptor] = []
        #: The installed hooks :meth:`step_ms` still calls: the frame
        #: loop drops each one as it fires.
        self._live_interceptors: list[ReadInterceptor] = []
        #: Optional metrics registry timing checkpoint save/restore
        #: (set via :meth:`set_metrics`; ``None`` means no overhead).
        self._metrics = None
        # --- precomputed dispatch tables (hot loop) -------------------
        #: Per-slot dispatch: (name, module instance, inputs tuple,
        #: width mask per declared output) for each activation.
        contexts = {
            name: (
                name,
                module,
                module.spec.inputs,
                {
                    signal: (1 << system.signal(signal).width) - 1
                    for signal in module.spec.outputs
                },
            )
            for name, module in self._modules.items()
        }
        self._dispatch: tuple[tuple, ...] = tuple(
            tuple(contexts[name] for name in schedule.dispatch_order(slot))
            for slot in range(schedule.n_slots)
        )
        self._n_slots = schedule.n_slots
        #: Per-slot compiled dispatch, called on frames with no live
        #: read interceptor.
        self._dispatch_source, self._slot_calls = _compile_dispatch(
            self._dispatch, tuple(self._modules)
        )
        self._row_of = _row_getter(self._trace_signals)

    # ------------------------------------------------------------------
    # Hook registration
    # ------------------------------------------------------------------

    @property
    def store(self) -> SignalStore:
        """The live signal store (for inspection between runs)."""
        return self._store

    @property
    def system(self) -> SystemModel:
        return self._system

    @property
    def schedule(self) -> SlotSchedule:
        """The slot schedule driving module dispatch."""
        return self._schedule

    @property
    def environment(self) -> Environment:
        """The environment instance driving this run."""
        return self._environment

    @property
    def modules(self) -> Mapping[str, SoftwareModule]:
        """Module instances by name, in construction order."""
        return MappingProxyType(self._modules)

    @property
    def slot_signal(self) -> str | None:
        """The data-driven slot-selector signal, if configured."""
        return self._slot_signal

    @property
    def trace_signals(self) -> tuple[str, ...]:
        """Signals recorded into per-run traces, in trace order."""
        return self._trace_signals

    def dispatch_source(self) -> str:
        """The generated source of the compiled per-slot dispatch.

        One function per distinct slot dispatch order, preceded by a
        comment naming its slots.  In it, ``values`` is the signal
        store's value dict; ``m0``, ``m1``, ... are the module instances
        in construction order, and ``k0``, ``k1``, ... the output masks
        of the modules called through their ``activate`` mapping.
        """
        return self._dispatch_source

    def add_read_interceptor(self, interceptor: ReadInterceptor) -> None:
        """Install a consumer-scoped trap on module input reads."""
        self._read_interceptors.append(interceptor)
        self._live_interceptors.append(interceptor)

    def clear_hooks(self) -> None:
        """Remove all installed traps (between campaign runs)."""
        self._read_interceptors.clear()
        self._live_interceptors = []

    def set_metrics(self, registry) -> None:
        """Attach a metrics registry timing checkpoint save/restore.

        ``registry`` is any object with a ``timer(name)`` span context
        manager (see :class:`repro.obs.metrics.MetricsRegistry`);
        ``None`` detaches.  Durations land in the
        ``checkpoint.save.seconds`` / ``checkpoint.restore.seconds``
        histograms.
        """
        self._metrics = registry

    @property
    def hooks_installed(self) -> bool:
        """Whether any read interceptor is installed.

        Campaigns assert this is ``False`` before arming a trap, so a
        leaked hook from a previous run cannot contaminate the next.
        """
        return bool(self._read_interceptors)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Restore software, store, clock and environment to time zero."""
        self._clock.reset()
        self._store.reset()
        self._environment.reset()
        for module in self._modules.values():
            module.reset()

    def step_ms(self) -> None:
        """Execute one millisecond frame.

        With no live read interceptor the slot's compiled dispatch runs;
        otherwise the generic loop passes every input read through the
        interceptors.
        """
        clock = self._clock
        now_ms = clock._now_ms
        store = self._store
        values = store._values
        self._environment.before_software(now_ms, store)
        slot = (
            now_ms if self._slot_signal is None else values[self._slot_signal]
        ) % self._n_slots
        interceptors = self._live_interceptors
        if not interceptors:
            self._slot_calls[slot](values, now_ms)
        else:
            for name, module, input_names, masks in self._dispatch[slot]:
                inputs = {}
                for signal in input_names:
                    value = values[signal]
                    for interceptor in interceptors:
                        value = interceptor.on_read(name, signal, value, now_ms)
                    inputs[signal] = value
                for signal, value in module.activate(inputs, now_ms).items():
                    try:
                        values[signal] = value & masks[signal]
                    except KeyError:
                        raise _undeclared_output(name, signal) from None
        self._environment.after_software(now_ms, store)
        clock._now_ms = now_ms + 1

    def run(
        self,
        duration_ms: int,
        golden: GoldenRun | None = None,
        memo: StateMemo | None = None,
    ) -> RunResult:
        """Execute a complete run of ``duration_ms`` milliseconds.

        The runtime resets itself first, so each call is an independent
        experiment (one Golden Run or one injection run).  Given its
        case's Golden Run as ``golden``, the run may reconverge-fast-
        forward: once every installed trap has fired and the run's
        complete state provably re-matches the Golden Run at a frame
        boundary, the remaining frames are spliced from the Golden-Run
        traces instead of being simulated; with a ``memo`` it may also
        take the outcome of an earlier run whose state it matches (see
        :meth:`run_from` for the contract).
        """
        if duration_ms < 1:
            raise SimulationError(f"duration must be >= 1 ms, got {duration_ms}")
        self.reset()
        return self._execute_frames(0, duration_ms, golden, memo=memo)

    def run_with_checkpoints(
        self,
        duration_ms: int,
        checkpoint_times_ms: Sequence[int],
        frame_digests: bool = False,
        case_id: str = "",
    ) -> GoldenRun:
        """Record the Golden Run of test case ``case_id``.

        Like :meth:`run`, additionally capturing mid-run checkpoints.  A
        checkpoint requested for time ``t`` is captured *before* the
        frame of millisecond ``t`` executes, i.e. after exactly ``t``
        simulated milliseconds — the state a one-shot trap scheduled at
        ``t`` would find in a full run.  With ``frame_digests=True`` the
        Golden Run also carries one complete-state digest per frame, the
        verification track of reconvergence fast-forward.
        """
        if duration_ms < 1:
            raise SimulationError(f"duration must be >= 1 ms, got {duration_ms}")
        wanted = sorted(set(checkpoint_times_ms))
        if wanted and not 0 <= wanted[0] <= wanted[-1] < duration_ms:
            raise SimulationError(
                f"checkpoint times {wanted} must lie in [0, {duration_ms})"
            )
        self.reset()
        checkpoints: dict[int, RunCheckpoint] = {}
        digests: list[bytes] | None = [] if frame_digests else None
        result = self._execute_frames(
            0, duration_ms, checkpoints=(wanted, checkpoints), digests=digests
        )
        return GoldenRun(
            case_id=case_id,
            result=result,
            checkpoints=checkpoints,
            digests=None if digests is None else FrameDigests.join(digests),
        )

    def run_from(
        self,
        cp: RunCheckpoint,
        golden: GoldenRun,
        memo: StateMemo | None = None,
    ) -> RunResult:
        """Resume from ``cp`` and complete a run as long as ``golden``.

        ``cp`` must be a checkpoint of ``golden`` (one of its
        :attr:`~GoldenRun.checkpoints`).  Executes only the frames after
        ``cp.time_ms`` and stitches the Golden Run's first
        ``cp.time_ms`` samples onto the recorded suffix, so the returned
        :class:`RunResult` is byte-for-byte identical to a full
        :meth:`run` of the same experiment.

        With a Golden Run carrying frame digests, the suffix itself may
        be cut short by reconvergence fast-forward: each frame's
        traced-signal row is compared against the Golden Run's row at
        the same instant, and once the rows are equal after every
        installed trap has fired, the complete runtime state is digested
        and compared against the Golden Run's precomputed digest for
        that frame.  On a match the remaining frames are *spliced* from
        the Golden-Run traces — the result is still byte-for-byte
        identical to a full re-run, and
        :attr:`RunResult.reconverged_at_ms` records the instant the
        injected error's effect set became empty (its lifetime).

        A ``memo`` (the :class:`StateMemo` of the run's batch, used only
        with a Golden Run carrying digests) is the second reference:
        every :data:`_MEMO_FRAMES` frames of absolute time at which the
        row differs from the Golden Run's after every hook has fired,
        the complete state is digested and looked up in it.  On a hit
        the run stops and takes the earlier run's outcome: per signal
        its own first divergence if it has one, else the earlier run's
        next one, and that run's ``reconverged_at_ms``,
        ``frames_fast_forwarded``, final signals and telemetry — what
        stepping to the end would have recorded.  A run given a memo
        keeps no traces (``traces=None``): it copies no prefix, splices
        no suffix and carries :attr:`RunResult.first_divergence_ms`
        instead, computed over the frames it stepped.
        """
        duration_ms = golden.duration_ms
        if cp.time_ms >= duration_ms:
            raise SimulationError(
                f"checkpoint at {cp.time_ms} ms does not lie inside the "
                f"{duration_ms} ms Golden Run"
            )
        self.restore(cp)
        return self._execute_frames(cp.time_ms, duration_ms, golden, memo=memo)

    def _retire_fired_hooks(self) -> bool:
        """Stop calling hooks that have fired; whether any are still live."""
        self._live_interceptors = [
            hook for hook in self._read_interceptors
            if not getattr(hook, "fired", False)
        ]
        return bool(self._live_interceptors)

    def _execute_frames(
        self,
        start_ms: int,
        duration_ms: int,
        golden: GoldenRun | None = None,
        checkpoints: tuple[Sequence[int], dict[int, RunCheckpoint]] | None = None,
        digests: list[bytes] | None = None,
        memo: StateMemo | None = None,
    ) -> RunResult:
        """The one frame loop behind every run entry point.

        Simulates frames ``start_ms .. duration_ms-1`` after the first
        ``start_ms`` samples of every traced signal, copied from
        ``golden`` (a resume from one of its checkpoints), reading the
        traced signals as one row per frame and appending the rows to
        the traces in blocks.  Hooks are dropped from the step as they
        fire.  Four steps are optional:

        * ``checkpoints=(times, into)`` captures a checkpoint before
          each frame in ``times`` into the dict ``into``;
        * ``digests`` receives one complete-state digest per frame;
        * ``golden``, if it carries digests, enables reconvergence
          fast-forward.  A run whose row equals the Golden Run's at
          the same instant has an empty divergence set among the traced
          signals.  That is a cheap trigger, not the proof: it cannot
          see hidden module/plant state.  When the row is equal at a
          frame boundary and every hook has fired (so no pending
          injection can be skipped), the *complete* runtime state is
          digested and compared to the Golden Run's digest for that
          frame.  Only on a match are the remaining frames spliced
          from the Golden-Run traces; a mismatch backs off for
          ``_DIGEST_RETRY_FRAMES`` frames while the row stays equal.
        * ``memo``, with such a ``golden``, is fast-forward's second
          reference.  At frames ``now_ms % _MEMO_FRAMES == 0`` whose row
          differs from the Golden Run's after every hook has fired, the
          complete state is looked up in it; a hit ends the run with
          the earlier run's outcome, and a run that ends otherwise
          records its missed lookups for later runs.  Lookups happen
          only on row-diverged frames because there the back-off above
          cannot shape any later frame: the next row-equal frame is
          checked whatever ``next_check`` says, so two runs in equal
          states behave alike from then on.  The run keeps no traces
          and compares the frames it stepped (see :meth:`run_from`).
        """
        if golden is not None:
            if golden.duration_ms != duration_ms:
                raise SimulationError(
                    f"golden run covers {golden.duration_ms} ms, "
                    f"run lasts {duration_ms} ms"
                )
            if golden.signals != self._trace_signals:
                raise SimulationError(
                    "golden run traces different signals than this run: "
                    f"{golden.signals} vs {self._trace_signals}"
                )
        if golden is None or golden.digests is None:
            memo = None  # the memo is part of fast-forward
        copied = start_ms if memo is None else 0
        samples = [
            (signal, golden.prefix_array(signal, copied) if copied else array("q"))
            for signal in self._trace_signals
        ]
        if golden is not None and golden.digests is None:
            golden = None
        if golden is not None:
            gr_hashes = golden.row_hashes
            gr_row = golden.row
            gr_digests = golden.digests
            assert gr_digests is not None
        hooks_live = self._retire_fired_hooks()
        values = self._store._values
        row_of = self._row_of
        sinks = [sink for _, sink in samples]
        rows: list = []
        wanted, captured = checkpoints if checkpoints is not None else ((), {})
        pending = iter(wanted)
        next_cp = next(pending, None)
        # The starting state is the Golden Run's at start_ms, so the
        # previous frame's rows count as equal.
        equal = True
        next_check = 0
        lookup_every = _MEMO_FRAMES
        # Frames and state digests of the memo lookups that missed.
        marks: list[int] = []
        keys: list[bytes] = []
        step = self.step_ms
        for now_ms in range(start_ms, duration_ms):
            if now_ms == next_cp:
                captured[now_ms] = self.checkpoint()
                next_cp = next(pending, None)
            step()
            row = row_of(values)
            rows.append(row)
            if len(rows) == _FLUSH_ROWS:
                _flush_rows(sinks, rows)
            if digests is not None:
                digests.append(self._state_digest())
            if hooks_live:
                hooks_live = self._retire_fired_hooks()
            if golden is None:
                continue
            was_equal = equal
            equal = hash(row) == gr_hashes[now_ms] and row == gr_row(now_ms)
            if hooks_live:
                continue
            if not equal:
                if memo is None or now_ms % lookup_every:
                    continue
                digest = self._state_digest()
                entry = memo.lookup(digest)
                if entry is None:
                    marks.append(now_ms)
                    keys.append(digest)
                    continue
                _flush_rows(sinks, rows)
                return self._memo_result(
                    duration_ms, samples, golden, start_ms, now_ms, memo, *entry
                )
            if was_equal and now_ms < next_check:
                continue
            if self._state_digest() != gr_digests.at(now_ms):
                # Hidden (module/plant) state still differs; one
                # scheduling cycle may flush it through the signals.
                next_check = now_ms + _DIGEST_RETRY_FRAMES
                continue
            _flush_rows(sinks, rows)
            fast_forwarded = duration_ms - 1 - now_ms
            if memo is None:
                for signal, sink in samples:
                    sink.frombytes(golden.suffix_bytes(signal, now_ms + 1))
            self._clock.advance_ms(fast_forwarded)
            result = self._build_result(
                duration_ms, samples, golden, now_ms, fast_forwarded
            )
            break
        else:
            _flush_rows(sinks, rows)
            result = self._build_result(duration_ms, samples)
        if memo is None:
            return result
        assert golden is not None
        result.first_divergence_ms, following = _divergences(
            samples, golden, start_ms, marks
        )
        result.traces = None
        if keys:
            memo.donate(_Donor(following, len(samples), result), keys)
        return result

    def _memo_result(
        self,
        duration_ms: int,
        samples: list[tuple[str, array]],
        golden: GoldenRun,
        start_ms: int,
        now_ms: int,
        memo: StateMemo,
        donor: _Donor,
        mark: int,
    ) -> RunResult:
        """The result of a run whose state at ``now_ms`` is ``donor``'s
        state at its entry ``mark``: from then on it is that run."""
        first, _ = _divergences(samples, golden, start_ms, ())
        following = donor.following
        base = mark * donor.n_signals
        for k, (signal, at) in enumerate(first.items()):
            if at is None and following[base + k] >= 0:
                first[signal] = following[base + k]
        skipped = duration_ms - 1 - now_ms
        self._clock.advance_ms(skipped)
        memo.hits += 1
        memo.frames += skipped - donor.frames_fast_forwarded
        return RunResult(
            traces=None,
            duration_ms=duration_ms,
            final_signals=dict(donor.final_signals),
            telemetry=dict(donor.telemetry),
            reconverged_at_ms=donor.reconverged_at_ms,
            frames_fast_forwarded=donor.frames_fast_forwarded,
            first_divergence_ms=first,
        )

    def _state_digest(self) -> bytes:
        """Digest of the complete current runtime state (see snapshot)."""
        payload = (
            dict(self._store._values),
            self._clock.now_ms,
            digest_payload(self._environment),
            {
                name: digest_payload(module)
                for name, module in self._modules.items()
            },
        )
        return state_digest(payload)

    def _build_result(
        self,
        duration_ms: int,
        samples: list[tuple[str, array]],
        golden: GoldenRun | None = None,
        reconverged_at_ms: int | None = None,
        frames_fast_forwarded: int = 0,
    ) -> RunResult:
        if reconverged_at_ms is not None:
            assert golden is not None
            # The spliced run *is* the Golden Run from the reconvergence
            # instant on; report its final state, not the (older) store.
            final_signals = dict(golden.result.final_signals)
            telemetry = dict(golden.result.telemetry)
        else:
            final_signals = self._store.snapshot()
            telemetry = dict(self._environment.telemetry())
        return RunResult(
            traces=TraceSet(
                SignalTrace(signal, sink) for signal, sink in samples
            ),
            duration_ms=duration_ms,
            final_signals=final_signals,
            telemetry=telemetry,
            reconverged_at_ms=reconverged_at_ms,
            frames_fast_forwarded=frames_fast_forwarded,
        )

    # ------------------------------------------------------------------
    # Checkpoint/restore
    # ------------------------------------------------------------------

    def checkpoint(self) -> RunCheckpoint:
        """Capture the complete current state as a :class:`RunCheckpoint`.

        Covers store, clock, environment and every module (via their
        ``state_dict`` or the deepcopy fallback, see
        :mod:`repro.simulation.snapshot`).  Traces and installed hooks
        are not captured.
        """
        with self._timer("checkpoint.save.seconds"):
            return RunCheckpoint(
                time_ms=self._clock.now_ms,
                store=snapshot_state(self._store),
                clock=snapshot_state(self._clock),
                environment=snapshot_state(self._environment),
                modules={
                    name: snapshot_state(module)
                    for name, module in self._modules.items()
                },
            )

    def restore(self, cp: RunCheckpoint) -> None:
        """Load the state captured in ``cp`` (hooks are left untouched).

        The checkpoint itself stays pristine: the same checkpoint can be
        restored any number of times (once per injection run).
        """
        with self._timer("checkpoint.restore.seconds"):
            if set(cp.modules) != set(self._modules):
                raise SimulationError(
                    "checkpoint module set does not match this run: "
                    f"{sorted(cp.modules)} vs {sorted(self._modules)}"
                )
            restore_state(self._store, cp.store)
            restore_state(self._clock, cp.clock)
            restore_state(self._environment, cp.environment)
            for name, module in self._modules.items():
                restore_state(module, cp.modules[name])

    def _timer(self, name: str) -> Any:
        """The metrics registry's span ``name``, or a no-op without one."""
        return nullcontext() if self._metrics is None else self._metrics.timer(name)
