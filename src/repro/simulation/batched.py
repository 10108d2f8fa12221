"""Batched lane kernel: many injection runs stepped as numpy bitwise ops.

The reference runtime steps one injection run at a time through Python
dicts.  For bit-linear systems — the XOR-mask modules of
:mod:`repro.verify.generators` are the motivating family — every
activation is a handful of AND/XOR operations, so *n* injection runs of
the same case can share one frame loop: pack each run into a **lane**
of a ``(n_lanes, n_signals)`` int64 array and evaluate each module's
mask plan once per frame as vectorized column operations.

Correctness contract: results are **byte-identical** to the reference
backend — same traces, same final signals/telemetry, same per-lane
reconvergence instants.  The kernel achieves that by reproducing the
reference semantics exactly rather than approximating them:

* lanes of one batch share an injection instant and start from the same
  Golden-Run checkpoint; the per-lane bit-flip is one XOR applied to
  the value the target module *reads* at its first activation at or
  after the instant (consumer-scoped, like
  :class:`~repro.injection.traps.InputInjectionTrap`);
* module dispatch follows the slot schedule frame by frame; modules
  exposing a ``vector_plan()`` (stateless XOR-of-masked-inputs) step as
  column ops, any other module falls back to scalar per-lane stepping
  with checkpointed state, so mixed systems still batch everything
  else;
* the environment must be *lane-invariant* (its evolution cannot read
  the store): one shared instance is stepped per frame and its writes
  are broadcast to every lane;
* fast-forward retirement mirrors
  :meth:`~repro.simulation.runtime.SimulationRun._execute_frames`
  per lane — the traced-signal row compare against the Golden Run,
  the digest-retry backoff and the Golden-Run suffix splice all apply
  individually, so a retired lane reports the same
  ``reconverged_at_ms`` and trace bytes as its reference twin.

Whole cases that fail the preconditions (data-driven slot selector,
non-lane-invariant environment, missing Golden-Run reference) and
individual runs whose error model is not a pure XOR are executed
through the reference path, so the backend is safe to enable globally
(``REPRO_BACKEND=batched``).
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, Mapping

import numpy as np

from repro.model.errors import SimulationError
from repro.simulation.runtime import (
    _DIGEST_RETRY_FRAMES,
    GoldenReference,
    RunCheckpoint,
    RunResult,
    SimulationRun,
)
from repro.simulation.snapshot import (
    digest_payload,
    restore_state,
    snapshot_state,
    state_digest,
)
from repro.simulation.traces import SignalTrace, TraceSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.backend import CaseContext

__all__ = [
    "BatchedBackend",
    "pack_state_row",
    "unpack_state_row",
    "column_to_samples",
]

#: Soft cap on one sub-batch's trace history buffer.  Lanes beyond the
#: cap split into further sub-batches (identical semantics, bounded
#: peak memory).
_MAX_HISTORY_BYTES = 256 * 1024 * 1024

#: Sentinel frame for "this lane's trap never fires" (compares greater
#: than every valid frame index).
_NEVER = np.iinfo(np.int64).max


# ---------------------------------------------------------------------------
# Lane packing helpers (unit-tested round-trip)
# ---------------------------------------------------------------------------


def pack_state_row(
    values: Mapping[str, int], signals: tuple[str, ...]
) -> np.ndarray:
    """Pack a signal-value mapping into one int64 lane row."""
    return np.array([values[signal] for signal in signals], dtype=np.int64)


def unpack_state_row(
    row: np.ndarray, signals: tuple[str, ...]
) -> dict[str, int]:
    """Unpack one lane row back into a signal-value mapping."""
    return {signal: int(row[i]) for i, signal in enumerate(signals)}


def column_to_samples(column: np.ndarray) -> array:
    """Convert one per-frame sample column into an ``array('q')``.

    The byte layout matches the reference runtime's trace sinks
    (little-endian int64), so traces fold back byte-identically.
    """
    sink = array("q")
    sink.frombytes(np.ascontiguousarray(column, dtype="<i8").tobytes())
    return sink


def _flip_mask(model: Any, width: int) -> int | None:
    """The model's corruption as a pure XOR mask, or ``None``.

    Only models advertising ``vector_xor_mask`` (pure bit-flips) are
    vectorizable; everything else runs through the reference path.
    """
    probe = getattr(model, "vector_xor_mask", None)
    if not callable(probe):
        return None
    return probe(width)


class _EnvBroadcastStore:
    """Capture-only store handed to a lane-invariant environment.

    ``before_software`` writes land here (width-wrapped like
    :meth:`SignalStore.write`) and are broadcast to every lane.  Reads
    are forbidden: a lane-invariant environment must not depend on
    per-lane state.
    """

    __slots__ = ("_masks", "written")

    def __init__(self, masks: Mapping[str, int]) -> None:
        self._masks = masks
        self.written: dict[str, int] = {}

    def write(self, signal: str, value: int) -> None:
        mask = self._masks.get(signal)
        if mask is None:
            raise SimulationError(f"environment wrote unknown signal {signal!r}")
        self.written[signal] = value & mask

    def read(self, signal: str) -> int:
        raise SimulationError(
            "environment read the signal store during a batched step; "
            "lane-invariant environments must not depend on lane state"
        )


class _CasePlan:
    """Per-case vectorization analysis, shared by all time groups."""

    def __init__(self, runner: SimulationRun, golden_ref: GoldenReference):
        self.runner = runner
        self.golden_ref = golden_ref
        system = runner.system
        self.signals: tuple[str, ...] = runner.store.signals
        self.sig_idx = {signal: i for i, signal in enumerate(self.signals)}
        self.wmask = {
            signal: (1 << system.signal(signal).width) - 1
            for signal in self.signals
        }
        self.trace_signals = runner.trace_signals
        self.traced_idx = np.array(
            [self.sig_idx[s] for s in self.trace_signals], dtype=np.intp
        )
        schedule = runner.schedule
        self.n_slots = schedule.n_slots
        self.dispatch = tuple(
            tuple(schedule.dispatch_order(slot)) for slot in range(self.n_slots)
        )
        #: module name -> vector plan (for vectorizable modules).
        self.vector_plans: dict[str, tuple] = {}
        #: module name -> (instance, inputs, allowed outputs) for the
        #: scalar per-lane fallback.
        self.scalar_modules: dict[str, tuple] = {}
        for name, module in runner.modules.items():
            plan = getattr(module, "vector_plan", None)
            if callable(plan):
                self.vector_plans[name] = tuple(plan())
            else:
                spec = module.spec
                self.scalar_modules[name] = (
                    module,
                    spec.inputs,
                    frozenset(spec.outputs),
                )
        #: Signals-match implies digest-match: no hidden per-lane state
        #: (all modules stateless-vectorized) and the traced set covers
        #: the whole store, so the per-lane digest never needs computing.
        self.pure = not self.scalar_modules and set(self.trace_signals) == set(
            self.signals
        )
        #: Golden traces as a (duration, n_traced) matrix, trace order.
        self.golden_matrix = np.column_stack(
            [
                np.frombuffer(golden_ref.samples[s], dtype="<i8")
                for s in self.trace_signals
            ]
        )
        self._zero_checkpoint: RunCheckpoint | None = None

    def fired_frame(self, module: str, time_ms: int, duration_ms: int) -> int:
        """First frame >= ``time_ms`` at which ``module`` is dispatched.

        Mirrors the one-shot trap: it fires at the target module's
        first input read at or after the scheduled instant.  Returns
        the :data:`_NEVER` sentinel if the module never runs again.
        """
        for t in range(time_ms, min(time_ms + self.n_slots, duration_ms)):
            if module in self.dispatch[t % self.n_slots]:
                return t
        return _NEVER

    def zero_checkpoint(self) -> RunCheckpoint:
        """A synthetic frame-0 checkpoint (campaigns without prefix reuse)."""
        if self._zero_checkpoint is None:
            self.runner.reset()
            self._zero_checkpoint = self.runner.checkpoint()
        return self._zero_checkpoint


def _case_plan(context: "CaseContext") -> _CasePlan | None:
    """Analyse one case; ``None`` means the whole case must fall back."""
    runner = context.runner
    golden_ref = context.golden_ref
    if golden_ref is None:
        return None
    if runner.slot_signal is not None:
        # Data-driven slot selection couples scheduling to lane state.
        return None
    env = context.runner.environment
    if not getattr(env, "lane_invariant", False):
        return None
    if not callable(getattr(env, "lane_state_dict", None)) or not callable(
        getattr(env, "lane_telemetry", None)
    ):
        return None
    return _CasePlan(runner, golden_ref)


class BatchedBackend:
    """Vectorized lane execution with per-run reference fallback."""

    name = "batched"

    def case_injections(
        self, context: "CaseContext"
    ) -> Iterator[tuple[Any, RunResult]]:
        metrics = context.metrics
        plan = _case_plan(context)
        points = list(context.injection_points())
        if plan is None:
            if metrics is not None:
                metrics.counter("kernel.fallback.runs").inc(len(points))
            for point in points:
                yield context.run_reference(point)
            return

        # Group vectorizable points by injection instant; everything
        # else executes through the reference path at yield time.
        duration_ms = context.config.duration_ms
        groups: dict[int, list[tuple[int, Any, int]]] = {}
        for index, point in enumerate(points):
            width = plan.runner.system.signal(point.signal).width
            mask = _flip_mask(point.model, width)
            if mask is None:
                continue
            groups.setdefault(point.time_ms, []).append((index, point, mask))

        results: dict[int, tuple[RunResult, int | None]] = {}
        for time_ms, lanes in groups.items():
            for chunk in _lane_chunks(plan, lanes, duration_ms, time_ms):
                results.update(
                    _run_batch(context, plan, time_ms, chunk, duration_ms)
                )

        for index, point in enumerate(points):
            computed = results.get(index)
            if computed is None:
                if metrics is not None:
                    metrics.counter("kernel.fallback.runs").inc()
                yield context.run_reference(point)
            else:
                injected, fired_at_ms = computed
                yield context.emit_result(point, injected, fired_at_ms)


def _lane_chunks(
    plan: _CasePlan,
    lanes: list[tuple[int, Any, int]],
    duration_ms: int,
    time_ms: int,
) -> Iterator[list[tuple[int, Any, int]]]:
    """Split a time group so one history buffer stays under the cap."""
    n_frames = max(1, duration_ms - time_ms)
    bytes_per_lane = n_frames * len(plan.trace_signals) * 8
    cap = max(1, _MAX_HISTORY_BYTES // bytes_per_lane)
    for start in range(0, len(lanes), cap):
        yield lanes[start : start + cap]


def _run_batch(
    context: "CaseContext",
    plan: _CasePlan,
    time_ms: int,
    lanes: list[tuple[int, Any, int]],
    duration_ms: int,
) -> dict[int, tuple[RunResult, int | None]]:
    """Step one lane batch to completion; returns results by point index."""
    runner = plan.runner
    golden = plan.golden_ref
    metrics = context.metrics
    cp = lanes[0][1].checkpoint
    if cp is None:
        cp = plan.zero_checkpoint()
    start_ms = cp.time_ms
    n_lanes = len(lanes)
    n_frames = duration_ms - start_ms
    signals = plan.signals
    sig_idx = plan.sig_idx
    n_traced = len(plan.trace_signals)

    # --- lane state ---------------------------------------------------
    base_row = pack_state_row(cp.store["values"], signals)
    state = np.tile(base_row, (n_lanes, 1))
    hist = np.empty((n_frames, n_lanes, n_traced), dtype=np.int64)

    env = runner.environment
    restore_state(env, cp.environment)
    env_store = _EnvBroadcastStore(plan.wmask)

    scalar_states: dict[str, list] = {
        name: [cp.modules[name]] * n_lanes for name in plan.scalar_modules
    }
    if metrics is not None:
        metrics.gauge("kernel.lanes.active").set(n_lanes)
        if plan.scalar_modules:
            metrics.counter("kernel.scalar_fallback.modules").inc(
                len(plan.scalar_modules)
            )

    # --- per-lane injection plan -------------------------------------
    # One one-shot flip per lane: at the target module's first
    # activation at or after the instant, XOR the mask into the value
    # it reads (the stored signal itself is never corrupted).
    fired = np.empty(n_lanes, dtype=np.int64)
    inject_at: dict[int, dict[tuple[str, str], list[tuple[int, int]]]] = {}
    for lane, (_, point, mask) in enumerate(lanes):
        frame = plan.fired_frame(point.module, time_ms, duration_ms)
        fired[lane] = frame
        if frame != _NEVER:
            inject_at.setdefault(frame, {}).setdefault(
                (point.module, point.signal), []
            ).append((lane, mask))

    # --- fast-forward retirement state (mirrors _execute_frames) ---
    retire = golden.digests is not None
    golden_matrix = plan.golden_matrix
    alive = np.ones(n_lanes, dtype=bool)
    was_empty = np.ones(n_lanes, dtype=bool)
    next_check = np.zeros(n_lanes, dtype=np.int64)
    reconverged = np.full(n_lanes, -1, dtype=np.int64)

    dispatch = plan.dispatch
    vector_plans = plan.vector_plans
    scalar_modules = plan.scalar_modules
    wmask = plan.wmask
    lanes_retired = 0

    for t in range(start_ms, duration_ms):
        frame_started = perf_counter()
        env_store.written.clear()
        env.before_software(t, env_store)
        for signal, value in env_store.written.items():
            state[:, sig_idx[signal]] = value
        pending = inject_at.get(t)
        for name in dispatch[t % plan.n_slots]:
            vplan = vector_plans.get(name)
            if vplan is not None:
                cols = {}
                for _, terms in vplan:
                    for inp, _ in terms:
                        if inp not in cols:
                            cols[inp] = state[:, sig_idx[inp]].copy()
                if pending:
                    for (module, signal), hits in pending.items():
                        if module == name and signal in cols:
                            for lane, mask in hits:
                                cols[signal][lane] ^= mask
                for out, terms in vplan:
                    acc = np.zeros(n_lanes, dtype=np.int64)
                    for inp, mask in terms:
                        acc ^= cols[inp] & mask
                    state[:, sig_idx[out]] = acc & wmask[out]
            else:
                _step_scalar_module(
                    name,
                    scalar_modules[name],
                    scalar_states[name],
                    state,
                    sig_idx,
                    wmask,
                    alive,
                    pending,
                    t,
                )
        hist[t - start_ms] = state[:, plan.traced_idx]

        if retire:
            sig_eq = (state[:, plan.traced_idx] == golden_matrix[t]).all(axis=1)
            candidates = alive & sig_eq & (t >= fired)
            candidates &= ~(was_empty & (t < next_check))
            if candidates.any():
                for lane in np.nonzero(candidates)[0]:
                    if not plan.pure and not _lane_digest_matches(
                        plan, env, scalar_states, state, int(lane), t
                    ):
                        next_check[lane] = t + _DIGEST_RETRY_FRAMES
                        continue
                    alive[lane] = False
                    reconverged[lane] = t
                    lanes_retired += 1
            was_empty = sig_eq
        if metrics is not None:
            metrics.histogram("kernel.batch_step.seconds").observe(
                perf_counter() - frame_started
            )
        if not alive.any():
            break

    if metrics is not None and lanes_retired:
        metrics.counter("kernel.lanes.retired").inc(lanes_retired)
        metrics.gauge("kernel.lanes.active").set(int(alive.sum()))

    # --- fold lanes back into RunResults ------------------------------
    results: dict[int, tuple[RunResult, int | None]] = {}
    for lane, (index, point, _) in enumerate(lanes):
        fired_at = None if fired[lane] == _NEVER else int(fired[lane])
        reconverged_at = None if reconverged[lane] < 0 else int(reconverged[lane])
        last_frame = duration_ms - 1 if reconverged_at is None else reconverged_at
        recorded = last_frame - start_ms + 1
        traces = []
        for j, signal in enumerate(plan.trace_signals):
            sink = golden.prefix_array(signal, start_ms)
            sink.frombytes(
                np.ascontiguousarray(
                    hist[:recorded, lane, j], dtype="<i8"
                ).tobytes()
            )
            if reconverged_at is not None:
                sink.frombytes(golden.suffix_bytes(signal, reconverged_at + 1))
            traces.append(SignalTrace(signal, sink))
        if reconverged_at is not None:
            final_signals = dict(golden.final_signals)
            telemetry = dict(golden.telemetry)
            fast_forwarded = duration_ms - 1 - reconverged_at
        else:
            final_signals = unpack_state_row(state[lane], signals)
            telemetry = dict(runner.environment.lane_telemetry(final_signals))
            fast_forwarded = 0
        results[index] = (
            RunResult(
                traces=TraceSet(traces),
                duration_ms=duration_ms,
                final_signals=final_signals,
                telemetry=telemetry,
                reconverged_at_ms=reconverged_at,
                frames_fast_forwarded=fast_forwarded,
            ),
            fired_at,
        )
    return results


def _step_scalar_module(
    name: str,
    entry: tuple,
    lane_states: list,
    state: np.ndarray,
    sig_idx: Mapping[str, int],
    wmask: Mapping[str, int],
    alive: np.ndarray,
    pending: dict | None,
    t: int,
) -> None:
    """Per-lane fallback activation of one non-vectorizable module."""
    module, input_names, allowed_outputs = entry
    for lane in range(len(lane_states)):
        if not alive[lane]:
            continue
        restore_state(module, lane_states[lane])
        inputs = {
            signal: int(state[lane, sig_idx[signal]]) for signal in input_names
        }
        if pending:
            for (target, signal), hits in pending.items():
                if target == name and signal in inputs:
                    for hit_lane, mask in hits:
                        if hit_lane == lane:
                            inputs[signal] ^= mask
        outputs = module.activate(inputs, t)
        for signal, value in outputs.items():
            if signal not in allowed_outputs:
                raise SimulationError(
                    f"module {name!r} wrote undeclared output {signal!r}"
                )
            state[lane, sig_idx[signal]] = value & wmask[signal]
        lane_states[lane] = snapshot_state(module)


def _lane_digest_matches(
    plan: _CasePlan,
    env: Any,
    scalar_states: Mapping[str, list],
    state: np.ndarray,
    lane: int,
    t: int,
) -> bool:
    """Full-state digest check of one lane against the Golden Run.

    Reconstructs exactly the payload of
    :meth:`SimulationRun._state_digest`: store values (store order),
    the clock *after* the frame, the environment's per-lane state and
    every module's state (construction order).
    """
    values = unpack_state_row(state[lane], plan.signals)
    module_payloads = {}
    for name, module in plan.runner.modules.items():
        if name in scalar_states:
            restore_state(module, scalar_states[name][lane])
        module_payloads[name] = digest_payload(module)
    payload = (
        values,
        t + 1,
        env.lane_state_dict(values),
        module_payloads,
    )
    digests = plan.golden_ref.digests
    assert digests is not None
    return state_digest(payload) == digests.at(t)
