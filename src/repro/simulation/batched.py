"""Batched lane kernel: many injection runs stepped as numpy bitwise ops.

The reference runtime steps one injection run at a time through Python
dicts.  For bit-linear systems — the XOR-mask modules of
:mod:`repro.verify.generators` are the motivating family — every
activation is a handful of AND/XOR operations, so *n* injection runs of
the same case can share one frame loop: pack each run into a **lane**
of a signal-major ``(n_signals, n_lanes)`` int64 array (one contiguous
row per signal) and evaluate each frame's software as mask-matrix
sweeps over those rows.

**Mask maps.**  A module exposing ``vector_plan()`` becomes a map: the
rows it writes, the rows it reads and a ``(n_written, n_read)`` mask
matrix, so that ``state[o] = XOR_j (state[j] & masks[o, j])`` with the
output's width mask folded into every term.  Bitwise AND distributes over XOR
(``(x & a) ^ (x & b) == x & (a ^ b)``), so maps compose exactly: each
slot whose modules are all vectorizable gets one *composed* map over
the pre-slot state, built by applying its module maps in dispatch
order to the identity.  :func:`_apply` evaluates every map.

**One batch per case.**  Every vectorizable run of a case joins one
lane group, sorted by injection instant; the group is cut into
sub-batches whose frame memory fits :data:`_MAX_HISTORY_BYTES`.  A
sub-batch resumes from the Golden-Run checkpoint of its earliest lane
(frame 0 without prefix reuse).  A lane whose instant comes later
follows the Golden Run exactly until its own trap fires, so the frames
before each instant are stepped once for all lanes instead of once per
instant.  Once every lane that has fired has retired, the live lanes
are all in the Golden Run again, so the sub-batch resumes at the next
live lane's checkpoint and takes the frames it skips from the Golden
Run: where errors die out, no frame between two instants is stepped.
A case with a scalar-fallback module keeps one group per instant, so
those modules never step dormant lanes in Python.

Correctness contract: results are **byte-identical** to the reference
backend — same first divergences, same traces (when kept), same final
signals/telemetry, same per-lane reconvergence instants.  The kernel
achieves that by reproducing the reference semantics exactly rather
than approximating them:

* every lane starts from a Golden-Run checkpoint at or before its
  instant; the per-lane bit-flip is one XOR applied to the value the
  target module *reads* at its first activation at or after the
  lane's own instant (consumer-scoped, like
  :class:`~repro.injection.traps.InputInjectionTrap`);
* a frame with no pending injection runs its slot's composed map: one
  sweep.  A frame where an injection fires, or whose slot holds a
  module without a ``vector_plan()``, steps the slot's modules one at
  a time in dispatch order: vectorizable modules through their own map
  (the flip is XORed into the read row and undone afterwards, unless
  the module writes that signal itself), any other module through
  scalar per-lane stepping with checkpointed state, so mixed systems
  still batch everything else;
* the environment must be *lane-invariant* (its evolution cannot read
  the store): one shared instance is stepped per frame and its writes
  are broadcast to every lane;
* the Golden Run Comparison of every lane runs in the kernel: each
  frame's traced rows are gathered into a small
  ``(_BLOCK_FRAMES, n_traced, n_lanes)`` block, which the retirement
  compare reads too, and every :data:`_BLOCK_FRAMES` frames the block
  is compared with the Golden Run's samples, setting each lane's first
  divergence per signal once (``RunResult.first_divergence_ms``).
  Frames taken from the Golden Run (before the start, skipped between
  instants, spliced after retirement) never diverge;
* traces exist only for a campaign inspector
  (``CaseContext.keep_traces``).  Then they are recorded straight into
  the results' memory: one ``(n_lanes, n_traced, duration_ms)`` buffer
  per sub-batch whose frames before the start are the Golden Run's,
  written from the block with one transposed assignment per flush.
  Each result's trace is a read-only ``'q'`` memoryview of its lane's
  row, with no per-lane copy.  Without an inspector there is no
  buffer and ``RunResult.traces`` is ``None``;
* fast-forward retirement mirrors
  :meth:`~repro.simulation.runtime.SimulationRun._execute_frames`
  per lane — the traced-signal row compare against the Golden Run,
  the digest-retry backoff and the Golden-Run suffix splice (one slice
  assignment into the lane's row) all apply individually, so a
  retired lane reports the same ``reconverged_at_ms`` and trace bytes
  as its reference twin.

Whole cases that fail the preconditions (data-driven slot selector,
non-lane-invariant environment) and
individual runs whose error model is not a pure XOR are executed
through the reference path, so the backend is safe to enable globally
(``REPRO_BACKEND=batched``).
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, Mapping, NamedTuple

import numpy as np

from repro.model.errors import SimulationError
from repro.simulation.runtime import (
    _DIGEST_RETRY_FRAMES,
    GoldenRun,
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
]

#: Soft cap on one sub-batch's frame memory: lanes x traced signals x
#: frames x 8 bytes, where a lane holds ``duration_ms`` frames when its
#: traces are kept and :data:`_BLOCK_FRAMES` otherwise.  Lanes beyond
#: the cap split into further sub-batches (identical semantics, bounded
#: peak memory).
_MAX_HISTORY_BYTES = 256 * 1024 * 1024

#: Frames gathered into the per-frame block before it is compared with
#: the Golden Run (and written into a kept trace buffer).
_BLOCK_FRAMES = 256

#: Sentinel frame for "never": a lane's trap that never fires, a signal
#: that never diverges (compares greater than every valid frame index).
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


class _Map(NamedTuple):
    """A mask map: ``state[written[o]] = XOR_j (state[read[j]] & masks[o, j])``.

    ``read`` lists only the rows some mask actually selects, so the
    sweep's temporary stays proportional to the map's fan-in.
    """

    written: np.ndarray
    read: np.ndarray
    masks: np.ndarray


def _mask_map(rows: Mapping[int, np.ndarray], n_signals: int) -> _Map:
    """Build a :class:`_Map` from ``{written row: full-width mask row}``."""
    written = np.array(sorted(rows), dtype=np.intp)
    masks = np.array(
        [rows[row] for row in written.tolist()], dtype=np.int64
    ).reshape(len(written), n_signals)
    read = np.flatnonzero(masks.any(axis=0))
    return _Map(written, read, masks[:, read])


def _apply(map_: _Map, state: np.ndarray) -> None:
    """Evaluate ``map_`` in place on a signal-major ``state``.

    Every written row is computed from ``state`` as it was before the
    call (the reduce completes before the assignment), which is what a
    module reading its own output sees.  ``state`` may be lane state
    ``(n_signals, n_lanes)`` or, when composing, an expression matrix
    ``(n_signals, n_signals)``.
    """
    state[map_.written] = np.bitwise_xor.reduce(
        map_.masks[:, :, None] & state[map_.read][None], axis=1
    )


class _CasePlan:
    """Per-case vectorization analysis, shared by all lane batches."""

    def __init__(self, runner: SimulationRun, golden: GoldenRun):
        self.runner = runner
        self.golden = golden
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
        #: module name -> mask map (for vectorizable modules).
        self.module_maps: dict[str, _Map] = {}
        #: module name -> (instance, inputs, allowed outputs) for the
        #: scalar per-lane fallback.
        self.scalar_modules: dict[str, tuple] = {}
        for name, module in runner.modules.items():
            plan = getattr(module, "vector_plan", None)
            if callable(plan):
                self.module_maps[name] = self._module_map(plan())
            else:
                spec = module.spec
                self.scalar_modules[name] = (
                    module,
                    spec.inputs,
                    frozenset(spec.outputs),
                )
        #: slot -> the slot's composed map, or ``None`` when a module of
        #: the slot steps scalar (then every frame is per-module).
        self.slot_maps = tuple(self._slot_map(order) for order in self.dispatch)
        #: Signals-match implies digest-match: no hidden per-lane state
        #: (all modules stateless-vectorized) and the traced set covers
        #: the whole store, so the per-lane digest never needs computing.
        self.pure = not self.scalar_modules and set(self.trace_signals) == set(
            self.signals
        )
        #: Golden traces as ``(n_traced, duration)``, trace order: the
        #: source of every trace buffer's prefix and retired suffixes.
        self.golden_traces = np.stack(
            [
                np.frombuffer(golden.traces[s].samples, dtype="<i8")
                for s in self.trace_signals
            ]
        )
        #: The same samples as a ``(duration, n_traced, 1)`` view,
        #: broadcastable against one frame's traced rows.
        self.golden_matrix = self.golden_traces.T[:, :, None]
        self._zero_checkpoint: RunCheckpoint | None = None

    def _module_map(self, vector_plan: Any) -> _Map:
        """One module's ``(out, ((in, mask), ...))`` plan as a mask map.

        Repeated inputs XOR their masks together and a repeated output
        keeps its last entry, as the plan's sequential evaluation does.
        """
        rows: dict[int, np.ndarray] = {}
        for out, terms in vector_plan:
            width = self.wmask[out]
            row = np.zeros(len(self.signals), dtype=np.int64)
            for inp, mask in terms:
                row[self.sig_idx[inp]] ^= mask & width
            rows[self.sig_idx[out]] = row
        return _mask_map(rows, len(self.signals))

    def _slot_map(self, order: tuple[str, ...]) -> _Map | None:
        """The slot's module maps composed in dispatch order, or ``None``.

        Row ``i`` of the expression matrix is signal ``i`` as a map over
        the pre-slot state; it starts as the identity (all bits of the
        signal itself) and each module map is applied to it exactly as
        to lane state.
        """
        if any(name not in self.module_maps for name in order):
            return None
        n_signals = len(self.signals)
        expression = np.diag(np.full(n_signals, -1, dtype=np.int64))
        written: set[int] = set()
        for name in order:
            module_map = self.module_maps[name]
            _apply(module_map, expression)
            written.update(module_map.written.tolist())
        return _mask_map({row: expression[row] for row in written}, n_signals)

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

    def start_checkpoint(self, point: Any) -> RunCheckpoint:
        """The checkpoint a batch of ``point``'s instant resumes from.

        The Golden Run's checkpoint at the point's instant, or a
        synthetic frame-0 checkpoint for campaigns without prefix reuse.
        """
        checkpoint = self.golden.checkpoints.get(point.time_ms)
        if checkpoint is not None:
            return checkpoint
        if self._zero_checkpoint is None:
            self.runner.reset()
            self._zero_checkpoint = self.runner.checkpoint()
        return self._zero_checkpoint


def _case_plan(context: "CaseContext") -> _CasePlan | None:
    """Analyse one case; ``None`` means the whole case must fall back."""
    runner = context.runner
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
    return _CasePlan(runner, context.golden)


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

        # Every vectorizable point of the case joins one lane group,
        # sorted by instant; everything else executes through the
        # reference path at yield time.  Scalar-fallback modules step
        # each lane in Python, so a plan with any keeps one group per
        # instant rather than stepping lanes that have not fired yet.
        duration_ms = context.config.duration_ms
        per_instant = bool(plan.scalar_modules)
        groups: dict[int, list[tuple[int, Any, int]]] = {}
        for index, point in enumerate(points):
            width = plan.runner.system.signal(point.signal).width
            mask = _flip_mask(point.model, width)
            if mask is None:
                continue
            key = point.time_ms if per_instant else 0
            groups.setdefault(key, []).append((index, point, mask))

        results: dict[int, tuple[RunResult, int | None]] = {}
        for lanes in groups.values():
            lanes.sort(key=lambda lane: lane[1].time_ms)
            for chunk in _lane_chunks(
                plan, lanes, duration_ms, context.keep_traces
            ):
                results.update(_run_batch(context, plan, chunk, duration_ms))

        for index, point in enumerate(points):
            computed = results.get(index)
            if computed is None:
                if metrics is not None:
                    metrics.counter("kernel.fallback.runs").inc()
                yield context.run_reference(point)
            else:
                injected, fired_at_ms = computed
                yield context.record_result(point, injected, fired_at_ms)


def _lane_chunks(
    plan: _CasePlan,
    lanes: list[tuple[int, Any, int]],
    duration_ms: int,
    keep_traces: bool,
) -> Iterator[list[tuple[int, Any, int]]]:
    """Split a lane group so one sub-batch's frame memory stays under the cap.

    With traces kept, a lane's trace buffer row holds every frame from
    0, whatever checkpoint the sub-batch starts from; without, a lane
    holds only its :data:`_BLOCK_FRAMES` frames of the block.
    """
    frames = duration_ms if keep_traces else _BLOCK_FRAMES
    bytes_per_lane = max(1, frames * len(plan.trace_signals) * 8)
    cap = max(1, _MAX_HISTORY_BYTES // bytes_per_lane)
    for start in range(0, len(lanes), cap):
        yield lanes[start : start + cap]


def _run_batch(
    context: "CaseContext",
    plan: _CasePlan,
    lanes: list[tuple[int, Any, int]],
    duration_ms: int,
) -> dict[int, tuple[RunResult, int | None]]:
    """Step one lane batch to completion; returns results by point index.

    ``lanes`` is sorted by instant; the batch resumes from the first
    lane's checkpoint.  Each result carries its lane's first divergence
    per traced signal, and its traces only when ``context.keep_traces``.
    """
    runner = plan.runner
    golden = plan.golden
    metrics = context.metrics
    cp = plan.start_checkpoint(lanes[0][1])
    start_ms = cp.time_ms
    n_lanes = len(lanes)
    signals = plan.signals
    sig_idx = plan.sig_idx
    n_traced = len(plan.trace_signals)
    golden_traces = plan.golden_traces

    # --- lane state (signal-major: one contiguous row per signal) -----
    base_row = pack_state_row(cp.store["values"], signals)
    state = np.repeat(base_row[:, None], n_lanes, axis=1)
    # The block each frame's traced rows are gathered into, the lanes'
    # first divergences from the Golden Run per traced signal (frames
    # before the start are the Golden Run's, so none lies there) and,
    # for an inspector, the results' trace memory ('q': memoryviews of
    # it are 'q' too) with the Golden Run's prefix.
    block = np.empty((_BLOCK_FRAMES, n_traced, n_lanes), dtype=np.int64)
    first_div = np.full((n_traced, n_lanes), _NEVER, dtype=np.int64)
    traces = None
    if context.keep_traces:
        traces = np.empty((n_lanes, n_traced, duration_ms), dtype="q")
        traces[:, :, :start_ms] = golden_traces[:, :start_ms]

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
    # activation at or after the lane's instant, XOR the mask into the
    # value it reads (the stored signal itself is never corrupted).
    # frame -> module -> signal -> (lanes, masks).
    fired = np.empty(n_lanes, dtype=np.int64)
    inject_at: dict[int, dict[str, dict[str, Any]]] = {}
    for lane, (_, point, mask) in enumerate(lanes):
        frame = plan.fired_frame(point.module, point.time_ms, duration_ms)
        fired[lane] = frame
        if frame != _NEVER:
            inject_at.setdefault(frame, {}).setdefault(
                point.module, {}
            ).setdefault(point.signal, []).append((lane, mask))
    for by_module in inject_at.values():
        for by_signal in by_module.values():
            for signal, pairs in by_signal.items():
                hit_lanes, masks = zip(*pairs)
                by_signal[signal] = (
                    np.array(hit_lanes, dtype=np.intp),
                    np.array(masks, dtype=np.int64),
                )

    # --- fast-forward retirement state (mirrors _execute_frames) ---
    # A lane before its instant equals the Golden Run, so it enters its
    # instant with the state a reference run starts with.
    retire = golden.digests is not None
    golden_matrix = plan.golden_matrix
    alive = np.ones(n_lanes, dtype=bool)
    was_empty = np.ones(n_lanes, dtype=bool)
    next_check = np.zeros(n_lanes, dtype=np.int64)
    reconverged = np.full(n_lanes, -1, dtype=np.int64)

    dispatch = plan.dispatch
    slot_maps = plan.slot_maps
    module_maps = plan.module_maps
    scalar_modules = plan.scalar_modules
    traced_idx = plan.traced_idx
    wmask = plan.wmask
    lanes_retired = 0
    # Frames [0, recorded) are compared (and in ``traces``); the block
    # holds the rest.
    recorded = start_ms
    t = start_ms

    while t < duration_ms:
        frame_started = perf_counter()
        env_store.written.clear()
        env.before_software(t, env_store)
        for signal, value in env_store.written.items():
            state[sig_idx[signal]] = value
        slot = t % plan.n_slots
        pending = inject_at.get(t)
        slot_map = slot_maps[slot]
        if slot_map is not None and pending is None:
            _apply(slot_map, state)
        else:
            for name in dispatch[slot]:
                flips = pending.get(name, {}) if pending else {}
                module_map = module_maps.get(name)
                if module_map is not None:
                    _step_vector_module(module_map, state, sig_idx, flips)
                else:
                    _step_scalar_module(
                        name,
                        scalar_modules[name],
                        scalar_states[name],
                        state,
                        sig_idx,
                        wmask,
                        alive,
                        flips,
                        t,
                    )
        rows = block[t - recorded]
        state.take(traced_idx, axis=0, out=rows, mode="clip")

        retired_before = lanes_retired
        if retire:
            sig_eq = np.logical_and.reduce(rows == golden_matrix[t], axis=0)
            candidates = alive & sig_eq
            if np.count_nonzero(candidates):
                candidates &= t >= fired
                candidates &= ~(was_empty & (t < next_check))
                for lane in np.flatnonzero(candidates).tolist():
                    if not plan.pure and not _lane_digest_matches(
                        plan, env, scalar_states, state, lane, t
                    ):
                        next_check[lane] = t + _DIGEST_RETRY_FRAMES
                        continue
                    alive[lane] = False
                    reconverged[lane] = t
                    lanes_retired += 1
            was_empty = sig_eq
        t += 1
        if t - recorded == _BLOCK_FRAMES:
            _flush_block(block, recorded, t, golden_traces, first_div, traces)
            recorded = t
        if metrics is not None:
            metrics.histogram("kernel.batch_step.seconds").observe(
                perf_counter() - frame_started
            )
        if lanes_retired == n_lanes:
            break
        if lanes_retired == retired_before or np.any(alive & (fired < t)):
            continue
        # Every lane that has fired has retired, so every live lane is
        # still in the Golden Run: resume from the next live lane's
        # checkpoint instead of stepping the frames up to it.  Batches
        # with scalar-fallback modules hold one instant, so they never
        # get here and their per-lane module states need no reseed.
        cp = plan.start_checkpoint(lanes[int(np.argmax(alive))][1])
        if cp.time_ms <= t:
            continue
        _flush_block(block, recorded, t, golden_traces, first_div, traces)
        if traces is not None:
            traces[:, :, t : cp.time_ms] = golden_traces[:, t : cp.time_ms]
        t = recorded = cp.time_ms
        state[:] = pack_state_row(cp.store["values"], signals)[:, None]
        restore_state(env, cp.environment)
    _flush_block(block, recorded, t, golden_traces, first_div, traces)

    if metrics is not None and lanes_retired:
        metrics.counter("kernel.lanes.retired").inc(lanes_retired)
        metrics.gauge("kernel.lanes.active").set(int(alive.sum()))

    # A retired lane's rows are the Golden Run's from its reconvergence
    # on, so any later divergence comes from rows scalar-fallback
    # modules stopped updating: drop it.
    first_div[first_div > np.where(alive, _NEVER, reconverged)] = _NEVER
    divergences = first_div.T.tolist()

    # --- splice Golden suffixes, hand out views of the lane rows ------
    if traces is not None:
        for lane in np.flatnonzero(~alive).tolist():
            after = int(reconverged[lane]) + 1
            traces[lane, :, after:] = golden_traces[:, after:]
        traces.flags.writeable = False

    results: dict[int, tuple[RunResult, int | None]] = {}
    for lane, (index, _, _) in enumerate(lanes):
        fired_at = None if fired[lane] == _NEVER else int(fired[lane])
        reconverged_at = None if reconverged[lane] < 0 else int(reconverged[lane])
        trace_set = None
        if traces is not None:
            trace_set = TraceSet(
                SignalTrace(signal, memoryview(traces[lane, j]))
                for j, signal in enumerate(plan.trace_signals)
            )
        first_divergence_ms = {
            signal: None if frame == _NEVER else frame
            for signal, frame in zip(
                plan.trace_signals, divergences[lane], strict=True
            )
        }
        if reconverged_at is not None:
            final_signals = dict(golden.result.final_signals)
            telemetry = dict(golden.result.telemetry)
            fast_forwarded = duration_ms - 1 - reconverged_at
        else:
            final_signals = unpack_state_row(state[:, lane], signals)
            telemetry = dict(runner.environment.lane_telemetry(final_signals))
            fast_forwarded = 0
        results[index] = (
            RunResult(
                traces=trace_set,
                duration_ms=duration_ms,
                final_signals=final_signals,
                telemetry=telemetry,
                reconverged_at_ms=reconverged_at,
                frames_fast_forwarded=fast_forwarded,
                first_divergence_ms=first_divergence_ms,
            ),
            fired_at,
        )
    return results


def _flush_block(
    block: np.ndarray,
    start: int,
    end: int,
    golden_traces: np.ndarray,
    first_div: np.ndarray,
    traces: np.ndarray | None,
) -> None:
    """Fold the block's frames ``[start, end)`` into the lanes' GRC.

    Sets each lane's first divergence per traced signal once, at the
    first frame whose sample differs from the Golden Run's, and writes
    the frames into ``traces`` when the batch keeps them.
    """
    frames = block[: end - start]
    differs = frames != golden_traces[:, start:end].T[:, :, None]
    new = differs.any(axis=0) & (first_div == _NEVER)
    if new.any():
        first_div[new] = start + differs[:, new].argmax(axis=0)
    if traces is not None:
        traces[:, :, start:end] = frames.transpose(2, 1, 0)


def _step_vector_module(
    module_map: _Map,
    state: np.ndarray,
    sig_idx: Mapping[str, int],
    flips: Mapping[str, tuple[np.ndarray, np.ndarray]],
) -> None:
    """One vectorizable module's activation, with this frame's flips.

    Each flip is XORed into the row the module reads and undone after
    the sweep, unless the module overwrote that row itself: only the
    consumer sees the corrupted value.
    """
    for signal, (lanes, masks) in flips.items():
        state[sig_idx[signal], lanes] ^= masks
    _apply(module_map, state)
    for signal, (lanes, masks) in flips.items():
        row = sig_idx[signal]
        if row not in module_map.written:
            state[row, lanes] ^= masks


def _step_scalar_module(
    name: str,
    entry: tuple,
    lane_states: list,
    state: np.ndarray,
    sig_idx: Mapping[str, int],
    wmask: Mapping[str, int],
    alive: np.ndarray,
    flips: Mapping[str, tuple[np.ndarray, np.ndarray]],
    t: int,
) -> None:
    """Per-lane fallback activation of one non-vectorizable module."""
    module, input_names, allowed_outputs = entry
    for lane in range(len(lane_states)):
        if not alive[lane]:
            continue
        restore_state(module, lane_states[lane])
        inputs = {
            signal: int(state[sig_idx[signal], lane]) for signal in input_names
        }
        for signal, (hit_lanes, masks) in flips.items():
            if signal in inputs:
                for hit_lane, mask in zip(
                    hit_lanes.tolist(), masks.tolist(), strict=True
                ):
                    if hit_lane == lane:
                        inputs[signal] ^= mask
        outputs = module.activate(inputs, t)
        for signal, value in outputs.items():
            if signal not in allowed_outputs:
                raise SimulationError(
                    f"module {name!r} wrote undeclared output {signal!r}"
                )
            state[sig_idx[signal], lane] = value & wmask[signal]
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
    values = unpack_state_row(state[:, lane], plan.signals)
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
    digests = plan.golden.digests
    assert digests is not None
    return state_digest(payload) == digests.at(t)
