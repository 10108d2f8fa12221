"""Injection-campaign orchestration (Sections 6 and 7.3).

An :class:`InjectionCampaign` reproduces the paper's experimental
procedure:

1. for every test case (workload), record one Golden Run;
2. for every targeted module input, every injection time and every
   error model, execute one injection run with a single one-shot trap
   ("for each injection run (IR) only one error was injected at one
   time, i.e., no multiple errors were injected");
3. compare every IR against its test case's GR (Golden Run Comparison)
   and record an :class:`~repro.injection.outcomes.InjectionOutcome`.

The runtime object produced by the ``run_factory`` is reused across the
runs of one test case (``SimulationRun.run`` resets software, store,
clock and environment), so factories are invoked once per test case.

Golden-Run prefix reuse
-----------------------
Every IR is bit-identical to its Golden Run up to the injection instant
(the single one-shot trap is inert before its scheduled time, and
everything executes in simulated time).  By default the campaign
therefore records a :class:`~repro.simulation.runtime.RunCheckpoint` at
each configured injection time while the Golden Run executes, and every
IR resumes from the matching checkpoint via
:meth:`SimulationRun.run_from` — only the suffix after the injection
instant is simulated, and the Golden-Run trace prefix is stitched onto
the suffix traces.  Results are byte-for-byte identical to full
re-runs; with the paper's default grid (injection times 500–5000 ms
over an 8 s run) roughly a third of all simulated milliseconds are
skipped.  Set :attr:`CampaignConfig.reuse_golden_prefix` to ``False``
for the naive re-run-everything behaviour.

Reconvergence fast-forward
--------------------------
Prefix reuse skips the simulated milliseconds *before* each injection;
reconvergence fast-forward skips them *after* the injected error has
died out.  The paper's own data says this is the common case: most
:math:`P^M_{i,k}` pairs have low permeability, so most injected errors
are masked quickly and the IR then tracks the Golden Run
sample-for-sample.  With :attr:`CampaignConfig.fast_forward` enabled
(the default), the Golden Run additionally records one complete-state
digest per frame, and each IR compares its traced-signal row with the
Golden Run's once per frame; once the rows are equal (and the trap has
fired), a digest match proves complete reconvergence and
the rest of the run is spliced from the Golden-Run traces — still
byte-for-byte identical to a full re-run (see
:meth:`repro.simulation.runtime.SimulationRun.run_from`).  The
reconvergence instant is recorded on each outcome as the paper's
error-lifetime measurement (:mod:`repro.injection.latency`).

Zero-copy golden-run sharing
----------------------------
:meth:`InjectionCampaign.execute_parallel` packs each Golden Run's
trace set into one flat ``array('q')`` published through
``multiprocessing.shared_memory`` and ships system/config/checkpoints
once per *worker* (pool initializer) instead of once per chunk;
checkpoints travel without their trace prefixes (reconstructed from
the shared Golden Run), and workers keep their runtime and Golden-Run
views cached across chunks.
"""

from __future__ import annotations

import itertools
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence, TypeVar

from repro.injection.error_models import ErrorModel, bit_flip_models
from repro.injection.golden_run import GoldenRun, compare_to_golden_run
from repro.injection.outcomes import AdaptiveRow, CampaignResult, InjectionOutcome
from repro.injection.selection import paper_times
from repro.injection.traps import InputInjectionTrap
from repro.model.errors import CampaignError
from repro.model.system import SystemModel
from repro.simulation.backend import available_backends, get_backend
from repro.simulation.runtime import (
    GoldenReference,
    RunCheckpoint,
    RunResult,
    SimulationRun,
)
from repro.simulation.traces import (
    SignalTrace,
    TraceSet,
    pack_trace_samples,
    trace_views,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import CampaignObserver

__all__ = ["CampaignConfig", "InjectionCampaign"]

CaseT = TypeVar("CaseT")

#: Callback reporting campaign progress: (completed runs, total runs).
ProgressCallback = Callable[[int, int], None]

#: Callback seeing each injection run with its full traces (see
#: :meth:`InjectionCampaign.execute`).
InspectorCallback = Callable[[InjectionOutcome, RunResult, GoldenRun], None]


@dataclass(frozen=True)
class CampaignConfig:
    """Static configuration of one injection campaign.

    Parameters
    ----------
    duration_ms:
        Length of every run (GR and IR).  Must exceed the largest
        injection time.
    injection_times_ms:
        The injection instants; defaults to the paper's ten half-second
        steps from 0.5 s to 5.0 s.
    error_models:
        The corruption models; defaults to the paper's 16 single
        bit-flips.
    targets:
        The (module, input signal) pairs to inject; ``None`` targets
        every input of every module — the full Table 1 campaign.
    seed:
        Campaign master seed; per-run trap seeds are derived from it
        deterministically, so equal configurations give equal results.
    reuse_golden_prefix:
        When ``True`` (the default), Golden-Run checkpoints are captured
        at every injection time and each IR simulates only the suffix
        after its injection instant.  ``False`` re-runs every IR from
        time zero.  Both paths produce bit-identical results.
    fast_forward:
        When ``True`` (the default), the Golden Run records per-frame
        complete-state digests and every IR stops simulating once its
        injected error provably died out (divergence set empty and
        state digest matching the Golden Run's), splicing the
        Golden-Run trace suffix instead.  ``False`` (CLI:
        ``--no-fast-forward``) simulates every IR to the end.  Both
        paths produce bit-identical results; fast-forwarded outcomes
        additionally carry the reconvergence instant (the error's
        lifetime).
    lint:
        When ``True`` (the default), :func:`repro.lint.lint_system`
        runs before the first Golden Run; error-level findings abort
        the campaign with :class:`CampaignError`, warnings are reported
        through the observer (``LintReported`` event).  ``False``
        (CLI: ``--no-lint``) skips the gate.
    backend:
        The :mod:`simulation backend <repro.simulation.backend>`
        executing the injection runs: ``"reference"`` (the
        frame-stepping runtime) or ``"batched"`` (the vectorized lane
        kernel, byte-identical by contract).  Defaults to the
        ``REPRO_BACKEND`` environment variable, falling back to
        ``"reference"``.
    static_prune:
        When ``True``, the static bit-flow analysis (:mod:`repro.flow`)
        runs before the first Golden Run and every (module, input)
        target whose whole arc row is statically proven zero is
        *skipped* instead of injected.  Pruned targets are recorded as
        exact zero-error counts with the full injection denominator,
        so ``estimate_matrix()`` (and everything downstream: the
        tables, the dashboard reducer) stays complete and byte-stable
        on all arcs.  Soundness: a target prunes only when every error
        model's corruption is a known XOR mask that provably cannot
        escape the (stateless, ``vector_plan``-certified) module — see
        docs/STATIC_ANALYSIS.md.  Off by default (CLI:
        ``--static-prune``).
    dashboard:
        Optional ``host:port`` address for the live resilience
        dashboard (CLI: ``repro campaign --dash``, see
        docs/OBSERVABILITY.md).  Pure presentation wiring — the engine
        itself never opens sockets (the CLI starts the
        :class:`~repro.obs.dash.server.DashboardServer` and tees a
        :class:`~repro.obs.dash.sink.DashboardSink` into the
        observer), so the field does not participate in the config
        hash: two campaigns differing only in ``dashboard`` produce
        identical results and identical manifests.
    store:
        Optional directory of a content-addressed campaign result
        store (CLI: ``--store DIR``, see docs/INCREMENTAL.md).  Each
        (case, module, signal) target row is keyed on a content hash
        of everything its outcomes depend on; rows whose key is
        already stored are *reused* instead of injected, and freshly
        executed rows are published for the next campaign.  The
        recomposed result is byte-identical to a cold run (pinned by
        the ``incremental-parity`` verify oracle).  Like
        ``dashboard``, the field is pure execution strategy and does
        not participate in the config hash or the unit keys.
    no_cache:
        With a ``store`` configured, skip *reads* (every unit
        re-executes) but still publish results — a forced refresh
        (CLI: ``--no-cache``).  No effect without ``store``.
    adaptive:
        When ``True`` (CLI: ``--adaptive``), the campaign runs as a
        confidence-driven sequential-stopping experiment instead of the
        exhaustive grid: injections execute in rounds, each (module,
        input) target draws its trials from a seeded random permutation
        of its own exhaustive grid, and a target stops ("retires") once
        the widest Wilson interval across its output arcs is narrower
        than ``ci_width`` — see :mod:`repro.adaptive` and
        docs/ADAPTIVE.md.  Per-run seeds derive from grid coordinates,
        not execution order, so sampled outcomes are byte-identical to
        the exhaustive campaign's at the same coordinates.  Off by
        default; ``False`` leaves :meth:`InjectionCampaign.execute` /
        :meth:`~InjectionCampaign.execute_parallel` byte-identical to
        their exhaustive behaviour.
    ci_width:
        Adaptive stopping threshold: retire a target once its widest
        output-arc Wilson half-width drops below this.  ``None``
        resolves to 0.05.  Requires ``adaptive=True``.
    round_size:
        Trials distributed per adaptive round.  ``None`` resolves to
        twice the live-target count.  Requires ``adaptive=True``.
    max_trials_per_target:
        Per-target adaptive trial cap; a target hitting it retires with
        reason ``"cap"`` even while still wide.  ``None``: only pool
        exhaustion caps a target.  Requires ``adaptive=True``.
    budget_policy:
        Name of the :class:`repro.adaptive.BudgetPolicy` splitting each
        round's budget (``"widest-first"`` or ``"uniform"``).  ``None``
        resolves to ``"widest-first"``.  Requires ``adaptive=True``.
    """

    duration_ms: int = 8000
    injection_times_ms: tuple[int, ...] = field(default_factory=paper_times)
    error_models: tuple[ErrorModel, ...] = field(
        default_factory=lambda: tuple(bit_flip_models())
    )
    targets: tuple[tuple[str, str], ...] | None = None
    seed: int = 2001
    reuse_golden_prefix: bool = True
    fast_forward: bool = True
    lint: bool = True
    backend: str = field(
        default_factory=lambda: os.environ.get("REPRO_BACKEND", "reference")
    )
    dashboard: str | None = None
    static_prune: bool = False
    store: str | None = None
    no_cache: bool = False
    adaptive: bool = False
    ci_width: float | None = None
    round_size: int | None = None
    max_trials_per_target: int | None = None
    budget_policy: str | None = None

    def __post_init__(self) -> None:
        if self.duration_ms < 1:
            raise CampaignError("duration_ms must be >= 1")
        if not self.injection_times_ms:
            raise CampaignError("at least one injection time is required")
        if not self.error_models:
            raise CampaignError("at least one error model is required")
        if max(self.injection_times_ms) >= self.duration_ms:
            raise CampaignError(
                "latest injection time "
                f"({max(self.injection_times_ms)} ms) must fall inside the "
                f"run duration ({self.duration_ms} ms)"
            )
        if self.backend not in available_backends():
            raise CampaignError(
                f"unknown simulation backend {self.backend!r}; expected one "
                f"of {', '.join(available_backends())}"
            )
        if not self.adaptive:
            stray = [
                name
                for name, value in (
                    ("ci_width", self.ci_width),
                    ("round_size", self.round_size),
                    ("max_trials_per_target", self.max_trials_per_target),
                    ("budget_policy", self.budget_policy),
                )
                if value is not None
            ]
            if stray:
                raise CampaignError(
                    f"{', '.join(stray)} require(s) adaptive=True "
                    "(--adaptive)"
                )
            return
        if self.ci_width is not None and not 0.0 < self.ci_width < 0.5:
            raise CampaignError(
                f"ci_width must lie in (0, 0.5), got {self.ci_width}"
            )
        if self.round_size is not None and self.round_size < 1:
            raise CampaignError(
                f"round_size must be >= 1, got {self.round_size}"
            )
        if (
            self.max_trials_per_target is not None
            and self.max_trials_per_target < 1
        ):
            raise CampaignError(
                "max_trials_per_target must be >= 1, "
                f"got {self.max_trials_per_target}"
            )
        if self.budget_policy is not None:
            from repro.adaptive import get_policy

            try:
                get_policy(self.budget_policy)
            except ValueError as exc:
                raise CampaignError(str(exc)) from None

    def runs_per_target(self) -> int:
        """IRs per targeted signal per test case (the paper: 16·10 = 160)."""
        return len(self.injection_times_ms) * len(self.error_models)

    def simulated_ms_skipped_per_target(self) -> int:
        """Simulated milliseconds prefix reuse saves per target per case.

        Each IR at injection time *t* skips exactly *t* of its
        ``duration_ms`` milliseconds; summed over the grid of one
        target this is ``n_models · Σt``.
        """
        if not self.reuse_golden_prefix:
            return 0
        return len(self.error_models) * sum(self.injection_times_ms)


def _derive_seed(
    master: int, case_id: str, module: str, signal: str, time_ms: int, model: str
) -> int:
    """Stable per-run seed (process-independent, unlike ``hash``)."""
    text = f"{master}|{case_id}|{module}|{signal}|{time_ms}|{model}"
    return zlib.crc32(text.encode("utf-8"))


#: Per-worker state built by :func:`_worker_init` and reused across all
#: chunks the worker processes: the campaign-wide payload (shipped once
#: per worker through the pool initializer, not once per chunk) plus
#: lazily materialised per-case runtimes and zero-copy Golden-Run views.
_WORKER_STATE: dict | None = None


def _worker_init(payload: tuple) -> None:
    """Pool initializer: receive the campaign payload once per worker."""
    global _WORKER_STATE
    system, run_factory, config, observe, case_blobs = payload
    _WORKER_STATE = {
        "system": system,
        "run_factory": run_factory,
        "config": config,
        "observe": observe,
        "blobs": {blob["case_id"]: blob for blob in case_blobs},
        "cases": {},
        "segments": [],
        "views": [],
    }
    import atexit

    atexit.register(_worker_shutdown)


def _worker_shutdown() -> None:
    """Release Golden-Run views before the shared segments detach.

    The worker's cached traces are ``memoryview``\\ s into shared
    memory; the segment cannot be closed while any view is exported, so
    drop the caches, release the root views and only then close.
    """
    state = _WORKER_STATE
    if state is None:
        return
    state["cases"].clear()
    state["blobs"].clear()
    for view in state["views"]:
        try:
            view.release()
        except BufferError:  # pragma: no cover - stray derived view
            pass
    state["views"].clear()
    for segment in state["segments"]:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - stray derived view
            pass
    state["segments"].clear()


def _materialize_case(state: dict, case_id: str) -> dict:
    """Build (once per worker) a case's runtime and Golden-Run views."""
    blob = state["blobs"][case_id]
    if blob["shm_name"] is not None:
        import multiprocessing
        from multiprocessing import resource_tracker, shared_memory

        segment = shared_memory.SharedMemory(name=blob["shm_name"])
        if multiprocessing.get_start_method(allow_none=True) != "fork":
            # The parent owns the segment's lifetime.  A spawned worker
            # runs its own resource tracker, which would unlink the
            # segment when this worker exits — deregister it there.
            # (Forked workers share the parent's tracker: attaching
            # added nothing, so there is nothing to deregister.)
            try:
                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker API is private
                pass
        state["segments"].append(segment)
        buffer = segment.buf
    else:
        buffer = blob["raw"]
    views = trace_views(buffer, blob["signals"], blob["duration_ms"])
    state["views"].extend(views.values())
    traces = TraceSet(
        SignalTrace(signal, view) for signal, view in views.items()
    )
    golden = GoldenRun(
        case_id=case_id,
        result=RunResult(
            traces=traces,
            duration_ms=blob["duration_ms"],
            final_signals=dict(blob["final_signals"]),
            telemetry=dict(blob["telemetry"]),
        ),
        digests=blob["digests"],
        initials=blob["initials"],
    )
    runner = state["run_factory"](blob["case"])
    runner.clear_hooks()
    entry = {
        "case": blob["case"],
        "runner": runner,
        "golden": golden,
        "checkpoints": blob["checkpoints"],
    }
    state["cases"][case_id] = entry
    return entry


def _run_in_worker(
    case_id: str,
    injections: Callable[["InjectionCampaign", dict], Iterator[tuple]],
) -> tuple[list[InjectionOutcome], dict | None, float]:
    """Shared body of the worker entry points.

    The campaign payload (system, config, Golden Runs, checkpoints) is
    already worker-resident.  Materialises the case on first use, runs
    ``injections(campaign, entry)`` under a per-task campaign (and
    worker observer when the parent observes), and returns the outcome
    list (IR traces stay worker-local), the worker's observability
    payload and the task's wall-clock seconds.
    """
    started = time.perf_counter()
    state = _WORKER_STATE
    assert state is not None, "worker used before _worker_init ran"
    entry = state["cases"].get(case_id) or _materialize_case(state, case_id)
    observer = None
    if state["observe"]:
        from repro.obs.observer import CampaignObserver

        observer = CampaignObserver.for_worker(state["system"])
    runner = entry["runner"]
    if observer is not None and observer.metrics is not None:
        runner.set_metrics(observer.metrics)
    try:
        campaign = InjectionCampaign(
            state["system"],
            state["run_factory"],
            {case_id: entry["case"]},
            state["config"],
            observer=observer,
        )
        outcomes = [outcome for outcome, _ in injections(campaign, entry)]
    finally:
        runner.set_metrics(None)
    obs_payload = observer.worker_payload() if observer is not None else None
    return outcomes, obs_payload, time.perf_counter() - started


def _run_shard(
    task: tuple[str, tuple[tuple[str, str], ...]],
) -> tuple[list[InjectionOutcome], dict | None, float]:
    """Worker entry point: run one shard ``(case_id, targets)`` of the grid."""
    case_id, targets = task
    return _run_in_worker(
        case_id,
        lambda campaign, entry: campaign._case_injections(
            entry["runner"], entry["golden"], targets, entry["checkpoints"]
        ),
    )


def _run_adaptive_shard(
    task: tuple[str, tuple[tuple[str, str, int, int], ...]],
) -> tuple[list[InjectionOutcome], dict | None, float]:
    """Worker entry point for one slice of an adaptive round's trials.

    A task is ``(case_id, specs)`` where each spec is ``(module, signal,
    time_ms, model_index)`` — the parent's round scheduler decides the
    exact points, so no grid expansion happens worker-side.  Outcomes
    return in spec order.
    """
    case_id, specs = task
    return _run_in_worker(
        case_id,
        lambda campaign, entry: campaign._exec_backend.case_injections(
            _PointsContext(
                campaign,
                entry["runner"],
                entry["golden"],
                specs,
                entry["checkpoints"],
            )
        ),
    )


def _default_chunk_size(n_items: int, max_workers: int | None) -> int:
    """Items per pool task so ``n_items`` split into ~4 tasks per worker.

    The one split rule of both parallel paths: the exhaustive grid cuts
    its targets with it, and each adaptive round each case's fresh
    trials.  Several tasks per worker let stragglers rebalance; tasks are cheap
    because the Golden Run is already worker-resident.
    """
    workers = max_workers or os.cpu_count() or 1
    return max(1, -(-n_items // (4 * workers)))


def _slices(items: Sequence, size: int) -> list[Sequence]:
    """``items`` cut into contiguous slices of at most ``size``, in order."""
    return [items[start : start + size] for start in range(0, len(items), size)]


def _observe_chunk(
    obs: "CampaignObserver",
    chunk_index: int,
    case_id: str,
    n_targets: int,
    outcomes: list[InjectionOutcome],
    obs_payload: dict | None,
    elapsed_s: float,
) -> None:
    """Fold one finished pool task into the parent's observer."""
    if obs_payload is not None:
        obs.absorb_worker(obs_payload)
    if obs.propagation is not None:
        obs.propagation.record_all(outcomes)
    obs.on_chunk_completed(
        chunk_index=chunk_index,
        case_id=case_id,
        n_targets=n_targets,
        n_runs=len(outcomes),
        elapsed_s=elapsed_s,
    )


def _release_segments(segments: list) -> None:
    """Close and unlink the parent's shared-memory segments."""
    for segment in segments:
        try:
            segment.close()
            segment.unlink()
        except OSError:  # pragma: no cover - already gone
            pass


@dataclass(frozen=True)
class _InjectionPoint:
    """One planned injection of a case grid (backend work unit)."""

    module: str
    signal: str
    time_ms: int
    model: ErrorModel
    checkpoint: RunCheckpoint | None


class _CaseContext:
    """The campaign-side view a simulation backend works against.

    Owns grid order, observer emission, Golden-Run comparison and
    outcome records for one test case, so backends only decide *how*
    runs execute (see :mod:`repro.simulation.backend`).
    """

    def __init__(
        self,
        campaign: "InjectionCampaign",
        runner: SimulationRun,
        golden: GoldenRun,
        targets: Sequence[tuple[str, str]],
        checkpoints: Mapping[int, RunCheckpoint],
    ) -> None:
        self._campaign = campaign
        self.runner = runner
        self.golden = golden
        self.golden_ref = golden.reference
        self.config = campaign.config
        self._targets = tuple(targets)
        self._checkpoints = checkpoints

    @property
    def metrics(self):
        """The observer's metrics registry, if observability is on."""
        obs = self._campaign.observer
        return None if obs is None else obs.metrics

    def injection_points(self) -> Iterator[_InjectionPoint]:
        """The case's planned injections, in canonical grid order."""
        config = self.config
        for module, signal in self._targets:
            for time_ms in config.injection_times_ms:
                checkpoint = self._checkpoints.get(time_ms)
                for model in config.error_models:
                    yield _InjectionPoint(
                        module, signal, time_ms, model, checkpoint
                    )

    def run_reference(
        self, point: _InjectionPoint
    ) -> tuple[InjectionOutcome, RunResult]:
        """Execute one injection with the frame-stepping runtime."""
        return self._campaign._one_injection(
            self.runner,
            self.golden,
            self.golden.case_id,
            point.module,
            point.signal,
            point.time_ms,
            point.model,
            point.checkpoint,
            self.golden_ref,
        )

    def emit_result(
        self,
        point: _InjectionPoint,
        injected: RunResult,
        fired_at_ms: int | None,
    ) -> tuple[InjectionOutcome, RunResult]:
        """Fold a backend-computed run into the campaign record.

        Emits the same observer event sequence as the reference path
        (``RunStarted``, ``CheckpointReused``, then the outcome chain),
        so event streams stay comparable across backends.
        """
        campaign = self._campaign
        obs = campaign.observer
        case_id = self.golden.case_id
        if obs is not None:
            obs.on_run_started(
                case_id,
                kind="injection",
                module=point.module,
                signal=point.signal,
                time_ms=point.time_ms,
                error_model=point.model.name,
            )
            if point.checkpoint is not None:
                obs.on_checkpoint_reused(
                    case_id, point.time_ms, skipped_ms=point.checkpoint.time_ms
                )
        return campaign._finish_injection(
            self.golden,
            case_id,
            point.module,
            point.signal,
            point.time_ms,
            point.model,
            injected,
            fired_at_ms,
        )


class _PointsContext(_CaseContext):
    """A case context over explicit ``(module, signal, time_ms,
    model_index)`` specs.

    The adaptive round loop schedules arbitrary subsets of the
    exhaustive grid; wrapping them in a context keeps execution on the
    normal backend path (:meth:`SimulationBackend.case_injections`), so
    adaptive campaigns run under both the reference and the batched
    backend without backend changes.
    """

    def __init__(
        self,
        campaign: "InjectionCampaign",
        runner: SimulationRun,
        golden: GoldenRun,
        specs: Sequence[tuple[str, str, int, int]],
        checkpoints: Mapping[int, RunCheckpoint],
    ) -> None:
        super().__init__(campaign, runner, golden, (), checkpoints)
        models = campaign.config.error_models
        self._points = tuple(
            _InjectionPoint(
                module,
                signal,
                time_ms,
                models[model_index],
                checkpoints.get(time_ms),
            )
            for module, signal, time_ms, model_index in specs
        )

    def injection_points(self) -> Iterator[_InjectionPoint]:
        return iter(self._points)


class InjectionCampaign:
    """Runs the full GR/IR experiment grid over a set of test cases.

    Parameters
    ----------
    system:
        The static system model (defines targets and signal widths).
    run_factory:
        Builds a fresh :class:`SimulationRun` for a given test case.
        Called once per test case.
    test_cases:
        Mapping from case id to the (opaque) case object handed to the
        factory; a sequence is accepted and auto-labelled ``case00`` ...
    config:
        The campaign grid.
    observer:
        Optional :class:`~repro.obs.observer.CampaignObserver` receiving
        structured events, span metrics and propagation observations
        while the campaign executes.  ``None`` (the default) disables
        observability at the cost of one pointer test per hook site.
    """

    def __init__(
        self,
        system: SystemModel,
        run_factory: Callable[[CaseT], SimulationRun],
        test_cases: Mapping[str, CaseT] | Sequence[CaseT],
        config: CampaignConfig | None = None,
        observer: "CampaignObserver | None" = None,
    ) -> None:
        self._system = system
        self._run_factory = run_factory
        self._observer = observer
        if isinstance(test_cases, Mapping):
            self._test_cases: dict[str, CaseT] = dict(test_cases)
        else:
            self._test_cases = {
                f"case{index:02d}": case for index, case in enumerate(test_cases)
            }
        if not self._test_cases:
            raise CampaignError("at least one test case is required")
        self._config = config if config is not None else CampaignConfig()
        self._exec_backend = get_backend(self._config.backend)
        self._targets = self._resolve_targets()
        self._golden_runs: dict[str, GoldenRun] = {}
        #: Store traffic of the most recent execute()/execute_parallel()
        #: (a :class:`repro.store.StoreStats`), ``None`` without a store.
        self.last_store_stats = None

    def _resolve_targets(self) -> tuple[tuple[str, str], ...]:
        if self._config.targets is not None:
            for module, signal in self._config.targets:
                spec = self._system.module(module)
                spec.input_index(signal)  # validates
            return tuple(self._config.targets)
        targets: list[tuple[str, str]] = []
        for module_name in self._system.module_names():
            for signal in self._system.module(module_name).inputs:
                targets.append((module_name, signal))
        return tuple(targets)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def config(self) -> CampaignConfig:
        return self._config

    @property
    def observer(self) -> "CampaignObserver | None":
        """The attached observability façade, if any."""
        return self._observer

    @property
    def targets(self) -> tuple[tuple[str, str], ...]:
        """The (module, input signal) pairs that will be injected."""
        return self._targets

    def case_ids(self) -> tuple[str, ...]:
        """Identifiers of the campaign's test cases, in grid order."""
        return tuple(self._test_cases)

    def total_runs(self) -> int:
        """Total IR count of the campaign (excluding Golden Runs)."""
        return (
            len(self._test_cases)
            * len(self._targets)
            * self._config.runs_per_target()
        )

    def simulated_ms_total(self) -> int:
        """Simulated milliseconds a naive campaign executes (IRs only)."""
        return self.total_runs() * self._config.duration_ms

    def simulated_ms_skipped(self) -> int:
        """Simulated milliseconds prefix reuse skips across the campaign."""
        return (
            len(self._test_cases)
            * len(self._targets)
            * self._config.simulated_ms_skipped_per_target()
        )

    def golden_runs(self) -> Mapping[str, GoldenRun]:
        """Golden runs recorded so far (populated during execution)."""
        return dict(self._golden_runs)

    # ------------------------------------------------------------------
    # Static pruning (repro.flow)
    # ------------------------------------------------------------------

    def _plan_pruning(
        self,
    ) -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]:
        """Split the target grid into (live, statically-pruned) targets.

        With :attr:`CampaignConfig.static_prune` off this is the
        identity.  Otherwise one probe runtime is built to derive
        transfer masks and every target whose whole arc row is proven
        zero under this campaign's error models is moved to the pruned
        set (grid order preserved on both sides).
        """
        if not self._config.static_prune:
            return self._targets, ()
        from repro.flow import analyse_run

        probe = self._run_factory(next(iter(self._test_cases.values())))
        analysis = analyse_run(probe, error_models=self._config.error_models)
        pruned = set(analysis.prunable_targets(self._targets))
        live = tuple(t for t in self._targets if t not in pruned)
        return live, tuple(t for t in self._targets if t in pruned)

    def _record_pruned(
        self,
        result: CampaignResult,
        pruned: Sequence[tuple[str, str]],
        runs_per_target: int,
    ) -> int:
        """Record pruned targets as exact zero-error counts; return arcs."""
        n_arcs = 0
        for module, signal in pruned:
            result.record_pruned(module, signal, runs_per_target)
            n_arcs += len(self._system.module(module).outputs)
        return n_arcs

    # ------------------------------------------------------------------
    # Incremental execution (repro.store)
    # ------------------------------------------------------------------

    def _store_session(self):
        """Open the configured result store, or ``None`` without one.

        Returns ``(store, key_builder, stats)``; digest-mismatch
        rejections are routed to the observer as warning events.
        """
        if self._config.store is None:
            return None
        from repro.store import ResultStore, StoreStats, UnitKeyBuilder

        stats = StoreStats()
        obs = self._observer

        def reject(key: str, path: str, reason: str) -> None:
            stats.rejected += 1
            if obs is not None:
                obs.on_store_artifact_rejected(key, path, reason)

        store = ResultStore(self._config.store, on_reject=reject)
        builder = UnitKeyBuilder(self._system, self._run_factory, self._config)
        return store, builder, stats

    def _encode_unit(
        self,
        case_id: str,
        module: str,
        signal: str,
        outcomes: Sequence[InjectionOutcome],
    ) -> dict:
        """Store payload of one executed target row.

        The outcome records are the authoritative data (recomposition
        rebuilds :class:`CampaignResult` from them alone); the per-arc
        direct-error counts and lifetime records ride along so
        ``repro store ls`` is informative without re-deriving.
        """
        spec = self._system.module(module)
        input_is_feedback = signal in spec.outputs
        arc_counts = {}
        for output in spec.outputs:
            n_errors = sum(
                1
                for outcome in outcomes
                if outcome.fired
                and outcome.direct_output_error(
                    output, input_is_feedback=input_is_feedback
                )
            )
            arc_counts[output] = [len(outcomes), n_errors]
        return {
            "kind": "unit",
            "case_id": case_id,
            "module": module,
            "signal": signal,
            "n_runs": len(outcomes),
            "outcomes": [outcome.to_jsonable() for outcome in outcomes],
            "arc_counts": arc_counts,
            "lifetimes_ms": [
                outcome.error_lifetime_ms
                for outcome in outcomes
                if outcome.error_lifetime_ms is not None
            ],
            "n_fired": sum(1 for outcome in outcomes if outcome.fired),
            "n_reconverged": sum(
                1 for outcome in outcomes if outcome.reconverged
            ),
        }

    def _decode_unit(
        self, payload: dict, case_id: str, module: str, signal: str
    ) -> list[InjectionOutcome] | None:
        """Outcomes of a stored unit, or ``None`` when it cannot be reused.

        Pruned records (``kind != "unit"``) carry no per-run data and a
        payload whose outcome count does not match this campaign's grid
        cannot recompose byte-identically — both are treated as misses.
        """
        if payload.get("kind") != "unit":
            return None
        raw = payload.get("outcomes")
        if not isinstance(raw, list) or len(raw) != self._config.runs_per_target():
            return None
        try:
            decoded = [InjectionOutcome.from_jsonable(entry) for entry in raw]
        except (KeyError, TypeError):
            return None
        for outcome in decoded:
            if (
                outcome.case_id != case_id
                or outcome.module != module
                or outcome.input_signal != signal
            ):
                return None
        return decoded

    def _decode_adaptive_unit(
        self, payload: dict, case_id: str, module: str, signal: str
    ) -> list[InjectionOutcome] | None:
        """Outcomes of a stored adaptive row, or ``None`` on any mismatch.

        Unlike :meth:`_decode_unit` the outcome count is free — an
        adaptive row holds however many trials the stopping rule needed.
        Reuse stays sound at trial granularity: the round loop only
        consumes cached outcomes whose exact grid coordinates it
        scheduled, and per-run seeds depend on coordinates alone.
        """
        if payload.get("kind") != "adaptive-unit":
            return None
        raw = payload.get("outcomes")
        if not isinstance(raw, list) or not raw:
            return None
        try:
            decoded = [InjectionOutcome.from_jsonable(entry) for entry in raw]
        except (KeyError, TypeError):
            return None
        for outcome in decoded:
            if (
                outcome.case_id != case_id
                or outcome.module != module
                or outcome.input_signal != signal
            ):
                return None
        return decoded

    def _plan_case_store(
        self,
        store,
        builder,
        stats,
        case_id: str,
        case: CaseT,
        live_targets: Sequence[tuple[str, str]],
        pruned: Sequence[tuple[str, str]],
    ) -> tuple[dict, dict]:
        """Compute one case's unit keys and fetch every reusable row.

        Returns ``(keys, cached)`` where ``cached`` maps hit targets to
        their decoded outcome lists.  Keys cover pruned targets too so
        their records can be published.
        """
        obs = self._observer
        keys = builder.keys_for_case(
            case_id, case, (*live_targets, *pruned)
        )
        cached: dict[tuple[str, str], list[InjectionOutcome]] = {}
        for target in live_targets:
            key = keys[target]
            if not key.cacheable:
                stats.uncacheable += 1
                continue
            if self._config.no_cache:
                continue
            payload = store.fetch(key.digest)
            decoded = (
                None
                if payload is None
                else self._decode_unit(payload, case_id, *target)
            )
            if decoded is None:
                stats.misses += 1
                if obs is not None:
                    obs.on_store_miss(case_id, *target)
            else:
                cached[target] = decoded
                stats.hits += 1
                stats.runs_reused += len(decoded)
        return keys, cached

    def _publish_case_units(
        self,
        store,
        keys: dict,
        case_id: str,
        fresh: Mapping[tuple[str, str], list[InjectionOutcome]],
        pruned: Sequence[tuple[str, str]],
    ) -> None:
        """Publish freshly executed rows and pruned-target records.

        A pruned record shares its key with the full unit the target
        would produce if executed (the key excludes ``static_prune``),
        so it is only written where nothing is stored yet — a full unit
        is never clobbered by the poorer pruned form.
        """
        for (module, signal), outcomes in fresh.items():
            key = keys[(module, signal)]
            if key.cacheable:
                store.put(
                    key.digest,
                    self._encode_unit(case_id, module, signal, outcomes),
                )
        for module, signal in pruned:
            key = keys[(module, signal)]
            if key.cacheable and not store.contains(key.digest):
                store.put(
                    key.digest,
                    {
                        "kind": "pruned",
                        "case_id": case_id,
                        "module": module,
                        "signal": signal,
                        "n_runs": self._config.runs_per_target(),
                    },
                )

    # ------------------------------------------------------------------
    # Adaptive execution (repro.adaptive)
    # ------------------------------------------------------------------

    def _execute_adaptive(
        self,
        progress: ProgressCallback | None,
        mode: str,
        make_run_batches,
    ) -> CampaignResult:
        """The confidence-driven round loop shared by both execute paths.

        ``make_run_batches(need_cases)`` returns ``(run_batches,
        cleanup)``: ``run_batches`` executes one round's fresh trial
        batches (``[(case_id, specs)]`` with specs ``(module, signal,
        time_ms, model_index)``) and returns ``{case_id: [outcomes in
        spec order]}``; ``cleanup`` releases executor resources.
        ``need_cases`` are the cases that may execute at all (rows not
        fully covered by the result store) so the parallel path only
        records Golden Runs and ships worker blobs for those.
        """
        from repro.adaptive import (
            AdaptiveController,
            TargetMeasurement,
            get_policy,
        )
        from repro.obs.propagation import PropagationObservations

        obs = self._observer
        config = self._config
        started = time.perf_counter()
        if obs is not None:
            obs.on_campaign_started(self, mode=mode)
            obs.on_backend_selected(self._exec_backend.name)
        self._lint_gate()
        live_targets, pruned = self._plan_pruning()
        session = self._store_session()
        result = CampaignResult(self._system)
        completed = 0
        total = self.total_runs()
        if pruned:
            per_target = len(self._test_cases) * config.runs_per_target()
            n_arcs = self._record_pruned(result, pruned, per_target)
            if obs is not None:
                obs.on_arcs_pruned(pruned, per_target, n_arcs)
            completed = len(pruned) * per_target
            if progress is not None:
                progress(completed, total)

        # Resolved stopping parameters (store keys use the resolved
        # values, so configs that only spell the defaults differently
        # share adaptive rows).
        z = 1.96
        ci_width = config.ci_width if config.ci_width is not None else 0.05
        round_size = (
            config.round_size
            if config.round_size is not None
            else max(1, 2 * len(live_targets))
        )
        cap = config.max_trials_per_target
        policy_name = (
            config.budget_policy
            if config.budget_policy is not None
            else "widest-first"
        )
        case_ids = tuple(self._test_cases)
        runs_per_target = config.runs_per_target()
        n_pool = len(case_ids) * runs_per_target

        # Store planning: per (case, target) a map of cached outcomes
        # keyed by exact grid coordinates.  A full exhaustive unit
        # satisfies any adaptive request; failing that, a previously
        # published adaptive row under the resolved stopping parameters.
        cache: dict[
            tuple[str, tuple[str, str]],
            dict[tuple[int, str], InjectionOutcome],
        ] = {}
        row_key: dict[tuple[str, tuple[str, str]], str] = {}
        full_rows: set[tuple[str, tuple[str, str]]] = set()
        case_keys: dict[str, dict] = {}
        if session is not None:
            from repro.store.fingerprints import content_digest

            store, builder, stats = session
            for case_id, case in self._test_cases.items():
                keys = builder.keys_for_case(
                    case_id, case, (*live_targets, *pruned)
                )
                case_keys[case_id] = keys
                for target in live_targets:
                    key = keys[target]
                    if not key.cacheable:
                        stats.uncacheable += 1
                        continue
                    row_key[(case_id, target)] = content_digest(
                        {
                            "kind": "adaptive",
                            "base": key.digest,
                            "ci_width": ci_width,
                            "round_size": round_size,
                            "max_trials_per_target": (
                                cap if cap is not None else n_pool
                            ),
                            "z": z,
                            "policy": policy_name,
                        }
                    )
                    if config.no_cache:
                        continue
                    payload = store.fetch(key.digest)
                    decoded = (
                        None
                        if payload is None
                        else self._decode_unit(payload, case_id, *target)
                    )
                    if decoded is None:
                        payload = store.fetch(row_key[(case_id, target)])
                        decoded = (
                            None
                            if payload is None
                            else self._decode_adaptive_unit(
                                payload, case_id, *target
                            )
                        )
                    if decoded is None:
                        stats.misses += 1
                        if obs is not None:
                            obs.on_store_miss(case_id, *target)
                        continue
                    stats.hits += 1
                    trial_map = {
                        (o.scheduled_time_ms, o.error_model): o
                        for o in decoded
                    }
                    cache[(case_id, target)] = trial_map
                    if len(trial_map) >= runs_per_target:
                        full_rows.add((case_id, target))

        need_cases = tuple(
            case_id
            for case_id in case_ids
            if any(
                (case_id, target) not in full_rows for target in live_targets
            )
        )
        pool_triples = tuple(
            (case_id, time_ms, model_index)
            for case_id in case_ids
            for time_ms in config.injection_times_ms
            for model_index in range(len(config.error_models))
        )
        controller: AdaptiveController[tuple[str, int, int]] = (
            AdaptiveController(
                {target: pool_triples for target in live_targets},
                ci_width=ci_width,
                round_size=round_size,
                max_trials_per_target=cap,
                seed=config.seed,
                z=z,
                policy=get_policy(policy_name),
            )
        )
        observations = PropagationObservations(self._system)
        achieved: dict[
            tuple[str, tuple[str, str]], list[InjectionOutcome]
        ] = {}
        fresh_rows: set[tuple[str, tuple[str, str]]] = set()
        run_batches, cleanup = make_run_batches(need_cases)
        try:
            while not controller.finished:
                schedule = controller.next_round()
                per_case: dict[str, list] = {cid: [] for cid in case_ids}
                for target, trials in schedule.items():
                    for case_id, time_ms, model_index in trials:
                        per_case[case_id].append(
                            (target, time_ms, model_index)
                        )
                batches = []
                plan: list[tuple[str, list]] = []
                for case_id in case_ids:
                    entries = per_case[case_id]
                    if not entries:
                        continue
                    specs: list[tuple[str, str, int, int]] = []
                    rows: list = []
                    for target, time_ms, model_index in entries:
                        model_name = config.error_models[model_index].name
                        trial_map = cache.get((case_id, target))
                        outcome = (
                            None
                            if trial_map is None
                            else trial_map.get((time_ms, model_name))
                        )
                        if outcome is None:
                            rows.append((target, None, len(specs)))
                            specs.append(
                                (target[0], target[1], time_ms, model_index)
                            )
                        else:
                            rows.append((target, outcome, -1))
                    if specs:
                        batches.append((case_id, tuple(specs)))
                    plan.append((case_id, rows))
                executed = run_batches(batches) if batches else {}
                n_round = 0
                for case_id, rows in plan:
                    fresh_list = executed.get(case_id, [])
                    for target, cached_outcome, index in rows:
                        if cached_outcome is None:
                            outcome = fresh_list[index]
                            fresh_rows.add((case_id, target))
                            if session is not None:
                                session[2].runs_executed += 1
                        else:
                            outcome = cached_outcome
                            if session is not None:
                                session[2].runs_reused += 1
                            if obs is not None:
                                obs.on_outcome(outcome)
                        observations.record(outcome)
                        result.add(outcome)
                        achieved.setdefault((case_id, target), []).append(
                            outcome
                        )
                        n_round += 1
                        completed += 1
                if progress is not None:
                    progress(completed, total)
                measurements = {}
                for target in controller.open_targets():
                    module, signal = target
                    if controller.n_taken(target) == 0:
                        measurements[target] = TargetMeasurement(0.5, 0.5)
                        continue
                    half = -1.0
                    point = 0.0
                    for output in self._system.module(module).outputs:
                        arc = observations.arc(module, signal, output)
                        lo, hi = arc.wilson_interval(z)
                        if (hi - lo) / 2.0 > half:
                            half = (hi - lo) / 2.0
                            point = arc.observed_permeability
                    if half < 0.0:
                        half = 0.0  # a target with no output arcs
                    measurements[target] = TargetMeasurement(
                        half_width=half, point_estimate=point
                    )
                for retiree in controller.complete_round(measurements):
                    result.record_adaptive(
                        AdaptiveRow(
                            module=retiree.module,
                            input_signal=retiree.signal,
                            n_trials=retiree.n_trials,
                            n_grid=n_pool,
                            half_width=retiree.half_width,
                            reason=retiree.reason,
                            round_index=retiree.round_index,
                        )
                    )
                    if obs is not None:
                        obs.on_target_retired(
                            retiree.module,
                            retiree.signal,
                            retiree.n_trials,
                            retiree.half_width,
                            retiree.reason,
                            retiree.round_index,
                        )
                if obs is not None:
                    obs.on_round_completed(
                        controller.round_index,
                        n_round,
                        len(controller.open_targets()),
                    )
        finally:
            cleanup()
        unconverged: dict[str, int] = {}
        for retiree in controller.retired():
            if retiree.reason != "confidence":
                unconverged[retiree.reason] = (
                    unconverged.get(retiree.reason, 0) + 1
                )
        if unconverged and obs is not None:
            obs.on_budget_exhausted(unconverged)
        if session is not None:
            store, builder, stats = session
            for case_id in case_ids:
                self._publish_case_units(
                    store, case_keys[case_id], case_id, {}, pruned
                )
                for target in live_targets:
                    row = (case_id, target)
                    if row not in fresh_rows or row not in row_key:
                        continue
                    payload = self._encode_unit(
                        case_id, target[0], target[1], achieved[row]
                    )
                    payload["kind"] = "adaptive-unit"
                    store.put(row_key[row], payload)
            self.last_store_stats = stats
        else:
            self.last_store_stats = None
        if obs is not None:
            obs.on_campaign_finished(result, time.perf_counter() - started)
        return result

    def _execute_adaptive_serial(
        self,
        progress: ProgressCallback | None,
        inspector: "InspectorCallback | None",
    ) -> CampaignResult:
        """Adaptive rounds on the serial path (lazy Golden Runs per case)."""
        case_state: dict[str, tuple] = {}

        def run_batches(batches):
            executed: dict[str, list[InjectionOutcome]] = {}
            for case_id, specs in batches:
                entry = case_state.get(case_id)
                if entry is None:
                    entry = self._golden_for_case(
                        case_id, self._test_cases[case_id]
                    )
                    self._golden_runs[case_id] = entry[1]
                    case_state[case_id] = entry
                runner, golden, checkpoints = entry
                context = _PointsContext(
                    self, runner, golden, specs, checkpoints
                )
                outcomes = []
                for outcome, injected in self._exec_backend.case_injections(
                    context
                ):
                    if inspector is not None:
                        inspector(outcome, injected, golden)
                    outcomes.append(outcome)
                executed[case_id] = outcomes
            return executed

        def make(need_cases):
            return run_batches, (lambda: None)

        return self._execute_adaptive(progress, "serial", make)

    def _execute_adaptive_parallel(
        self,
        max_workers: int | None,
        progress: ProgressCallback | None,
    ) -> CampaignResult:
        """Adaptive rounds over a long-lived worker pool.

        Golden Runs (and shared-memory blobs) are prepared only for the
        cases the store cannot fully answer; the pool stays up across
        rounds so workers keep their per-case runtimes cached.  Each
        round's fresh trials of a case are cut into contiguous slices
        (:func:`_default_chunk_size`, the exhaustive path's rule) so
        every worker has work even when the grid has one case.
        """
        obs = self._observer
        segments: list = []
        chunk_index = itertools.count()

        def make(need_cases):
            case_blobs = [
                self._golden_blob(case_id, segments) for case_id in need_cases
            ]
            pool = (
                self._worker_pool(max_workers, self._config, case_blobs)
                if case_blobs
                else None
            )

            def run_batches(batches):
                assert pool is not None, "fresh trials without worker blobs"
                tasks = [
                    (case_id, part)
                    for case_id, specs in batches
                    for part in _slices(
                        specs, _default_chunk_size(len(specs), max_workers)
                    )
                ]
                executed: dict[str, list[InjectionOutcome]] = {}
                for (case_id, specs), (outcomes, obs_payload, elapsed_s) in zip(
                    tasks, pool.map(_run_adaptive_shard, tasks)
                ):
                    executed.setdefault(case_id, []).extend(outcomes)
                    if obs is not None:
                        _observe_chunk(
                            obs,
                            next(chunk_index),
                            case_id,
                            len({(m, s) for m, s, _, _ in specs}),
                            outcomes,
                            obs_payload,
                            elapsed_s,
                        )
                return executed

            def cleanup():
                if pool is not None:
                    pool.shutdown()
                _release_segments(segments)

            return run_batches, cleanup

        return self._execute_adaptive(progress, "parallel", make)

    def _golden_blob(self, case_id: str, segments: list) -> dict:
        """Record one case's Golden Run and pack it for the worker pool.

        The traces go into a new shared-memory segment, appended to
        ``segments`` for :func:`_release_segments`; when shared memory
        is unavailable the packed bytes ride along in the blob instead.
        Checkpoints travel stripped of their trace prefixes.
        """
        from multiprocessing import shared_memory

        case = self._test_cases[case_id]
        runner, golden, checkpoints = self._golden_for_case(case_id, case)
        self._golden_runs[case_id] = golden
        signals, duration_ms, flat = pack_trace_samples(golden.result.traces)
        n_bytes = len(flat) * flat.itemsize
        shm_name = None
        raw = None
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, n_bytes)
            )
            segment.buf[:n_bytes] = memoryview(flat).cast("B")
            segments.append(segment)
            shm_name = segment.name
        except OSError:
            raw = flat.tobytes()
        return {
            "case_id": case_id,
            "case": case,
            "signals": signals,
            "duration_ms": duration_ms,
            "shm_name": shm_name,
            "raw": raw,
            "checkpoints": {
                time_ms: cp.without_trace_prefix()
                for time_ms, cp in checkpoints.items()
            },
            "digests": golden.digests,
            "initials": golden.initials,
            "final_signals": golden.result.final_signals,
            "telemetry": golden.result.telemetry,
        }

    def _worker_pool(
        self,
        max_workers: int | None,
        config: CampaignConfig,
        case_blobs: Sequence[dict],
    ):
        """A process pool whose workers receive the campaign payload once."""
        import concurrent.futures

        payload = (
            self._system,
            self._run_factory,
            config,
            self._observer is not None,
            tuple(case_blobs),
        )
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_worker_init,
            initargs=(payload,),
        )

    # ------------------------------------------------------------------
    # Lint gate
    # ------------------------------------------------------------------

    def lint(self):
        """Lint the system model against this campaign's target grid.

        Returns the :class:`~repro.lint.LintReport`; :meth:`execute`
        and :meth:`execute_parallel` run this automatically unless
        :attr:`CampaignConfig.lint` is ``False``.
        """
        from repro.lint import lint_system

        return lint_system(self._system, targets=self._targets)

    def _lint_gate(self) -> None:
        """Refuse to start a campaign on an error-level lint finding.

        Injecting into a malformed model silently produces meaningless
        permeability estimates, so the check is on by default and runs
        *before* any (expensive) Golden Run.  The report also goes to
        the observer, making an aborted ``events.jsonl`` self-explaining.
        """
        if not self._config.lint:
            return
        report = self.lint()
        if self._observer is not None:
            self._observer.on_lint_report(report)
        if report.has_errors:
            summary = "; ".join(
                f"{d.code} {d.message}" for d in report.errors()
            )
            raise CampaignError(
                f"lint found {len(report.errors())} error-level problem(s) "
                f"in system {self._system.name!r}: {summary} "
                "(fix the model, or bypass with CampaignConfig(lint=False) "
                "/ --no-lint)"
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self,
        progress: ProgressCallback | None = None,
        inspector: "InspectorCallback | None" = None,
    ) -> CampaignResult:
        """Run the whole campaign and return the collected outcomes.

        Parameters
        ----------
        progress:
            Optional ``(completed, total)`` callback, invoked once per
            completed injection run.
        inspector:
            Optional callback invoked for every injection run *while
            its full traces are still available* (they are discarded
            afterwards to bound memory).  Receives the outcome record,
            the injection run's :class:`RunResult` and the test case's
            Golden Run.  Used e.g. by the EDM evaluation layer to replay
            detectors over the traces.  With a result store configured,
            only freshly *executed* runs reach the inspector — reused
            rows carry outcome records, not traces.
        """
        if self._config.adaptive:
            return self._execute_adaptive_serial(progress, inspector)
        obs = self._observer
        started = time.perf_counter()
        if obs is not None:
            obs.on_campaign_started(self, mode="serial")
            obs.on_backend_selected(self._exec_backend.name)
        self._lint_gate()
        live_targets, pruned = self._plan_pruning()
        session = self._store_session()
        result = CampaignResult(self._system)
        completed = 0
        total = self.total_runs()
        if pruned:
            per_target = len(self._test_cases) * self._config.runs_per_target()
            n_arcs = self._record_pruned(result, pruned, per_target)
            if obs is not None:
                obs.on_arcs_pruned(pruned, per_target, n_arcs)
            completed = len(pruned) * per_target
            if progress is not None:
                progress(completed, total)
        for case_id, case in self._test_cases.items():
            if session is None:
                runner, golden, checkpoints = self._golden_for_case(
                    case_id, case
                )
                self._golden_runs[case_id] = golden
                for outcome, injected in self._case_injections(
                    runner, golden, live_targets, checkpoints
                ):
                    if inspector is not None:
                        inspector(outcome, injected, golden)
                    result.add(outcome)
                    completed += 1
                    if progress is not None:
                        progress(completed, total)
                continue
            store, builder, stats = session
            keys, cached = self._plan_case_store(
                store, builder, stats, case_id, case, live_targets, pruned
            )
            miss_targets = tuple(
                target for target in live_targets if target not in cached
            )
            fresh: dict[tuple[str, str], list[InjectionOutcome]] = {}
            if miss_targets:
                # Fully reused cases skip even their Golden Run.
                runner, golden, checkpoints = self._golden_for_case(
                    case_id, case
                )
                self._golden_runs[case_id] = golden
                for outcome, injected in self._case_injections(
                    runner, golden, miss_targets, checkpoints
                ):
                    if inspector is not None:
                        inspector(outcome, injected, golden)
                    fresh.setdefault(
                        (outcome.module, outcome.input_signal), []
                    ).append(outcome)
                    stats.runs_executed += 1
                    completed += 1
                    if progress is not None:
                        progress(completed, total)
            self._publish_case_units(store, keys, case_id, fresh, pruned)
            # Recompose in canonical grid order: cache hits interleave
            # with fresh rows exactly where a cold run would put them.
            for target in live_targets:
                if target in cached:
                    outcomes = cached[target]
                    if obs is not None:
                        obs.on_unit_reused(
                            case_id,
                            target[0],
                            target[1],
                            len(outcomes),
                            keys[target].digest,
                        )
                        for outcome in outcomes:
                            obs.on_outcome(outcome)
                    for outcome in outcomes:
                        result.add(outcome)
                    completed += len(outcomes)
                    if progress is not None:
                        progress(completed, total)
                else:
                    for outcome in fresh.get(target, []):
                        result.add(outcome)
        self.last_store_stats = session[2] if session is not None else None
        if obs is not None:
            obs.on_campaign_finished(result, time.perf_counter() - started)
        return result

    def _golden_for_case(
        self, case_id: str, case: CaseT
    ) -> tuple[SimulationRun, GoldenRun, dict[int, RunCheckpoint]]:
        """Build the runtime and record the Golden Run of one test case.

        With prefix reuse enabled, checkpoints are captured at every
        configured injection time while the Golden Run executes.
        """
        obs = self._observer
        config = self._config
        runner = self._run_factory(case)
        runner.clear_hooks()
        if obs is not None:
            if obs.metrics is not None:
                runner.set_metrics(obs.metrics)
            obs.on_run_started(case_id, kind="golden")
        checkpoint_times = (
            config.injection_times_ms if config.reuse_golden_prefix else ()
        )
        digests = None

        def record():
            if config.fast_forward:
                return runner.run_with_checkpoints(
                    config.duration_ms, checkpoint_times, frame_digests=True
                )
            if checkpoint_times:
                return runner.run_with_checkpoints(
                    config.duration_ms, checkpoint_times
                )
            return runner.run(config.duration_ms), {}

        if obs is not None and obs.metrics is not None:
            with obs.metrics.timer("phase.golden_run.seconds"):
                recorded = record()
        else:
            recorded = record()
        if config.fast_forward:
            golden_result, checkpoints, digests = recorded
        else:
            golden_result, checkpoints = recorded
        if obs is not None and checkpoints:
            obs.on_checkpoints_saved(case_id, sorted(checkpoints))
        golden = GoldenRun(
            case_id=case_id,
            result=golden_result,
            digests=digests,
            initials=runner.store.initial_values(),
        )
        return runner, golden, checkpoints

    def _case_injections(
        self,
        runner: SimulationRun,
        golden: GoldenRun,
        targets: Sequence[tuple[str, str]],
        checkpoints: Mapping[int, RunCheckpoint],
    ) -> Iterator[tuple[InjectionOutcome, RunResult]]:
        """Yield every IR of ``targets`` for one test case, in grid order.

        Execution is delegated to the configured simulation backend;
        the campaign retains ownership of grid order, observers,
        comparison and outcome records via the case context.
        """
        context = _CaseContext(self, runner, golden, targets, checkpoints)
        return self._exec_backend.case_injections(context)

    def _one_injection(
        self,
        runner: SimulationRun,
        golden: GoldenRun,
        case_id: str,
        module: str,
        signal: str,
        time_ms: int,
        model: ErrorModel,
        checkpoint: RunCheckpoint | None = None,
        golden_ref: GoldenReference | None = None,
    ) -> tuple[InjectionOutcome, "RunResult"]:
        if runner.hooks_installed:
            raise CampaignError(
                "runtime has hooks installed from a previous run; "
                "refusing to arm a trap on a dirty runtime"
            )
        obs = self._observer
        if obs is not None:
            obs.on_run_started(
                case_id,
                kind="injection",
                module=module,
                signal=signal,
                time_ms=time_ms,
                error_model=model.name,
            )
            if checkpoint is not None:
                obs.on_checkpoint_reused(
                    case_id, time_ms, skipped_ms=checkpoint.time_ms
                )
        trap = InputInjectionTrap.for_system(
            self._system,
            module=module,
            signal=signal,
            time_ms=time_ms,
            error_model=model,
            seed=_derive_seed(
                self._config.seed, case_id, module, signal, time_ms, model.name
            ),
        )
        runner.add_read_interceptor(trap)
        try:
            if obs is not None and obs.metrics is not None:
                with obs.metrics.timer("phase.injection_run.seconds"):
                    if checkpoint is not None:
                        injected = runner.run_from(
                            checkpoint, self._config.duration_ms, golden_ref
                        )
                    else:
                        injected = runner.run(
                            self._config.duration_ms, golden_ref
                        )
            elif checkpoint is not None:
                injected = runner.run_from(
                    checkpoint, self._config.duration_ms, golden_ref
                )
            else:
                injected = runner.run(self._config.duration_ms, golden_ref)
        finally:
            runner.clear_hooks()
        return self._finish_injection(
            golden, case_id, module, signal, time_ms, model,
            injected, trap.fired_at_ms,
        )

    def _finish_injection(
        self,
        golden: GoldenRun,
        case_id: str,
        module: str,
        signal: str,
        time_ms: int,
        model: ErrorModel,
        injected: "RunResult",
        fired_at_ms: int | None,
    ) -> tuple[InjectionOutcome, "RunResult"]:
        """Compare an executed IR to its Golden Run and record the outcome."""
        obs = self._observer
        if obs is not None and obs.metrics is not None:
            with obs.metrics.timer("phase.comparison.seconds"):
                comparison = compare_to_golden_run(golden, injected)
        else:
            comparison = compare_to_golden_run(golden, injected)
        outcome = InjectionOutcome(
            case_id=case_id,
            module=module,
            input_signal=signal,
            scheduled_time_ms=time_ms,
            fired_at_ms=fired_at_ms,
            error_model=model.name,
            comparison=comparison,
            reconverged_at_ms=injected.reconverged_at_ms,
            frames_fast_forwarded=injected.frames_fast_forwarded,
        )
        if obs is not None:
            obs.on_outcome(outcome)
        return outcome, injected

    # ------------------------------------------------------------------
    # Parallel execution
    # ------------------------------------------------------------------

    def execute_parallel(
        self,
        max_workers: int | None = None,
        progress: ProgressCallback | None = None,
        chunk_size: int | None = None,
    ) -> CampaignResult:
        """Run the campaign grid-sharded over a process pool.

        The ``(case, module, signal)`` target grid is split into chunks
        of ``chunk_size`` targets; each chunk is one work item, so the
        usable worker count scales with the grid size rather than being
        capped at the number of test cases.  Golden Runs (and their
        prefix-reuse checkpoints and fast-forward digests) are computed
        once per test case in the parent process; the workers replay
        only the injection suffixes.

        The campaign-wide payload is shipped *once per worker* through
        the pool initializer, not once per chunk: each Golden-Run trace
        set is packed into one flat ``array('q')`` published via
        ``multiprocessing.shared_memory`` (workers map it zero-copy;
        when shared memory is unavailable the packed bytes ride along
        in the payload instead), checkpoints travel stripped of their
        trace prefixes (reconstructed worker-side from the shared
        Golden Run), and each worker keeps its runtime and Golden-Run
        views cached across chunks.  A chunk task is then just
        ``(case_id, targets)``.

        Produces bit-identical outcomes to :meth:`execute` (per-run
        seeds are derived from the configuration, not from execution
        order, and chunks are collected in grid order).  Restrictions
        compared to the serial path:

        * ``run_factory`` must be picklable (a module-level callable,
          e.g. :func:`repro.arrestment.build_arrestment_run`);
        * no ``inspector`` hook (IR traces never leave the workers).

        Parameters
        ----------
        max_workers:
            Worker processes (defaults to the machine's CPU count).
        progress:
            Optional ``(completed, total)`` callback reporting
            *completed injection runs* after each finished chunk.
        chunk_size:
            Targets per work item.  Defaults to an even split aiming at
            ~4 chunks per worker (:func:`_default_chunk_size`), so
            stragglers rebalance.  Chunks are cheap (the Golden Run is
            already worker-resident), so fine sharding costs little.
            Adaptive campaigns (:attr:`CampaignConfig.adaptive`) validate
            but do not use it: each round's fresh trials of a case are
            cut into contiguous slices by the same ~4-per-worker rule,
            counted in trials, and concatenated back in schedule order.
        """
        if chunk_size is not None and chunk_size < 1:
            raise CampaignError(f"chunk_size must be >= 1, got {chunk_size}")
        if self._config.adaptive:
            return self._execute_adaptive_parallel(max_workers, progress)
        import dataclasses

        obs = self._observer
        started = time.perf_counter()
        if obs is not None:
            obs.on_campaign_started(self, mode="parallel")
            obs.on_backend_selected(self._exec_backend.name)
        self._lint_gate()
        live_targets, pruned = self._plan_pruning()
        session = self._store_session()
        config = dataclasses.replace(
            self._config, targets=live_targets
        )
        total = self.total_runs()
        if chunk_size is None:
            chunk_size = _default_chunk_size(
                len(self._test_cases) * len(live_targets), max_workers
            )

        case_blobs = []
        segments: list = []
        tasks: list[tuple[str, tuple[tuple[str, str], ...]]] = []
        result = CampaignResult(self._system)
        completed = 0
        if pruned:
            per_target = len(self._test_cases) * self._config.runs_per_target()
            n_arcs = self._record_pruned(result, pruned, per_target)
            if obs is not None:
                obs.on_arcs_pruned(pruned, per_target, n_arcs)
            completed = len(pruned) * per_target
            if progress is not None:
                progress(completed, total)
        case_plans: dict[str, tuple[dict, dict]] = {}
        fresh_by_case: dict[str, dict[tuple[str, str], list[InjectionOutcome]]] = {}
        try:
            for case_id, case in self._test_cases.items():
                case_targets = live_targets
                if session is not None:
                    store, builder, stats = session
                    keys, cached = self._plan_case_store(
                        store, builder, stats, case_id, case,
                        live_targets, pruned,
                    )
                    case_plans[case_id] = (keys, cached)
                    case_targets = tuple(
                        target
                        for target in live_targets
                        if target not in cached
                    )
                    completed += sum(len(runs) for runs in cached.values())
                    if cached and progress is not None:
                        progress(completed, total)
                    if not case_targets:
                        # Fully reused: no Golden Run, no blob, no tasks.
                        continue
                case_blobs.append(self._golden_blob(case_id, segments))
                tasks.extend(
                    (case_id, part)
                    for part in _slices(case_targets, chunk_size)
                )

            if tasks:
                with self._worker_pool(max_workers, config, case_blobs) as pool:
                    for index, (outcomes, obs_payload, elapsed_s) in enumerate(
                        pool.map(_run_shard, tasks)
                    ):
                        if session is None:
                            for outcome in outcomes:
                                result.add(outcome)
                        else:
                            per_case = fresh_by_case.setdefault(
                                tasks[index][0], {}
                            )
                            for outcome in outcomes:
                                per_case.setdefault(
                                    (outcome.module, outcome.input_signal), []
                                ).append(outcome)
                            session[2].runs_executed += len(outcomes)
                        completed += len(outcomes)
                        if obs is not None:
                            chunk_case, chunk_targets = tasks[index]
                            _observe_chunk(
                                obs,
                                index,
                                chunk_case,
                                len(chunk_targets),
                                outcomes,
                                obs_payload,
                                elapsed_s,
                            )
                        if progress is not None:
                            progress(completed, total)
        finally:
            _release_segments(segments)
        if session is not None:
            store, builder, stats = session
            for case_id in self._test_cases:
                keys, cached = case_plans[case_id]
                fresh = fresh_by_case.get(case_id, {})
                self._publish_case_units(store, keys, case_id, fresh, pruned)
                # Recompose in canonical grid order (see execute()).
                for target in live_targets:
                    if target in cached:
                        for_unit = cached[target]
                        if obs is not None:
                            obs.on_unit_reused(
                                case_id,
                                target[0],
                                target[1],
                                len(for_unit),
                                keys[target].digest,
                            )
                            for outcome in for_unit:
                                obs.on_outcome(outcome)
                        for outcome in for_unit:
                            result.add(outcome)
                    else:
                        for outcome in fresh.get(target, []):
                            result.add(outcome)
            self.last_store_stats = stats
        else:
            self.last_store_stats = None
        if obs is not None:
            obs.on_campaign_finished(result, time.perf_counter() - started)
        return result
