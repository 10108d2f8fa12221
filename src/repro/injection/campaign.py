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

One worker protocol
-------------------
:meth:`InjectionCampaign.execute_parallel` hands every worker, once,
through the pool initializer, the system, the config and each case
with its :class:`~repro.injection.golden_run.GoldenRun` as recorded
and its checkpoints stripped of their trace prefixes (rebuilt from the
Golden Run); a task is then just ``(case_id, specs)``.  Workers return
outcomes and emit nothing: the parent narrates every executed run
from its outcome, through the same helper as the serial path, so one
process stamps every event.  The outcomes cannot depend on which
process ran a trial: every run executes in simulated time.

Pipeline
--------
:meth:`~InjectionCampaign.execute` and
:meth:`~InjectionCampaign.execute_parallel` run one driver,
``InjectionCampaign._execute``, in four parts:

* **plan** — start events, the lint gate, static pruning and one
  result-store lookup over every (case, module, input) row;
* **schedule** — rounds of ``{target: [(case_id, time_ms,
  model_index)]}``: one round holding the whole grid
  (``_ExhaustiveSchedule``), or confidence-driven rounds
  (``_AdaptiveSchedule``, wrapping :class:`repro.adaptive.AdaptiveController`);
* **executor** — runs each case's uncached trials and returns their
  outcomes in spec order: in this process (``_InlineExecutor``, lazy
  Golden Runs, ``inspector`` hook) or over a process pool
  (``_PoolExecutor``, one worker entry :func:`_run_shard`);
* **recompose** — folds cached and fresh outcomes into the result in
  schedule order (canonical grid order for the exhaustive schedule)
  and publishes each row to the store as soon as it is final.
"""

from __future__ import annotations

import itertools
import os
import random
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence, TypeVar

from repro.injection.error_models import ErrorModel, bit_flip_models
from repro.injection.golden_run import GoldenRun, compare_to_golden_run
from repro.injection.outcomes import (
    AdaptiveRow,
    ArcTally,
    CampaignResult,
    InjectionOutcome,
)
from repro.injection.selection import paper_times
from repro.injection.traps import InputInjectionTrap
from repro.model.errors import CampaignError
from repro.model.system import SystemModel
from repro.obs.events import (
    ArcsPruned,
    BackendSelected,
    BudgetExhausted,
    CheckpointReused,
    CheckpointSaved,
    ChunkCompleted,
    LintReported,
    RoundCompleted,
    RunStarted,
    StoreArtifactRejected,
    TargetRetired,
    UnitMissed,
    UnitReused,
)
from repro.simulation.backend import available_backends, get_backend
from repro.simulation.runtime import (
    GoldenReference,
    RunCheckpoint,
    RunResult,
    SimulationRun,
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
    store:
        Optional directory of a content-addressed campaign result
        store (CLI: ``--store DIR``, see docs/INCREMENTAL.md).  Each
        (case, module, signal) target row is keyed on a content hash
        of everything its outcomes depend on; rows whose key is
        already stored are *reused* instead of injected, and freshly
        executed rows are published for the next campaign.  The
        recomposed result is byte-identical to a cold run (pinned by
        the ``incremental-parity`` verify oracle).  The field is pure
        execution strategy and does not participate in the config hash
        or the unit keys.
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
        Adaptive stopping threshold, and the only adaptive setting:
        retire a target once its widest output-arc Wilson half-width
        drops below this.  Each round hands out twice as many trials as
        there are live targets, widest interval first; a target's own
        grid is the only cap on its trials.  ``None`` resolves to 0.05.
        Requires ``adaptive=True``.
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
    static_prune: bool = False
    store: str | None = None
    no_cache: bool = False
    adaptive: bool = False
    ci_width: float | None = None

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
        if min(self.injection_times_ms) < 0:
            raise CampaignError(
                f"injection time {min(self.injection_times_ms)} ms is negative"
            )
        # A repeated grid coordinate re-runs the same IR under the same
        # seed and would count twice in every n_inj.
        if len(set(self.injection_times_ms)) != len(self.injection_times_ms):
            raise CampaignError(
                f"injection times repeat: {list(self.injection_times_ms)}"
            )
        names = [model.name for model in self.error_models]
        if len(set(names)) != len(names):
            raise CampaignError(f"error model names repeat: {names}")
        if self.backend not in available_backends():
            raise CampaignError(
                f"unknown simulation backend {self.backend!r}; expected one "
                f"of {', '.join(available_backends())}"
            )
        if self.ci_width is not None:
            if not self.adaptive:
                raise CampaignError("ci_width requires adaptive=True (--adaptive)")
            if not 0.0 < self.ci_width < 0.5:
                raise CampaignError(
                    f"ci_width must lie in (0, 0.5), got {self.ci_width}"
                )

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
#: slices the worker runs: the campaign payload (shipped once per worker
#: through the pool initializer, not once per slice) plus each case's
#: runtime, built on the case's first slice.
_WORKER_STATE: dict | None = None


def _worker_init(payload: tuple) -> None:
    """Pool initializer: receive the campaign payload once per worker."""
    global _WORKER_STATE
    system, run_factory, config, observe, cases = payload
    _WORKER_STATE = {
        "system": system,
        "run_factory": run_factory,
        "config": config,
        "observe": observe,
        "cases": cases,
        "runners": {},
    }


def _run_shard(
    task: tuple[str, Sequence[tuple[str, str, int, int]]],
) -> tuple[list[InjectionOutcome], dict | None, float]:
    """Worker entry point: run one slice ``(case_id, specs)`` of a round.

    Each spec is ``(module, signal, time_ms, model_index)``; the
    parent's schedule decides the exact points, so no grid expansion
    happens worker-side.  The case's Golden Run and stripped
    checkpoints are already worker-resident; its runtime is built on
    first use.  The worker emits no events: it returns the outcomes in
    spec order (IR traces stay worker-local), the slice's timers when
    the parent observes (``None`` otherwise) and the task's wall-clock
    seconds, and the parent narrates each run from its outcome.
    """
    started = time.perf_counter()
    case_id, specs = task
    state = _WORKER_STATE
    assert state is not None, "worker used before _worker_init ran"
    case, golden, checkpoints = state["cases"][case_id]
    runner = state["runners"].get(case_id)
    if runner is None:
        runner = state["runners"][case_id] = state["run_factory"](case)
        runner.clear_hooks()
    metrics = None
    observer = None
    if state["observe"]:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.observer import CampaignObserver

        # Nothing emits into it: it only carries the slice's timers.
        metrics = MetricsRegistry()
        observer = CampaignObserver(metrics=metrics)
    runner.set_metrics(metrics)
    try:
        campaign = InjectionCampaign(
            state["system"],
            state["run_factory"],
            {case_id: case},
            state["config"],
            observer=observer,
        )
        context = _CaseContext(campaign, runner, golden, specs, checkpoints)
        outcomes = [
            outcome
            for outcome, _ in campaign._exec_backend.case_injections(context)
        ]
    finally:
        runner.set_metrics(None)
    timers = metrics.to_dict() if metrics is not None else None
    return outcomes, timers, time.perf_counter() - started


# perfbench/layers.py patches both ``_run_shard`` and this name at run
# time, so the old adaptive entry point stays as an alias.
_run_adaptive_shard = _run_shard


def _default_chunk_size(n_items: int, max_workers: int | None) -> int:
    """Items per pool task so ``n_items`` split into ~4 tasks per worker.

    The one split rule of the pool executor, counted in trials: each
    round cuts each case's fresh trials with it.  Several tasks per
    worker let stragglers rebalance; tasks are cheap because the Golden
    Run is already worker-resident.
    """
    workers = max_workers or os.cpu_count() or 1
    return max(1, -(-n_items // (4 * workers)))


def _slices(items: Sequence, size: int) -> list[Sequence]:
    """``items`` cut into contiguous slices of at most ``size``, in order."""
    return [items[start : start + size] for start in range(0, len(items), size)]


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

    Built from explicit ``(module, signal, time_ms, model_index)``
    specs — a whole case grid or any subset a schedule picked — and
    owns Golden-Run comparison and outcome records for one test case,
    so backends only decide *how* runs execute (see
    :mod:`repro.simulation.backend`).  ``keep_traces`` is set when an
    inspector will read each run's traces; otherwise a backend that
    compares runs while stepping may hand out none.
    """

    def __init__(
        self,
        campaign: "InjectionCampaign",
        runner: SimulationRun,
        golden: GoldenRun,
        specs: Sequence[tuple[str, str, int, int]],
        checkpoints: Mapping[int, RunCheckpoint],
        keep_traces: bool = False,
    ) -> None:
        self._campaign = campaign
        self.runner = runner
        self.golden = golden
        self.golden_ref = golden.reference
        self.config = campaign.config
        self.keep_traces = keep_traces
        models = self.config.error_models
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

    @property
    def metrics(self):
        """The observer's metrics registry, if observability is on."""
        obs = self._campaign.observer
        return None if obs is None else obs.metrics

    def injection_points(self) -> Iterator[_InjectionPoint]:
        """The case's planned injections, in spec order."""
        return iter(self._points)

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

    def record_result(
        self,
        point: _InjectionPoint,
        injected: RunResult,
        fired_at_ms: int | None,
    ) -> tuple[InjectionOutcome, RunResult]:
        """Fold a backend-computed run into the campaign record."""
        return self._campaign._finish_injection(
            self.golden, point, injected, fired_at_ms
        )


#: One round of a schedule: target -> trials ``(case_id, time_ms,
#: model_index)``, targets in canonical order.
_Round = Mapping[tuple[str, str], Sequence[tuple[str, int, int]]]


class _ExhaustiveSchedule:
    """The paper's full grid (Section 6) as one round.

    The round holds every unpruned trial; each target's trials run case
    by case, instant by instant, model by model, so regrouping the
    round per case walks the canonical grid order.  Rows are final from
    the start: each is published as soon as its case is recomposed.
    """

    row_kind = "unit"
    rows_final = True

    def __init__(
        self,
        campaign: "InjectionCampaign",
        live_targets: Sequence[tuple[str, str]],
        result: CampaignResult,
    ) -> None:
        self._round = dict.fromkeys(live_targets, campaign._grid_trials())
        self.finished = not live_targets

    def row_digest(self, base: str) -> str:
        """Store key of a row: the unit key itself."""
        return base

    def next_round(self) -> _Round:
        """The whole grid, once."""
        self.finished = True
        return self._round

    def complete_round(
        self, outcomes: Sequence[InjectionOutcome]
    ) -> tuple[tuple[str, str], ...]:
        """Nothing to measure; every row was final already."""
        return ()


class _AdaptiveSchedule:
    """Confidence-driven rounds (:attr:`CampaignConfig.adaptive`).

    Wraps :class:`repro.adaptive.AdaptiveController`: each target draws
    ``(case_id, time_ms, model_index)`` trials from a seeded permutation
    of its own exhaustive grid.  The schedule owns the Wilson
    measurements between rounds, the :class:`AdaptiveRow` records and
    the adaptive observer events.  A row becomes final when its target
    retires.
    """

    row_kind = "adaptive-unit"
    rows_final = False

    def __init__(
        self,
        campaign: "InjectionCampaign",
        live_targets: Sequence[tuple[str, str]],
        result: CampaignResult,
    ) -> None:
        from repro.adaptive import AdaptiveController

        config = campaign.config
        self._system = campaign._system
        self._obs = campaign.observer
        self._result = result
        # Resolved stopping parameters (store keys use the resolved
        # values, so configs that only spell the defaults differently
        # share adaptive rows).
        self._z = z = 1.96
        ci_width = config.ci_width if config.ci_width is not None else 0.05
        round_size = max(1, 2 * len(live_targets))
        pool = campaign._grid_trials()
        self._n_pool = len(pool)
        self._key_params = {"ci_width": ci_width, "round_size": round_size, "z": z}
        self._controller: AdaptiveController[tuple[str, int, int]] = (
            AdaptiveController(
                {target: pool for target in live_targets},
                ci_width=ci_width,
                round_size=round_size,
                seed=config.seed,
                z=z,
            )
        )
        self._tally = ArcTally.of_system(self._system)

    @property
    def finished(self) -> bool:
        """Whether every target has retired."""
        return self._controller.finished

    def row_digest(self, base: str) -> str:
        """Store key of an adaptive row: unit key plus stopping rule."""
        from repro.store.fingerprints import content_digest

        return content_digest({"kind": "adaptive", "base": base, **self._key_params})

    def next_round(self) -> _Round:
        """The controller's next allocation of trials."""
        return self._controller.next_round()

    def complete_round(
        self, outcomes: Sequence[InjectionOutcome]
    ) -> tuple[tuple[str, str], ...]:
        """Measure the round's outcomes; retire targets; return them.

        A target's measurement is the widest Wilson half-width across
        its output arcs (and that arc's point estimate); a target that
        has no trial yet is totally ignorant (half-width 0.5).
        """
        from repro.adaptive import TargetMeasurement

        controller = self._controller
        tally = self._tally
        for outcome in outcomes:
            tally.add_outcome(outcome)
        measurements = {}
        for target in controller.open_targets():
            module, signal = target
            if controller.n_taken(target) == 0:
                measurements[target] = TargetMeasurement(0.5, 0.5)
                continue
            half = -1.0
            point = 0.0
            for output in self._system.module(module).outputs:
                arc = tally.arc(module, signal, output)
                lo, hi = arc.wilson_interval(self._z)
                if (hi - lo) / 2.0 > half:
                    half = (hi - lo) / 2.0
                    point = arc.permeability
            if half < 0.0:
                half = 0.0  # a target with no output arcs
            measurements[target] = TargetMeasurement(
                half_width=half, point_estimate=point
            )
        obs = self._obs
        retirees = controller.complete_round(measurements)
        for retiree in retirees:
            self._result.record_adaptive(
                AdaptiveRow(
                    module=retiree.module,
                    input_signal=retiree.signal,
                    n_trials=retiree.n_trials,
                    n_grid=self._n_pool,
                    half_width=retiree.half_width,
                    reason=retiree.reason,
                    round_index=retiree.round_index,
                )
            )
            if obs is not None:
                obs.emit(
                    TargetRetired(
                        module=retiree.module,
                        signal=retiree.signal,
                        n_trials=retiree.n_trials,
                        half_width=retiree.half_width,
                        reason=retiree.reason,
                        round_index=retiree.round_index,
                    )
                )
        if obs is not None:
            obs.emit(
                RoundCompleted(
                    round_index=controller.round_index,
                    n_trials=len(outcomes),
                    n_open=len(controller.open_targets()),
                )
            )
        if controller.finished:
            # Report the targets that retired short of confidence.
            unconverged: dict[str, int] = {}
            for retiree in controller.retired():
                if retiree.reason != "confidence":
                    unconverged[retiree.reason] = (
                        unconverged.get(retiree.reason, 0) + 1
                    )
            if unconverged and obs is not None:
                obs.emit(
                    BudgetExhausted(
                        n_targets=sum(unconverged.values()), reasons=unconverged
                    )
                )
        return tuple((retiree.module, retiree.signal) for retiree in retirees)


class _InlineExecutor:
    """Runs a round's trials in this process, case by case.

    Golden Runs are recorded lazily, on a case's first batch.  Every
    run is narrated from its outcome, then reaches the ``inspector``
    with its full traces (recorded only when there is one) and
    advances progress by one.  With
    ``keep_cases`` off (a single-round schedule) a case's runtime and
    checkpoints are dropped right after its batch, so a multi-case
    campaign never holds every case's trace prefixes.
    """

    def __init__(
        self,
        campaign: "InjectionCampaign",
        inspector: InspectorCallback | None,
    ) -> None:
        self._campaign = campaign
        self._inspector = inspector
        self._cases: dict[str, tuple] = {}
        self._keep_cases = False
        self._advance: Callable[[int], None] = lambda n_runs: None

    def start(
        self,
        need_cases: Sequence[str],
        advance: Callable[[int], None],
        keep_cases: bool,
    ) -> None:
        """Take the progress hook; case state is recorded lazily."""
        self._advance = advance
        self._keep_cases = keep_cases

    def run(
        self, batches: Sequence[tuple[str, Sequence]]
    ) -> Iterator[tuple[str, list[InjectionOutcome]]]:
        """Yield ``(case_id, outcomes in spec order)`` per batch, lazily."""
        for case_id, specs in batches:
            yield case_id, self._run_case(case_id, specs)

    def _run_case(
        self, case_id: str, specs: Sequence
    ) -> list[InjectionOutcome]:
        campaign = self._campaign
        entry = self._cases.get(case_id) or campaign._golden_for_case(
            case_id, campaign._test_cases[case_id]
        )
        runner, golden, checkpoints = entry
        context = _CaseContext(
            campaign,
            runner,
            golden,
            specs,
            checkpoints,
            keep_traces=self._inspector is not None,
        )
        outcomes = []
        for outcome, injected in campaign._exec_backend.case_injections(
            context
        ):
            campaign._narrate_run(outcome)
            if self._inspector is not None:
                self._inspector(outcome, injected, golden)
            outcomes.append(outcome)
            self._advance(1)
        if self._keep_cases:
            self._cases[case_id] = entry
        return outcomes

    def close(self) -> None:
        """Drop every kept case runtime and its checkpoints."""
        self._cases.clear()


class _PoolExecutor:
    """Runs each round's trials over one long-lived worker pool.

    :meth:`start` records the Golden Runs of the cases that may execute
    at all (rows the result store cannot fully answer) and starts the
    pool once, handing each worker every such case with its Golden Run
    and stripped checkpoints; workers keep their per-case runtimes
    cached across rounds.  Each case's trials are cut into contiguous
    slices (:func:`_default_chunk_size`), so every worker has work even
    when the grid has one case.  Workers emit no events: the parent
    narrates each slice's runs from their outcomes, merges the slice's
    timers and advances progress per slice.
    """

    def __init__(
        self, campaign: "InjectionCampaign", max_workers: int | None
    ) -> None:
        self._campaign = campaign
        self._max_workers = max_workers
        self._pool = None
        self._chunk_index = itertools.count()
        self._advance: Callable[[int], None] = lambda n_runs: None

    def start(
        self,
        need_cases: Sequence[str],
        advance: Callable[[int], None],
        keep_cases: bool,
    ) -> None:
        """Record the Golden Runs of ``need_cases``; start the pool."""
        self._advance = advance
        campaign = self._campaign
        cases = {}
        for case_id in need_cases:
            case = campaign._test_cases[case_id]
            _, golden, checkpoints = campaign._golden_for_case(case_id, case)
            cases[case_id] = (
                case,
                golden,
                {
                    time_ms: checkpoint.without_trace_prefix()
                    for time_ms, checkpoint in checkpoints.items()
                },
            )
        if cases:
            self._pool = campaign._worker_pool(self._max_workers, cases)

    def run(
        self, batches: Sequence[tuple[str, Sequence]]
    ) -> Iterator[tuple[str, list[InjectionOutcome]]]:
        """Dispatch every slice at once; yield per case, in batch order."""
        assert self._pool is not None, "fresh trials without worker cases"
        campaign = self._campaign
        obs = campaign.observer
        sliced = []
        for case_id, specs in batches:
            size = _default_chunk_size(len(specs), self._max_workers)
            sliced.append((case_id, _slices(specs, size)))
        results = iter(
            self._pool.map(
                _run_shard,
                [(case_id, part) for case_id, parts in sliced for part in parts],
            )
        )
        for case_id, parts in sliced:
            outcomes: list[InjectionOutcome] = []
            for part, (got, timers, elapsed_s) in zip(parts, results):
                outcomes.extend(got)
                if obs is not None:
                    for outcome in got:
                        campaign._narrate_run(outcome)
                    if obs.metrics is not None:
                        if timers is not None:
                            obs.metrics.merge(timers)
                        obs.metrics.histogram("chunk.seconds").observe(elapsed_s)
                    obs.emit(
                        ChunkCompleted(
                            chunk_index=next(self._chunk_index),
                            case_id=case_id,
                            n_targets=len({(m, s) for m, s, _, _ in part}),
                            n_runs=len(got),
                            elapsed_s=elapsed_s,
                        )
                    )
                self._advance(len(got))
            yield case_id, outcomes

    def close(self) -> None:
        """Stop the pool."""
        if self._pool is not None:
            self._pool.shutdown()


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
        Optional :class:`~repro.obs.observer.CampaignObserver`: the
        campaign emits its typed events into it and times its spans
        with its registry while it executes.  ``None`` (the default)
        disables observability at the cost of one pointer test per
        emission site.
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
            targets = tuple(self._config.targets)
        else:
            targets = tuple(
                (module_name, signal)
                for module_name in self._system.module_names()
                for signal in self._system.module(module_name).inputs
            )
        # Probe each (model, width) once, so an error model that cannot
        # corrupt a target fails here rather than mid-campaign; the
        # width rule stays in the model's own apply().
        probed = set()
        rng = random.Random(0)
        for module, signal in targets:
            width = self._system.signal(signal).width
            for index, model in enumerate(self._config.error_models):
                if (index, width) in probed:
                    continue
                probed.add((index, width))
                try:
                    model.apply(0, width, rng)
                except ValueError as exc:
                    raise CampaignError(
                        f"error model {model.name!r} cannot inject into "
                        f"({module!r}, {signal!r}): {exc}"
                    ) from exc
        return targets

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

    def _grid_trials(self) -> tuple[tuple[str, int, int], ...]:
        """One target's exhaustive trials ``(case_id, time_ms,
        model_index)``, in canonical grid order."""
        config = self._config
        return tuple(
            (case_id, time_ms, model_index)
            for case_id in self._test_cases
            for time_ms in config.injection_times_ms
            for model_index in range(len(config.error_models))
        )

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
                obs.emit(StoreArtifactRejected(key=key, path=path, reason=reason))

        store = ResultStore(self._config.store, on_reject=reject)
        builder = UnitKeyBuilder(self._system, self._run_factory, self._config)
        return store, builder, stats

    def _encode_unit(
        self,
        kind: str,
        case_id: str,
        module: str,
        signal: str,
        outcomes: Sequence[InjectionOutcome],
    ) -> dict:
        """Store payload of one executed target row: its outcome records,
        from which recomposition rebuilds :class:`CampaignResult`."""
        return {
            "kind": kind,
            "case_id": case_id,
            "module": module,
            "signal": signal,
            "n_runs": len(outcomes),
            "outcomes": [outcome.to_jsonable() for outcome in outcomes],
        }

    def _fetch_unit(
        self, store, digest: str, kind: str, row: tuple[str, str, str]
    ) -> list[InjectionOutcome] | None:
        """Outcomes of the stored ``kind`` row ``(case_id, module,
        signal)`` under ``digest``, or ``None`` when it cannot be reused.

        A ``"unit"`` is an exhaustive row: a payload whose outcome count
        does not match this campaign's grid cannot recompose
        byte-identically.  An ``"adaptive-unit"`` holds however many
        trials the stopping rule needed; reuse stays sound at trial
        granularity because recomposition only consumes cached outcomes
        at exactly the scheduled grid coordinates, and per-run seeds
        depend on coordinates alone.  Pruned records (no per-run data),
        other kinds and payloads naming another row are misses.
        """
        payload = store.fetch(digest)
        if payload is None or payload.get("kind") != kind:
            return None
        raw = payload.get("outcomes")
        if not isinstance(raw, list) or not raw:
            return None
        if kind == "unit" and len(raw) != self._config.runs_per_target():
            return None
        try:
            decoded = [InjectionOutcome.from_jsonable(entry) for entry in raw]
        except (KeyError, TypeError):
            return None
        for outcome in decoded:
            if (outcome.case_id, outcome.module, outcome.input_signal) != row:
                return None
        return decoded

    def _plan_store(
        self,
        session,
        live_targets: Sequence[tuple[str, str]],
        pruned: Sequence[tuple[str, str]],
        schedule,
    ) -> tuple[dict, dict]:
        """Key every row, fetch the reusable ones, publish pruned records.

        Returns ``(cache, row_keys)``.  ``cache`` maps each hit ``(case_id,
        target)`` to ``(digest, {(time_ms, model name): outcome})``: a
        stored exhaustive unit satisfies any request; failing that, an
        adaptive schedule accepts its own earlier rows.  ``row_keys``
        maps every cacheable live row to the key its fresh result is
        published under.  A pruned record shares its key with the full
        unit the target would produce if executed (the key excludes
        ``static_prune``), so it is only written where nothing is stored
        yet — a full unit is never clobbered by the poorer pruned form.
        """
        cache: dict = {}
        row_keys: dict = {}
        if session is None:
            return cache, row_keys
        store, builder, stats = session
        obs = self._observer
        for case_id, case in self._test_cases.items():
            keys = builder.keys_for_case(
                case_id, case, (*live_targets, *pruned)
            )
            for target in live_targets:
                key = keys[target]
                if not key.cacheable:
                    stats.uncacheable += 1
                    continue
                row = (case_id, *target)
                row_keys[(case_id, target)] = schedule.row_digest(key.digest)
                if self._config.no_cache:
                    continue
                digest = key.digest
                outcomes = self._fetch_unit(store, digest, "unit", row)
                if outcomes is None and schedule.row_kind != "unit":
                    digest = row_keys[(case_id, target)]
                    outcomes = self._fetch_unit(
                        store, digest, schedule.row_kind, row
                    )
                if outcomes is None:
                    stats.misses += 1
                    if obs is not None:
                        obs.emit(
                            UnitMissed(
                                case_id=case_id, module=target[0], signal=target[1]
                            )
                        )
                    continue
                stats.hits += 1
                cache[(case_id, target)] = (
                    digest,
                    {(o.scheduled_time_ms, o.error_model): o for o in outcomes},
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
        return cache, row_keys

    def _worker_pool(self, max_workers: int | None, cases: dict[str, tuple]):
        """A process pool whose workers receive the campaign payload once.

        ``cases`` maps each case id to ``(case, GoldenRun, stripped
        checkpoints)``.
        """
        import concurrent.futures

        payload = (
            self._system,
            self._run_factory,
            self._config,
            self._observer is not None,
            cases,
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
            self._observer.emit(
                LintReported(
                    system=report.system_name,
                    errors=len(report.errors()),
                    warnings=len(report.warnings()),
                    info=len(report.infos()),
                    codes=report.codes(),
                    diagnostics=tuple(d.to_dict() for d in report),
                )
            )
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
            completed injection run (and once per row reused from the
            result store).
        inspector:
            Optional callback invoked for every injection run *while
            its full traces are still available* (they are discarded
            afterwards to bound memory).  Receives the outcome record,
            the injection run's :class:`RunResult` and the test case's
            Golden Run.  Used e.g. by the EDM evaluation layer to replay
            detectors over the traces.  With a result store configured,
            only freshly *executed* runs reach the inspector — reused
            rows carry outcome records, not traces.  The batched
            backend runs the Golden Run Comparison of each lane inside
            its kernel and records lane traces only for an inspector:
            without one, its runs carry ``traces=None``.  With one, each
            trace is a read-only view into one buffer shared by a whole
            lane batch; an inspector that keeps a :class:`RunResult`
            beyond the call should copy the traces it needs (e.g.
            ``array("q", trace.samples)``), or it keeps the whole buffer
            alive.
        """
        return self._execute(_InlineExecutor(self, inspector), progress, "serial")

    def execute_parallel(
        self,
        max_workers: int | None = None,
        progress: ProgressCallback | None = None,
    ) -> CampaignResult:
        """Run the campaign over a process pool.

        Each case's trials of a round — the whole grid for an exhaustive
        campaign, one round's sample for an adaptive one — are cut into
        contiguous slices of ~4 per worker (:func:`_default_chunk_size`,
        counted in trials), so the usable worker count scales with the
        grid size rather than being capped at the number of test cases.
        Golden Runs (and their prefix-reuse checkpoints and fast-forward
        digests) are computed once per test case in the parent process;
        the workers replay only the injection suffixes.

        The campaign-wide payload is shipped *once per worker* through
        the pool initializer, not once per slice: each case with its
        Golden Run as recorded and its checkpoints stripped of their
        trace prefixes (rebuilt worker-side from the Golden Run).  Each
        worker builds a case's runtime on its first slice and keeps it
        across slices.  A slice task is then just ``(case_id, specs)``;
        it returns the outcomes, and the parent emits every run's
        events from them.

        Produces bit-identical outcomes to :meth:`execute` (per-run
        seeds are derived from the configuration, not from execution
        order, and slices are collected in schedule order).
        Restrictions compared to the serial path:

        * ``run_factory`` must be picklable (a module-level callable,
          e.g. :func:`repro.arrestment.build_arrestment_run`);
        * no ``inspector`` hook (IR traces never leave the workers).

        Parameters
        ----------
        max_workers:
            Worker processes (defaults to the machine's CPU count).
        progress:
            Optional ``(completed, total)`` callback reporting
            *completed injection runs* after each finished slice (and
            each row reused from the result store).
        """
        return self._execute(_PoolExecutor(self, max_workers), progress, "parallel")

    def _execute(
        self,
        executor: "_InlineExecutor | _PoolExecutor",
        progress: ProgressCallback | None,
        mode: str,
    ) -> CampaignResult:
        """The one campaign driver: plan, schedule, execute, recompose.

        See "Pipeline" in the module docstring.  Each round is regrouped
        per case (in case order); a case's cached trials come from the
        store plan, its fresh ones from ``executor`` in spec order, and
        both fold into the result in schedule order.  A row is published
        as soon as it is final: after its case is recomposed for the
        exhaustive schedule, when its target retires for the adaptive
        one.
        """
        obs = self._observer
        config = self._config
        started = time.perf_counter()
        if obs is not None:
            obs.campaign_started(self, mode=mode)
            obs.emit(BackendSelected(backend=self._exec_backend.name))

        # Plan: lint gate, static pruning, one store lookup.
        self._lint_gate()
        live_targets, pruned = self._plan_pruning()
        result = CampaignResult(self._system)
        total = self.total_runs()
        completed = 0

        def advance(n_runs: int) -> None:
            nonlocal completed
            completed += n_runs
            if progress is not None:
                progress(completed, total)

        if pruned:
            # Pruned targets are exact zero-error counts.
            per_target = len(self._test_cases) * config.runs_per_target()
            n_arcs = 0
            for module, signal in pruned:
                result.record_pruned(module, signal, per_target)
                n_arcs += len(self._system.module(module).outputs)
            if obs is not None:
                obs.emit(
                    ArcsPruned(
                        targets=pruned,
                        n_injections_per_target=per_target,
                        n_arcs=n_arcs,
                    )
                )
            advance(len(pruned) * per_target)
        schedule = (
            _AdaptiveSchedule if config.adaptive else _ExhaustiveSchedule
        )(self, live_targets, result)
        session = self._store_session()
        cache, row_keys = self._plan_store(
            session, live_targets, pruned, schedule
        )
        stats = session[2] if session is not None else None
        case_ids = self.case_ids()
        model_names = [model.name for model in config.error_models]
        no_hit: tuple[None, dict] = (None, {})
        need_cases = tuple(
            case_id
            for case_id in case_ids
            if any(
                len(cache.get((case_id, target), no_hit)[1])
                < config.runs_per_target()
                for target in live_targets
            )
        )

        # Every outcome so far of each cacheable row; a row is published
        # only if it ran at least one fresh trial (``fresh_rows``).
        achieved: dict[tuple[str, tuple[str, str]], list] = {}
        fresh_rows: set[tuple[str, tuple[str, str]]] = set()

        def publish(row: tuple[str, tuple[str, str]]) -> None:
            outcomes = achieved.pop(row, None)
            if outcomes is not None and row in fresh_rows:
                session[0].put(
                    row_keys[row],
                    self._encode_unit(
                        schedule.row_kind, row[0], *row[1], outcomes
                    ),
                )

        try:
            executor.start(need_cases, advance, keep_cases=not schedule.rows_final)
            while not schedule.finished:
                # Schedule: regroup the round per case; split cached
                # trials from the fresh specs the executor must run.
                per_case: dict[str, list] = {case_id: [] for case_id in case_ids}
                for target, trials in schedule.next_round().items():
                    for case_id, time_ms, model_index in trials:
                        per_case[case_id].append((target, time_ms, model_index))
                plans = []
                batches = []
                for case_id in case_ids:
                    entries = []
                    specs = []
                    n_reused: dict[tuple[str, str], int] = {}
                    for target, time_ms, model_index in per_case[case_id]:
                        outcome = cache.get((case_id, target), no_hit)[1].get(
                            (time_ms, model_names[model_index])
                        )
                        if outcome is None:
                            specs.append((*target, time_ms, model_index))
                        else:
                            n_reused[target] = n_reused.get(target, 0) + 1
                        entries.append((target, outcome))
                    if entries:
                        plans.append((case_id, entries, n_reused, bool(specs)))
                    if specs:
                        batches.append((case_id, tuple(specs)))

                # Execute and recompose, case by case in schedule order.
                fresh_runs = executor.run(batches)
                round_outcomes: list[InjectionOutcome] = []
                for case_id, entries, n_reused, has_fresh in plans:
                    fresh_outcomes: list[InjectionOutcome] = []
                    if has_fresh:
                        ran_case, fresh_outcomes = next(fresh_runs)
                        assert ran_case == case_id, (ran_case, case_id)
                    fresh = iter(fresh_outcomes)
                    for target, outcome in entries:
                        row = (case_id, target)
                        if outcome is None:
                            outcome = next(fresh)
                            fresh_rows.add(row)
                            if stats is not None:
                                stats.runs_executed += 1
                        else:
                            # UnitReused precedes the row's replays this round.
                            n_cached = n_reused.pop(target, 0)
                            if n_cached:
                                if obs is not None:
                                    obs.emit(
                                        UnitReused(
                                            case_id=case_id,
                                            module=target[0],
                                            signal=target[1],
                                            n_runs=n_cached,
                                            key=cache[row][0],
                                        )
                                    )
                                stats.runs_reused += n_cached
                                advance(n_cached)
                            if obs is not None:
                                obs.run_finished(outcome)
                        if row in row_keys:
                            achieved.setdefault(row, []).append(outcome)
                        result.add(outcome)
                        round_outcomes.append(outcome)
                    if schedule.rows_final:
                        for target in live_targets:
                            publish((case_id, target))
                for target in schedule.complete_round(round_outcomes):
                    for case_id in case_ids:
                        publish((case_id, target))
        finally:
            executor.close()
        self.last_store_stats = stats
        if obs is not None:
            obs.campaign_finished(result, time.perf_counter() - started)
        return result

    def _timer(self, name: str):
        """The observer's metrics span ``name``, or a no-op without one."""
        obs = self._observer
        if obs is None or obs.metrics is None:
            return nullcontext()
        return obs.metrics.timer(name)

    def _golden_for_case(
        self, case_id: str, case: CaseT
    ) -> tuple[SimulationRun, GoldenRun, dict[int, RunCheckpoint]]:
        """Build the runtime and record the Golden Run of one test case.

        With prefix reuse enabled, checkpoints are captured at every
        configured injection time while the Golden Run executes; with
        fast-forward enabled, per-frame state digests as well.
        """
        obs = self._observer
        config = self._config
        runner = self._run_factory(case)
        runner.clear_hooks()
        if obs is not None:
            if obs.metrics is not None:
                runner.set_metrics(obs.metrics)
            obs.emit(RunStarted(case_id=case_id, kind="golden"))
        with self._timer("phase.golden_run.seconds"):
            recorded = runner.run_with_checkpoints(
                config.duration_ms,
                config.injection_times_ms if config.reuse_golden_prefix else (),
                frame_digests=config.fast_forward,
            )
        golden_result, checkpoints = recorded[:2]
        if obs is not None:
            for time_ms in sorted(checkpoints):
                obs.emit(CheckpointSaved(case_id=case_id, time_ms=time_ms))
        golden = GoldenRun(
            case_id=case_id,
            result=golden_result,
            digests=recorded[2] if config.fast_forward else None,
            initials=runner.store.initial_values(),
        )
        self._golden_runs[case_id] = golden
        return runner, golden, checkpoints

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
        """Arm one trap, execute one IR and record its outcome."""
        if runner.hooks_installed:
            raise CampaignError(
                "runtime has hooks installed from a previous run; "
                "refusing to arm a trap on a dirty runtime"
            )
        point = _InjectionPoint(module, signal, time_ms, model, checkpoint)
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
        duration_ms = self._config.duration_ms
        try:
            with self._timer("phase.injection_run.seconds"):
                if checkpoint is not None:
                    injected = runner.run_from(checkpoint, duration_ms, golden_ref)
                else:
                    injected = runner.run(duration_ms, golden_ref)
        finally:
            runner.clear_hooks()
        return self._finish_injection(golden, point, injected, trap.fired_at_ms)

    def _finish_injection(
        self,
        golden: GoldenRun,
        point: _InjectionPoint,
        injected: "RunResult",
        fired_at_ms: int | None,
    ) -> tuple[InjectionOutcome, "RunResult"]:
        """Compare an executed IR to its Golden Run and record the outcome."""
        with self._timer("phase.comparison.seconds"):
            comparison = compare_to_golden_run(golden, injected)
        outcome = InjectionOutcome(
            case_id=golden.case_id,
            module=point.module,
            input_signal=point.signal,
            scheduled_time_ms=point.time_ms,
            fired_at_ms=fired_at_ms,
            error_model=point.model.name,
            comparison=comparison,
            reconverged_at_ms=injected.reconverged_at_ms,
            frames_fast_forwarded=injected.frames_fast_forwarded,
        )
        return outcome, injected

    def _narrate_run(self, outcome: InjectionOutcome) -> None:
        """Emit one executed IR's events, in this process, from its outcome.

        ``RunStarted``, then ``CheckpointReused`` when the run resumed
        from the Golden-Run checkpoint at its injection instant (every
        IR does under :attr:`CampaignConfig.reuse_golden_prefix`), then
        the outcome chain of :meth:`CampaignObserver.run_finished`.
        Both executors call it for every run they execute, whichever
        process ran it; a no-op without an observer.
        """
        obs = self._observer
        if obs is None:
            return
        obs.emit(
            RunStarted(
                case_id=outcome.case_id,
                kind="injection",
                module=outcome.module,
                signal=outcome.input_signal,
                time_ms=outcome.scheduled_time_ms,
                error_model=outcome.error_model,
            )
        )
        if self._config.reuse_golden_prefix:
            obs.emit(
                CheckpointReused(
                    case_id=outcome.case_id,
                    time_ms=outcome.scheduled_time_ms,
                    skipped_ms=outcome.scheduled_time_ms,
                )
            )
        obs.run_finished(outcome)
