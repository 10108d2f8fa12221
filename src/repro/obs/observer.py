"""The campaign-facing façade bundling events, metrics and tracing.

:class:`InjectionCampaign` talks to observability through exactly one
object: a :class:`CampaignObserver` holding an optional
:class:`~repro.obs.events.EventStream`, an optional
:class:`~repro.obs.metrics.MetricsRegistry` and an optional live
:class:`~repro.injection.outcomes.ArcTally`.  Any of the three may be
absent; ``observer=None`` (the default) costs the engine a single
``is None`` test per hook site.  Each ``OutcomeClassified`` event
carries the run's direct-error outputs, from the same rule
(:func:`~repro.injection.outcomes.direct_outputs`) the estimator
applies, over the module topology of the campaign being observed.

The parallel campaign path cannot share an observer across processes.
Instead each worker builds its own via :meth:`CampaignObserver.for_worker`
(events into an unbounded ring buffer, a private metrics registry) and
ships :meth:`worker_payload` back over the chunk-result channel; the
parent folds it in with :meth:`absorb_worker`, preserving the workers'
event timestamps while re-sequencing them into its own stream.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable

from repro.injection.outcomes import ArcTally, direct_outputs
from repro.obs.events import (
    ArcsPruned,
    BackendSelected,
    BudgetExhausted,
    CampaignFinished,
    CampaignStarted,
    CheckpointReused,
    CheckpointSaved,
    ChunkCompleted,
    EventStream,
    InjectionFired,
    JsonlSink,
    LintReported,
    MultiSink,
    OutcomeClassified,
    PrettyPrintSink,
    RingBufferSink,
    RoundCompleted,
    RunReconverged,
    RunStarted,
    StoreArtifactRejected,
    TargetRetired,
    UnitReused,
    build_manifest,
    decode_event,
)
from repro.obs.metrics import DEFAULT_MS_BUCKETS, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.injection.outcomes import CampaignResult, InjectionOutcome

__all__ = ["CampaignObserver"]


class CampaignObserver:
    """Bundle of event stream, metrics registry and live arc tally."""

    def __init__(
        self,
        events: EventStream | None = None,
        metrics: MetricsRegistry | None = None,
        propagation: ArcTally | None = None,
    ) -> None:
        self.events = events
        self.metrics = metrics
        self.propagation = propagation
        self._reused_rows: set[tuple[str, str, str]] = set()
        #: Module -> outputs, for the direct-error rule.
        self._outputs: dict[str, tuple[str, ...]] = {}

    def _use_system(self, system) -> None:
        self._outputs = {
            name: system.module(name).outputs for name in system.module_names()
        }

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def to_files(
        cls,
        events_path=None,
        with_metrics: bool = True,
        pretty: bool = False,
        system=None,
        extra_sinks: Iterable = (),
    ) -> "CampaignObserver":
        """Standard full observer: JSONL events + metrics + tracing.

        ``events_path=None`` keeps events in a bounded ring buffer
        instead of a file; ``pretty=True`` adds stderr narration;
        ``system`` adds a live :class:`ArcTally` of it
        (:attr:`propagation`); ``extra_sinks`` are appended to the
        fan-out (e.g. a live :class:`~repro.obs.dash.sink.DashboardSink`).
        """
        sinks = []
        if events_path is not None:
            sinks.append(JsonlSink(events_path))
        else:
            sinks.append(RingBufferSink())
        if pretty:
            sinks.append(PrettyPrintSink())
        sinks.extend(extra_sinks)
        sink = sinks[0] if len(sinks) == 1 else MultiSink(*sinks)
        return cls(
            events=EventStream(sink),
            metrics=MetricsRegistry() if with_metrics else None,
            propagation=ArcTally.of_system(system) if system is not None else None,
        )

    @classmethod
    def for_worker(cls, system=None) -> "CampaignObserver":
        """Worker-side observer: unbounded buffer + private registry.

        A worker sees no ``on_campaign_started``, so ``system`` supplies
        the module topology its per-IR events apply the direct-error
        rule over.  It keeps no tally: the parent re-folds the returned
        outcomes into its own.
        """
        observer = cls(
            events=EventStream(RingBufferSink(capacity=None)),
            metrics=MetricsRegistry(),
        )
        if system is not None:
            observer._use_system(system)
        return observer

    # ------------------------------------------------------------------
    # Campaign hooks
    # ------------------------------------------------------------------

    def on_campaign_started(self, campaign, mode: str) -> None:
        self._reused_rows.clear()
        self._use_system(campaign._system)
        if self.events is not None:
            self.events.emit(
                CampaignStarted(
                    manifest=build_manifest(campaign).to_dict(),
                    total_runs=campaign.total_runs(),
                    n_cases=len(campaign.case_ids()),
                    n_targets=len(campaign.targets),
                    runs_per_target=campaign.config.runs_per_target(),
                    mode=mode,
                )
            )
        if self.metrics is not None:
            self.metrics.gauge("campaign.total_runs").set(campaign.total_runs())

    def on_backend_selected(self, backend: str) -> None:
        """Record which simulation backend executes the injection runs."""
        if self.events is not None:
            self.events.emit(BackendSelected(backend=backend))

    def on_arcs_pruned(
        self,
        targets: Iterable[tuple[str, str]],
        n_injections_per_target: int,
        n_arcs: int,
    ) -> None:
        """Record statically-pruned targets (see :mod:`repro.flow`)."""
        targets = tuple(tuple(pair) for pair in targets)
        if self.events is not None:
            self.events.emit(
                ArcsPruned(
                    targets=targets,
                    n_injections_per_target=n_injections_per_target,
                    n_arcs=n_arcs,
                )
            )
        if self.metrics is not None:
            self.metrics.counter("prune.targets").inc(len(targets))
            self.metrics.counter("prune.arcs").inc(n_arcs)
            self.metrics.counter("prune.runs_skipped").inc(
                len(targets) * n_injections_per_target
            )

    def on_unit_reused(
        self, case_id: str, module: str, signal: str, n_runs: int, key: str
    ) -> None:
        """Record cached outcomes of one target row replayed from the store.

        ``store.hits`` counts distinct rows: an adaptive row can supply
        cached outcomes in several rounds.
        """
        if self.events is not None:
            self.events.emit(
                UnitReused(
                    case_id=case_id,
                    module=module,
                    signal=signal,
                    n_runs=n_runs,
                    key=key,
                )
            )
        if self.metrics is not None:
            row = (case_id, module, signal)
            if row not in self._reused_rows:
                self._reused_rows.add(row)
                self.metrics.counter("store.hits").inc()
            self.metrics.counter("store.runs_reused").inc(n_runs)

    def on_store_miss(self, case_id: str, module: str, signal: str) -> None:
        """Count one target row the result store could not answer."""
        if self.metrics is not None:
            self.metrics.counter("store.misses").inc()

    def on_store_artifact_rejected(
        self, key: str, path: str, reason: str
    ) -> None:
        """Record a store artifact that failed content verification."""
        if self.events is not None:
            self.events.emit(
                StoreArtifactRejected(key=key, path=path, reason=reason)
            )
        if self.metrics is not None:
            self.metrics.counter("store.rejected").inc()

    def on_target_retired(
        self,
        module: str,
        signal: str,
        n_trials: int,
        half_width: float,
        reason: str,
        round_index: int,
    ) -> None:
        """Record one adaptive target's stopping decision."""
        if self.events is not None:
            self.events.emit(
                TargetRetired(
                    module=module,
                    signal=signal,
                    n_trials=n_trials,
                    half_width=half_width,
                    reason=reason,
                    round_index=round_index,
                )
            )
        if self.metrics is not None:
            self.metrics.counter("adaptive.targets_retired").inc()
            self.metrics.counter(f"adaptive.retired.{reason}").inc()
            self.metrics.counter("adaptive.trials").inc(n_trials)

    def on_round_completed(
        self, round_index: int, n_trials: int, n_open: int
    ) -> None:
        """Record one finished adaptive round."""
        if self.events is not None:
            self.events.emit(
                RoundCompleted(
                    round_index=round_index, n_trials=n_trials, n_open=n_open
                )
            )
        if self.metrics is not None:
            self.metrics.counter("adaptive.rounds").inc()
            self.metrics.gauge("adaptive.targets_open").set(n_open)

    def on_budget_exhausted(self, reasons: dict[str, int]) -> None:
        """Record targets that retired without reaching confidence."""
        n_targets = sum(reasons.values())
        if self.events is not None:
            self.events.emit(
                BudgetExhausted(n_targets=n_targets, reasons=dict(reasons))
            )
        if self.metrics is not None:
            self.metrics.counter("adaptive.unconverged_targets").inc(n_targets)

    def on_lint_report(self, report) -> None:
        """Record the pre-campaign lint pass (a :class:`~repro.lint.LintReport`)."""
        if self.events is not None:
            self.events.emit(
                LintReported(
                    system=report.system_name,
                    errors=len(report.errors()),
                    warnings=len(report.warnings()),
                    info=len(report.infos()),
                    codes=report.codes(),
                    diagnostics=tuple(d.to_dict() for d in report),
                )
            )
        if self.metrics is not None:
            self.metrics.counter("lint.errors").inc(len(report.errors()))
            self.metrics.counter("lint.warnings").inc(len(report.warnings()))

    def on_run_started(
        self,
        case_id: str,
        kind: str,
        module: str | None = None,
        signal: str | None = None,
        time_ms: int | None = None,
        error_model: str | None = None,
    ) -> None:
        if self.events is not None:
            self.events.emit(
                RunStarted(
                    case_id=case_id,
                    kind=kind,
                    module=module,
                    signal=signal,
                    time_ms=time_ms,
                    error_model=error_model,
                )
            )
        if self.metrics is not None:
            self.metrics.counter(f"runs.{kind}").inc()

    def on_checkpoints_saved(self, case_id: str, times_ms: Iterable[int]) -> None:
        times = tuple(times_ms)
        if self.events is not None:
            for time_ms in times:
                self.events.emit(CheckpointSaved(case_id=case_id, time_ms=time_ms))
        if self.metrics is not None:
            self.metrics.counter("checkpoint.saved").inc(len(times))

    def on_checkpoint_reused(
        self, case_id: str, time_ms: int, skipped_ms: int
    ) -> None:
        if self.events is not None:
            self.events.emit(
                CheckpointReused(
                    case_id=case_id, time_ms=time_ms, skipped_ms=skipped_ms
                )
            )
        if self.metrics is not None:
            self.metrics.counter("checkpoint.reused").inc()
            self.metrics.counter("simulated_ms.skipped").inc(skipped_ms)

    def on_outcome(self, outcome: "InjectionOutcome") -> None:
        """Fold one finished IR: events, counters and the arc tally."""
        propagated: tuple[str, ...] = ()
        if self.propagation is not None:
            propagated = self.propagation.add_outcome(outcome)
        elif self.events is not None:
            propagated = direct_outputs(outcome, self._outputs[outcome.module])
        if self.events is not None:
            if outcome.fired:
                assert outcome.fired_at_ms is not None
                self.events.emit(
                    InjectionFired(
                        case_id=outcome.case_id,
                        module=outcome.module,
                        signal=outcome.input_signal,
                        scheduled_ms=outcome.scheduled_time_ms,
                        fired_at_ms=outcome.fired_at_ms,
                        error_model=outcome.error_model,
                    )
                )
            diverged = {
                signal: time
                for signal, time in outcome.comparison.first_divergence_ms.items()
                if time is not None
            }
            if not outcome.fired:
                verdict = "not_fired"
            elif propagated:
                verdict = "propagated"
            else:
                verdict = "no_effect"
            self.events.emit(
                OutcomeClassified(
                    case_id=outcome.case_id,
                    module=outcome.module,
                    signal=outcome.input_signal,
                    time_ms=outcome.scheduled_time_ms,
                    error_model=outcome.error_model,
                    fired=outcome.fired,
                    outcome=verdict,
                    diverged=diverged,
                    propagated_outputs=propagated,
                )
            )
        if self.events is not None and outcome.reconverged:
            assert outcome.reconverged_at_ms is not None
            self.events.emit(
                RunReconverged(
                    case_id=outcome.case_id,
                    module=outcome.module,
                    signal=outcome.input_signal,
                    time_ms=outcome.scheduled_time_ms,
                    error_model=outcome.error_model,
                    reconverged_at_ms=outcome.reconverged_at_ms,
                    frames_fast_forwarded=outcome.frames_fast_forwarded,
                )
            )
        if self.metrics is not None:
            self.metrics.counter("outcomes.total").inc()
            if outcome.fired:
                self.metrics.counter("outcomes.fired").inc()
            if not outcome.comparison.error_free():
                self.metrics.counter("outcomes.diverged").inc()
            if outcome.reconverged:
                self.metrics.counter("ff.runs_reconverged").inc()
                self.metrics.counter("ff.frames_fast_forwarded").inc(
                    outcome.frames_fast_forwarded
                )
                lifetime = outcome.error_lifetime_ms
                if lifetime is not None:
                    self.metrics.histogram(
                        "ff.error_lifetime.ms", buckets=DEFAULT_MS_BUCKETS
                    ).observe(lifetime)

    def on_chunk_completed(
        self,
        chunk_index: int,
        case_id: str,
        n_targets: int,
        n_runs: int,
        elapsed_s: float,
    ) -> None:
        if self.events is not None:
            self.events.emit(
                ChunkCompleted(
                    chunk_index=chunk_index,
                    case_id=case_id,
                    n_targets=n_targets,
                    n_runs=n_runs,
                    elapsed_s=elapsed_s,
                )
            )
        if self.metrics is not None:
            self.metrics.histogram("chunk.seconds").observe(elapsed_s)
            self.metrics.counter("chunk.completed").inc()

    def dropped_events(self) -> int:
        """Envelopes evicted by bounded ring buffers in the sink chain.

        Non-zero means the in-memory stream is incomplete (older events
        were overwritten); surfaced as the ``events.dropped`` counter
        in ``metrics.json`` and warned about by ``repro obs summarize``.
        """
        if self.events is None:
            return 0
        sink = self.events.sink
        sinks = sink.sinks if isinstance(sink, MultiSink) else (sink,)
        return sum(
            s.dropped for s in sinks if isinstance(s, RingBufferSink)
        )

    def on_campaign_finished(
        self, result: "CampaignResult", elapsed_s: float
    ) -> None:
        if self.metrics is not None:
            self.metrics.gauge("campaign.elapsed_seconds").set(elapsed_s)
            dropped = self.dropped_events()
            if dropped:
                counter = self.metrics.counter("events.dropped")
                counter.inc(dropped - counter.value)
        if self.events is not None:
            self.events.emit(
                CampaignFinished(
                    n_runs=len(result),
                    n_fired=result.n_fired(),
                    elapsed_s=elapsed_s,
                    metrics=(
                        self.metrics.to_dict() if self.metrics is not None else {}
                    ),
                )
            )

    def close(self) -> None:
        if self.events is not None:
            self.events.close()

    # ------------------------------------------------------------------
    # Worker aggregation (parallel campaigns)
    # ------------------------------------------------------------------

    def worker_payload(self) -> dict:
        """Snapshot a worker observer for the chunk-result channel."""
        records: list[dict] = []
        if self.events is not None:
            sink = self.events._sink
            if isinstance(sink, RingBufferSink):
                records = sink.records
        return {
            "events": records,
            "metrics": self.metrics.to_dict() if self.metrics is not None else {},
        }

    def absorb_worker(self, payload: dict) -> None:
        """Fold a worker's :meth:`worker_payload` into this observer.

        Covers events (re-sequenced, timestamps preserved) and metrics.
        The arc tally is *not* in the payload — the parent re-folds the
        worker's returned outcome objects itself, keeping exact parity
        with the serial path.
        """
        if self.events is not None:
            for record in payload.get("events", ()):
                parsed = decode_event(record)
                self.events.emit(parsed.event, ts=parsed.ts)
        if self.metrics is not None and payload.get("metrics"):
            self.metrics.merge(payload["metrics"])

    def timestamp(self) -> float:  # pragma: no cover - trivial
        return time.time()
