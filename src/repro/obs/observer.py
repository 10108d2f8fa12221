"""The campaign-facing funnel: one typed event stream, folded once.

:class:`InjectionCampaign` talks to observability through exactly one
object, a :class:`CampaignObserver`, and through one call on it:
:meth:`CampaignObserver.emit` of a typed event from
:mod:`repro.obs.events`.  The observer hands each event to its optional
:class:`~repro.obs.events.EventStream` (the sink chain) and folds it
into its one :class:`~repro.obs.dash.reducer.CampaignStateReducer`
(:attr:`CampaignObserver.state`).  Every count it reports is a fold of
that stream: the live arc tally (:attr:`CampaignObserver.propagation`
is the reducer's ``arcs``) and every counter and gauge of
``metrics.json``, which :meth:`CampaignObserver.campaign_finished`
renders from the reducer into the optional
:class:`~repro.obs.metrics.MetricsRegistry`.  The registry otherwise
only measures: span timers, the batched kernel's ``kernel.*``
instruments, the state memo's ``fast_forward.memo_*`` counters,
``chunk.seconds``, ``campaign.elapsed_seconds`` and
``events.dropped``.  A live dashboard serves the same fold: the
observer folds under the dashboard sink's lock instead of the sink
folding each event again.

Two helpers build events that need more than the campaign hands over:
the ``CampaignStarted`` manifest and ``CampaignFinished``, which embeds
the metrics.  An injection run is one ``RunFinished`` carrying its
outcome record; the fold, not the observer, applies the Section 7.3
direct-error rule to it.

Only the campaign's own process emits.  Pool workers return outcomes
and their slice's timers; the parent emits each executed run's
``RunFinished`` from its outcome and merges the timers into its
registry, so every event of a parallel campaign is stamped, sequenced
and folded here.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Iterable

from repro.injection.outcomes import ArcTally
from repro.obs.dash.reducer import CampaignStateReducer
from repro.obs.dash.sink import DashboardSink
from repro.obs.events import (
    CampaignFinished,
    CampaignStarted,
    EventStream,
    JsonlSink,
    MultiSink,
    ParsedEvent,
    PrettyPrintSink,
    RingBufferSink,
    build_manifest,
)
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.injection.outcomes import CampaignResult

__all__ = ["CampaignObserver"]


class CampaignObserver:
    """One event funnel feeding a sink chain, a fold and a registry."""

    def __init__(
        self,
        events: EventStream | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.events = events
        self.metrics = metrics
        #: The one fold of every event this observer emits.
        self.state = CampaignStateReducer()
        #: Held while folding: a live dashboard's lock once one serves
        #: :attr:`state`.
        self._fold_lock: Any = nullcontext()

    @property
    def propagation(self) -> ArcTally:
        """The live arc tally: the fold's ``arcs``, measured P^M so far."""
        return self.state.arcs

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
        """Standard full observer: JSONL events + metrics.

        ``events_path=None`` keeps events in a bounded ring buffer
        instead of a file; ``pretty=True`` adds stderr narration;
        ``extra_sinks`` are appended to the fan-out; a live
        :class:`~repro.obs.dash.sink.DashboardSink` among them serves
        this observer's :attr:`state` rather than a fold of its own.
        ``system`` is accepted and ignored: the live tally's topology
        comes from the observed campaign's manifest.
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
        observer = cls(
            events=EventStream(sink),
            metrics=MetricsRegistry() if with_metrics else None,
        )
        for dashboard in sinks:
            if isinstance(dashboard, DashboardSink):
                observer._fold_lock = dashboard.serve(observer.state)
        return observer

    # ------------------------------------------------------------------
    # The funnel
    # ------------------------------------------------------------------

    def emit(self, event: Any) -> None:
        """Hand one typed event to the sink chain, then to the fold."""
        ts = time.time()
        if self.events is not None:
            self.events.emit(event, ts=ts)
        with self._fold_lock:
            self.state.feed_parsed(ParsedEvent(self.state.n_events, ts, event))

    def campaign_started(self, campaign, mode: str) -> None:
        """Emit ``CampaignStarted`` with the campaign's run manifest."""
        self.emit(
            CampaignStarted(
                manifest=build_manifest(campaign).to_dict(),
                total_runs=campaign.total_runs(),
                n_cases=len(campaign.case_ids()),
                n_targets=len(campaign.targets),
                runs_per_target=campaign.config.runs_per_target(),
                mode=mode,
            )
        )

    def campaign_finished(
        self, result: "CampaignResult", elapsed_s: float
    ) -> None:
        """Render the fold into the registry; emit ``CampaignFinished``."""
        if self.metrics is not None:
            self.metrics.update(self.state.folded_metrics())
            self.metrics.gauge("campaign.elapsed_seconds").set(elapsed_s)
            dropped = self.dropped_events()
            if dropped:
                counter = self.metrics.counter("events.dropped")
                counter.inc(dropped - counter.value)
        self.emit(
            CampaignFinished(
                n_runs=len(result),
                n_fired=result.n_fired(),
                elapsed_s=elapsed_s,
                metrics=self.metrics.to_dict() if self.metrics is not None else {},
            )
        )

    def dropped_events(self) -> int:
        """Envelopes evicted by bounded ring buffers in the sink chain.

        Non-zero means the in-memory stream is incomplete (older events
        were overwritten); surfaced as the ``events.dropped`` counter
        in ``metrics.json`` and warned about by ``repro obs summarize``.
        The fold saw every event regardless.
        """
        if self.events is None:
            return 0
        sink = self.events.sink
        sinks = sink.sinks if isinstance(sink, MultiSink) else (sink,)
        return sum(
            s.dropped for s in sinks if isinstance(s, RingBufferSink)
        )

    def close(self) -> None:
        if self.events is not None:
            self.events.close()
