"""repro.obs — campaign observability.

One path: the campaign engine builds typed events and hands each to
:meth:`~repro.obs.observer.CampaignObserver.emit`, and everything else
is a fold of that stream.

* :mod:`repro.obs.events` — the typed, versioned, JSONL-serialisable
  events, pluggable sinks and the per-campaign run manifest;
* :class:`~repro.obs.dash.reducer.CampaignStateReducer` — the one fold:
  the live arc tally (the estimator's
  :class:`~repro.injection.outcomes.ArcTally`, measured permeability
  :math:`P^M_{i,k}` as a first-class observable), every counter and
  gauge of ``metrics.json``, the dashboard snapshot and
  ``repro obs summarize``;
* :mod:`repro.obs.metrics` — the registry of what is measured rather
  than counted (span timers, the batched kernel's instruments),
  mergeable across worker processes.

:class:`~repro.obs.observer.CampaignObserver` is the funnel the engine
calls; :mod:`repro.obs.summary` renders text reports from recorded
streams; :mod:`repro.obs.dash` serves the same fold as a live browser
dashboard (SSE server, ``repro campaign --dash`` / ``repro dash``).
See ``docs/OBSERVABILITY.md`` for the event schema, metrics catalog and
dashboard endpoints.
"""

from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    CampaignAborted,
    CampaignFinished,
    CampaignStarted,
    CheckpointSaved,
    ChunkCompleted,
    EventStream,
    JsonlSink,
    MultiSink,
    ParsedEvent,
    PrettyPrintSink,
    RingBufferSink,
    RunFinished,
    RunManifest,
    RunStarted,
    build_manifest,
    decode_event,
    encode_event,
    read_events,
    validate_events,
)
from repro.obs.dash import (
    CampaignStateReducer,
    DashboardServer,
    DashboardSink,
    validate_snapshot,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observer import CampaignObserver
from repro.obs.summary import (
    EventsSummary,
    render_summary,
    summarize_events,
    summarize_events_file,
)

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "CampaignAborted",
    "CampaignFinished",
    "CampaignObserver",
    "CampaignStarted",
    "CampaignStateReducer",
    "DashboardServer",
    "DashboardSink",
    "CheckpointSaved",
    "ChunkCompleted",
    "Counter",
    "EventStream",
    "EventsSummary",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "MultiSink",
    "ParsedEvent",
    "PrettyPrintSink",
    "RingBufferSink",
    "RunFinished",
    "RunManifest",
    "RunStarted",
    "build_manifest",
    "decode_event",
    "encode_event",
    "read_events",
    "render_summary",
    "summarize_events",
    "summarize_events_file",
    "validate_events",
    "validate_snapshot",
]
