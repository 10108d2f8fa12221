"""repro.obs — campaign observability.

Three zero-dependency layers over the injection-campaign engine:

* :mod:`repro.obs.events` — a typed, versioned, JSONL-serialisable
  event stream with pluggable sinks and a per-campaign run manifest;
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with span timers, mergeable across worker processes;
* a live :class:`~repro.injection.outcomes.ArcTally` — the
  estimator's own fold of outcomes into per-arc counts, i.e. measured
  permeability :math:`P^M_{i,k}` as a first-class observable.

:class:`~repro.obs.observer.CampaignObserver` bundles the three behind
the single optional hook the campaign engine calls;
:mod:`repro.obs.summary` renders text reports from recorded streams;
:mod:`repro.obs.dash` folds the same stream into a live browser
dashboard (state reducer + SSE server, ``repro campaign --dash`` /
``repro dash``).  See ``docs/OBSERVABILITY.md`` for the event schema,
metrics catalog and dashboard endpoints.
"""

from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    CampaignFinished,
    CampaignStarted,
    CheckpointReused,
    CheckpointSaved,
    ChunkCompleted,
    EventStream,
    InjectionFired,
    JsonlSink,
    MultiSink,
    OutcomeClassified,
    ParsedEvent,
    PrettyPrintSink,
    RingBufferSink,
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
    "CampaignFinished",
    "CampaignObserver",
    "CampaignStarted",
    "CampaignStateReducer",
    "DashboardServer",
    "DashboardSink",
    "CheckpointReused",
    "CheckpointSaved",
    "ChunkCompleted",
    "Counter",
    "EventStream",
    "EventsSummary",
    "Gauge",
    "Histogram",
    "InjectionFired",
    "JsonlSink",
    "MetricsRegistry",
    "MultiSink",
    "OutcomeClassified",
    "ParsedEvent",
    "PrettyPrintSink",
    "RingBufferSink",
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
