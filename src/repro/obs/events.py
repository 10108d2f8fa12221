"""Structured campaign event stream: typed events, sinks and manifests.

Every campaign execution can narrate itself as a stream of typed events
(:class:`CampaignStarted` ... :class:`CampaignFinished`), each encoded
as one JSON object per line.  The stream makes campaigns *attributable*
and *replayable for analysis*: an ``events.jsonl`` plus the embedded
:class:`RunManifest` answers "what exactly produced this matrix, on
which host, with which grid, and where did the time and the errors go"
long after the process exited.

Design points:

* **Typed, versioned envelope.**  Every line is
  ``{"v": schema, "seq": n, "ts": unix_seconds, "type": name, "data": {...}}``;
  :func:`decode_event` refuses unknown types and future schema
  versions, so an events file either parses into typed records or
  fails loudly (CI round-trips the file through this parser).
* **Pluggable sinks.**  :class:`JsonlSink` (durable),
  :class:`RingBufferSink` (in-memory, bounded by default),
  :class:`PrettyPrintSink` (human-readable stderr narration) and
  :class:`MultiSink`.
* **Zero cost when off.**  The campaign holds ``observer=None`` by
  default and guards every emission with one ``is None`` test.
* **One stream, one fold.**  The campaign hands every event to
  :meth:`~repro.obs.observer.CampaignObserver.emit`; the metrics'
  counters and gauges, the live arc tally and the dashboard state are
  all folds of this stream
  (:class:`~repro.obs.dash.reducer.CampaignStateReducer`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import IO, Any, Iterator, Mapping, TextIO

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "CampaignStarted",
    "ArcsPruned",
    "LintReported",
    "RunStarted",
    "CheckpointSaved",
    "CheckpointReused",
    "InjectionFired",
    "RunReconverged",
    "OutcomeClassified",
    "UnitReused",
    "UnitMissed",
    "StoreArtifactRejected",
    "ChunkCompleted",
    "TargetRetired",
    "RoundCompleted",
    "BudgetExhausted",
    "CampaignFinished",
    "ParsedEvent",
    "EventStream",
    "JsonlSink",
    "RingBufferSink",
    "PrettyPrintSink",
    "MultiSink",
    "RunManifest",
    "build_manifest",
    "encode_event",
    "decode_event",
    "read_events",
    "validate_events",
]

#: Version of the on-disk event schema; recorded in every envelope and
#: in the run manifest.  Bump when an event's fields change shape.
EVENT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Event types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignStarted:
    """First event of a campaign: identity, grid shape and manifest."""

    manifest: dict
    total_runs: int
    n_cases: int
    n_targets: int
    runs_per_target: int
    mode: str  # "serial" | "parallel"


@dataclass(frozen=True)
class BackendSelected:
    """The campaign resolved its simulation backend.

    Emitted right after :class:`CampaignStarted` (parent process only),
    so event streams produced by different backends are distinguishable
    even before any backend-specific ``kernel.*`` metrics appear.  The
    backend also participates in the manifest's config hash.
    """

    backend: str  # "reference" | "batched"


@dataclass(frozen=True)
class ArcsPruned:
    """Statically-proven-zero targets skipped by the campaign.

    Emitted right after :class:`LintReported` (parent process only)
    when :attr:`CampaignConfig.static_prune` removed targets from the
    grid — each listed (module, input) target's whole arc row was
    proven zero-permeability by :mod:`repro.flow`, so its
    ``n_injections_per_target`` runs were recorded as exact zero-error
    counts instead of executed.
    """

    targets: tuple[tuple[str, str], ...]
    n_injections_per_target: int
    n_arcs: int


@dataclass(frozen=True)
class LintReported:
    """The pre-campaign lint pass finished (see :mod:`repro.lint`).

    Emitted between :class:`CampaignStarted` and the first
    :class:`RunStarted`; ``diagnostics`` carries the JSON form of every
    finding.  On error-level findings the campaign aborts right after
    this event, so an ``events.jsonl`` that stops here is
    self-explaining.
    """

    system: str
    errors: int
    warnings: int
    info: int
    codes: tuple[str, ...] = ()
    diagnostics: tuple[dict, ...] = ()


@dataclass(frozen=True)
class RunStarted:
    """One run: a Golden Run (``kind="golden"``) or one IR.

    A Golden Run's is emitted as it starts.  An IR's is emitted with the
    rest of its narration once its outcome is recorded, by the
    campaign's process whichever process executed it, so its ``ts`` is
    when the run was recorded, not when it started.
    """

    case_id: str
    kind: str  # "golden" | "injection"
    module: str | None = None
    signal: str | None = None
    time_ms: int | None = None
    error_model: str | None = None


@dataclass(frozen=True)
class CheckpointSaved:
    """The Golden Run captured a prefix-reuse checkpoint."""

    case_id: str
    time_ms: int


@dataclass(frozen=True)
class CheckpointReused:
    """An IR resumed from a Golden-Run checkpoint instead of time zero."""

    case_id: str
    time_ms: int
    skipped_ms: int


@dataclass(frozen=True)
class InjectionFired:
    """The one-shot trap of an IR actually corrupted a read."""

    case_id: str
    module: str
    signal: str
    scheduled_ms: int
    fired_at_ms: int
    error_model: str


@dataclass(frozen=True)
class RunReconverged:
    """An IR provably re-matched its Golden Run and was fast-forwarded.

    ``reconverged_at_ms`` is the frame at which the injected error's
    effect set became empty (verified by a complete-state digest match)
    — the paper-relevant error-lifetime instant;
    ``frames_fast_forwarded`` counts the simulated milliseconds spliced
    from the Golden Run instead of executed.
    """

    case_id: str
    module: str
    signal: str
    time_ms: int
    error_model: str
    reconverged_at_ms: int
    frames_fast_forwarded: int


@dataclass(frozen=True)
class OutcomeClassified:
    """The Golden-Run comparison verdict of one finished IR.

    ``diverged`` maps every deviating signal to its first-divergence
    millisecond; ``propagated_outputs`` are the injected module's
    output signals counting as *direct* errors under the paper's
    Section 7.3 rule — the numerators of measured permeability.
    """

    case_id: str
    module: str
    signal: str
    time_ms: int
    error_model: str
    fired: bool
    outcome: str  # "propagated" | "no_effect" | "not_fired"
    diverged: dict[str, int] = field(default_factory=dict)
    propagated_outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class UnitReused:
    """One target row was recomposed from the result store, not executed.

    Emitted (parent process only) before the row's replayed
    :class:`OutcomeClassified` events when an incremental campaign
    (``--store DIR``, see docs/INCREMENTAL.md) found the row's content
    key already stored — its ``n_runs`` injection runs were skipped and
    their recorded outcomes fed into the result instead.  An adaptive
    campaign replays a row round by round, so one row can emit several
    events, each counting the cached outcomes it supplied that round;
    consumers count distinct ``(case_id, module, signal)`` rows.
    """

    case_id: str
    module: str
    signal: str
    n_runs: int
    key: str


@dataclass(frozen=True)
class UnitMissed:
    """One target row the result store could not answer; it executes.

    Emitted (parent process only) while the store is consulted, before
    the first run, once per cacheable row that has no reusable artifact
    (``store.misses`` counter).
    """

    case_id: str
    module: str
    signal: str


@dataclass(frozen=True)
class StoreArtifactRejected:
    """A store artifact parsed but failed content verification.

    A digest or key mismatch means corruption survived the JSON parse
    (torn or truncated files are silent misses instead); the artifact
    is ignored and the unit re-executes, but the event makes the
    corruption visible (``store.rejected`` counter).
    """

    key: str
    path: str
    reason: str


@dataclass(frozen=True)
class ChunkCompleted:
    """One grid-sharded work item came back from a worker."""

    chunk_index: int
    case_id: str
    n_targets: int
    n_runs: int
    elapsed_s: float


@dataclass(frozen=True)
class TargetRetired:
    """An adaptive campaign stopped sampling one (module, input) target.

    Emitted once per target by adaptive campaigns (``--adaptive``; see
    docs/ADAPTIVE.md).  ``reason`` is ``"confidence"`` when the widest
    Wilson interval across the target's output arcs reached the
    requested ``ci_width``, ``"exhausted"`` when the target's full
    exhaustive pool was spent first.
    """

    module: str
    signal: str
    n_trials: int
    half_width: float
    reason: str
    round_index: int


@dataclass(frozen=True)
class RoundCompleted:
    """One adaptive round finished: budget spent, targets still open."""

    round_index: int
    n_trials: int
    n_open: int


@dataclass(frozen=True)
class BudgetExhausted:
    """Some targets retired without reaching the requested confidence.

    Emitted at most once, after the adaptive round loop, when at least
    one target retired for a non-``"confidence"`` reason; ``reasons``
    counts the retirees per non-confidence reason.  Its absence from an
    adaptive event stream means every interval met ``ci_width``.
    """

    n_targets: int
    reasons: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CampaignFinished:
    """Last event: totals plus the final metrics snapshot."""

    n_runs: int
    n_fired: int
    elapsed_s: float
    metrics: dict = field(default_factory=dict)


_EVENT_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        CampaignStarted,
        BackendSelected,
        ArcsPruned,
        LintReported,
        RunStarted,
        CheckpointSaved,
        CheckpointReused,
        InjectionFired,
        RunReconverged,
        OutcomeClassified,
        UnitReused,
        UnitMissed,
        StoreArtifactRejected,
        ChunkCompleted,
        TargetRetired,
        RoundCompleted,
        BudgetExhausted,
        CampaignFinished,
    )
}


@dataclass(frozen=True)
class ParsedEvent:
    """One decoded envelope: sequence number, timestamp and typed event."""

    seq: int
    ts: float
    event: Any

    @property
    def type_name(self) -> str:
        return type(self.event).__name__


# ---------------------------------------------------------------------------
# Encoding / decoding
# ---------------------------------------------------------------------------


def encode_event(event: Any, seq: int, ts: float) -> dict:
    """Wrap a typed event in its versioned JSON envelope."""
    name = type(event).__name__
    if name not in _EVENT_TYPES:
        raise TypeError(f"{name} is not a registered campaign event")
    return {
        "v": EVENT_SCHEMA_VERSION,
        "seq": seq,
        "ts": ts,
        "type": name,
        "data": dataclasses.asdict(event),
    }


def decode_event(record: Mapping) -> ParsedEvent:
    """Rebuild the typed event from an envelope dict.

    Raises ``ValueError`` on unknown event types, future schema
    versions or payloads not matching the event's fields.
    """
    version = record.get("v")
    if version != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported event schema version {version!r} "
            f"(this build reads v{EVENT_SCHEMA_VERSION})"
        )
    name = record.get("type")
    cls = _EVENT_TYPES.get(name)
    if cls is None:
        raise ValueError(f"unknown event type {name!r}")
    data = dict(record["data"])
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - fields
    if unknown:
        raise ValueError(f"{name}: unexpected fields {sorted(unknown)}")
    try:
        event = cls(**data)
    except TypeError as exc:
        raise ValueError(f"{name}: {exc}") from None
    # Restore tuple-typed fields lost in JSON round-trips.
    if isinstance(event, OutcomeClassified):
        event = dataclasses.replace(
            event, propagated_outputs=tuple(event.propagated_outputs)
        )
    elif isinstance(event, LintReported):
        event = dataclasses.replace(
            event,
            codes=tuple(event.codes),
            diagnostics=tuple(event.diagnostics),
        )
    elif isinstance(event, ArcsPruned):
        event = dataclasses.replace(
            event, targets=tuple(tuple(pair) for pair in event.targets)
        )
    return ParsedEvent(seq=int(record["seq"]), ts=float(record["ts"]), event=event)


def read_events(path) -> Iterator[ParsedEvent]:
    """Parse an ``events.jsonl`` file into typed events, in order."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield decode_event(json.loads(line))
            except (json.JSONDecodeError, ValueError, KeyError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None


def validate_events(path) -> int:
    """Round-trip every line through the typed parser; return the count.

    Each decoded event is re-encoded and compared field-for-field
    against the original line, so schema drift between writer and
    parser cannot pass silently.  Used by the CI schema-validation
    step (``repro obs validate``).
    """
    count = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            try:
                parsed = decode_event(record)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            rebuilt = encode_event(parsed.event, seq=parsed.seq, ts=parsed.ts)
            if json.loads(json.dumps(rebuilt)) != record:
                raise ValueError(
                    f"{path}:{lineno}: round-trip mismatch for "
                    f"{parsed.type_name}"
                )
            count += 1
    return count


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class JsonlSink:
    """Appends one JSON envelope per line to a file.

    The file is created on the first envelope, so a campaign rejected
    before it emits anything leaves no (empty, hence invalid) stream.
    """

    def __init__(self, path) -> None:
        self._path = path
        self._handle: IO[str] | None = None

    def emit(self, record: dict) -> None:
        if self._handle is None:
            self._handle = open(self._path, "w", encoding="utf-8")
        json.dump(record, self._handle, separators=(",", ":"))
        self._handle.write("\n")

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            self._handle.close()


class RingBufferSink:
    """Keeps the last ``capacity`` envelopes in memory.

    ``capacity=None`` keeps everything (e.g. a verify oracle that
    re-reads a whole campaign's stream).
    """

    def __init__(self, capacity: int | None = 1024) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._capacity = capacity
        self._records: list[dict] = []
        self._dropped = 0

    def emit(self, record: dict) -> None:
        self._records.append(record)
        if self._capacity is not None and len(self._records) > self._capacity:
            evicted = len(self._records) - self._capacity
            del self._records[0:evicted]
            self._dropped += evicted

    def close(self) -> None:
        pass

    @property
    def records(self) -> list[dict]:
        """The buffered envelopes, oldest first."""
        return list(self._records)

    @property
    def dropped(self) -> int:
        """Envelopes evicted because the buffer was full.

        A non-zero count means the buffered stream is *incomplete*:
        the observer surfaces it as the ``events.dropped`` counter in
        ``metrics.json`` and ``repro obs summarize`` prints a warning.
        """
        return self._dropped

    def events(self) -> list[ParsedEvent]:
        """The buffered envelopes decoded back into typed events."""
        return [decode_event(record) for record in self._records]


class PrettyPrintSink:
    """One-line human narration of selected events (default: stderr)."""

    #: Event types narrated; the per-IR chatter is skipped.
    NARRATED = frozenset(
        {"CampaignStarted", "LintReported", "ChunkCompleted", "CampaignFinished"}
    )

    def __init__(self, stream: TextIO | None = None, verbose: bool = False):
        self._stream = stream if stream is not None else sys.stderr
        self._verbose = verbose

    def emit(self, record: dict) -> None:
        name = record["type"]
        if not self._verbose and name not in self.NARRATED:
            return
        data = record["data"]
        if name == "CampaignStarted":
            text = (
                f"campaign started: {data['total_runs']} runs "
                f"({data['n_cases']} cases x {data['n_targets']} targets), "
                f"{data['mode']}"
            )
        elif name == "LintReported":
            text = (
                f"lint: {data['errors']} error(s), {data['warnings']} "
                f"warning(s) on system {data['system']!r}"
            )
        elif name == "ChunkCompleted":
            text = (
                f"chunk {data['chunk_index']} ({data['case_id']}): "
                f"{data['n_runs']} runs in {data['elapsed_s']:.2f}s"
            )
        elif name == "CampaignFinished":
            text = (
                f"campaign finished: {data['n_runs']} runs "
                f"({data['n_fired']} fired) in {data['elapsed_s']:.2f}s"
            )
        else:
            text = f"{name} {data}"
        print(f"[obs {record['seq']:>6}] {text}", file=self._stream)

    def close(self) -> None:
        pass


class MultiSink:
    """Fans every envelope out to several sinks."""

    def __init__(self, *sinks) -> None:
        self._sinks = tuple(sinks)

    @property
    def sinks(self) -> tuple:
        """The fan-out targets, in emission order."""
        return self._sinks

    def emit(self, record: dict) -> None:
        for sink in self._sinks:
            sink.emit(record)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


class EventStream:
    """The emitting side: assigns envelopes and feeds the sink."""

    def __init__(self, sink) -> None:
        self._sink = sink
        self._seq = 0

    def emit(self, event: Any, ts: float | None = None) -> None:
        """Emit one typed event (``ts`` override for re-emission)."""
        record = encode_event(
            event, seq=self._seq, ts=ts if ts is not None else time.time()
        )
        self._seq += 1
        self._sink.emit(record)

    def close(self) -> None:
        self._sink.close()

    @property
    def sink(self):
        """The sink (possibly a :class:`MultiSink`) receiving envelopes."""
        return self._sink

    @property
    def n_emitted(self) -> int:
        return self._seq


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Identity card of one campaign execution.

    Stored inside the :class:`CampaignStarted` event (and hence in
    every ``events.jsonl``), so each artifact a campaign produces is
    attributable to an exact configuration and host.
    """

    schema_version: int
    package_version: str
    config_hash: str
    seed: int
    duration_ms: int
    injection_times_ms: tuple[int, ...]
    n_error_models: int
    n_cases: int
    n_targets: int
    total_runs: int
    reuse_golden_prefix: bool
    fast_forward: bool
    backend: str
    host: dict
    created_unix: float
    #: Name of the injected system model.
    system: str = ""
    #: Module topology: name -> {"inputs": [...], "outputs": [...]}, in
    #: system order.  Carried so a recorded stream is self-contained:
    #: the dashboard reducer reconstructs the (module, input, output)
    #: pair universe — the denominators of measured permeability — from
    #: the events file alone, without the Python system model.
    modules: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _hash_config(config, targets: tuple[tuple[str, str], ...]) -> str:
    """Stable digest of everything determining campaign outcomes."""
    keys = {
        "duration_ms": config.duration_ms,
        "injection_times_ms": list(config.injection_times_ms),
        "error_models": [model.name for model in config.error_models],
        "targets": [list(pair) for pair in targets],
        "seed": config.seed,
        "reuse_golden_prefix": config.reuse_golden_prefix,
        "fast_forward": config.fast_forward,
        "backend": config.backend,
    }
    # Key present only when set, so pre-existing hashes stay stable.
    if getattr(config, "static_prune", False):
        keys["static_prune"] = True
    if getattr(config, "adaptive", False):
        keys["adaptive"] = True
        keys["ci_width"] = config.ci_width
    canonical = json.dumps(keys, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def build_manifest(campaign) -> RunManifest:
    """Build the manifest of an :class:`~repro.injection.campaign.InjectionCampaign`."""
    from repro import __version__

    config = campaign.config
    system = campaign._system
    return RunManifest(
        schema_version=EVENT_SCHEMA_VERSION,
        package_version=__version__,
        config_hash=_hash_config(config, campaign.targets),
        seed=config.seed,
        duration_ms=config.duration_ms,
        injection_times_ms=tuple(config.injection_times_ms),
        n_error_models=len(config.error_models),
        n_cases=len(campaign.case_ids()),
        n_targets=len(campaign.targets),
        total_runs=campaign.total_runs(),
        reuse_golden_prefix=config.reuse_golden_prefix,
        fast_forward=config.fast_forward,
        backend=config.backend,
        host={
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
        },
        created_unix=time.time(),
        system=system.name,
        modules={
            name: {
                "inputs": list(system.module(name).inputs),
                "outputs": list(system.module(name).outputs),
            }
            for name in system.module_names()
        },
    )
