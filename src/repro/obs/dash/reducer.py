"""Pure event-stream state reducer: one live JSON-able campaign snapshot.

:class:`CampaignStateReducer` folds the recorded campaign event stream
(:class:`~repro.obs.events.CampaignStarted` ...
:class:`~repro.obs.events.CampaignFinished`) into a single snapshot
dict — progress and ETA, the evolving observed permeability matrix with
Wilson intervals per arc, the error-lifetime histogram, reconvergence
fraction and kernel/fast-forward counters.  The reducer is *pure* over
the stream: it never touches the campaign engine, so it works equally
against a live in-process event feed (:class:`~repro.obs.dash.sink.
DashboardSink`), a finished ``events.jsonl`` on disk, or a file still
being written (``repro dash --events ... --follow``).

Parity contract
---------------
The reducer counts through the same fold as the post-hoc analyses:

* :meth:`CampaignStateReducer.matrix_jsonable` is an
  :class:`~repro.injection.outcomes.ArcTally` over the manifest's
  module topology — every classified outcome and every pruned run
  counts one injection, each ``OutcomeClassified.propagated_outputs``
  entry (the observer's Section 7.3 verdict) one error — so over a
  complete stream it equals ``estimate_matrix(result).to_jsonable()``.
* :meth:`CampaignStateReducer.lifetime_statistics` summarises through
  :func:`repro.injection.latency.input_lifetime`, so it equals
  :func:`~repro.injection.latency.lifetime_statistics` field for
  field, including right-censoring.
* The run counters match :class:`~repro.injection.outcomes.
  CampaignResult` (``n_fired``/``n_reconverged``/
  ``reconverged_fraction``/``frames_fast_forwarded_total``).
* :meth:`CampaignStateReducer.folded_metrics` is the counted part of
  ``metrics.json``: the observer folds every event it emits through
  its own reducer and renders this into its registry, so a fresh
  reducer over the recorded stream reproduces every counter and gauge
  the campaign embedded in ``CampaignFinished``.

The test suite pins these down for serial and parallel campaigns
under both simulation backends (``tests/test_dash.py``,
``tests/test_obs_fold.py``).
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from dataclasses import asdict
from typing import Any, Iterable, Mapping

from repro.core.stats import wilson_interval
from repro.injection.latency import input_lifetime
from repro.injection.outcomes import ArcTally
from repro.obs.events import (
    ArcsPruned,
    BackendSelected,
    BudgetExhausted,
    CampaignFinished,
    CampaignStarted,
    CheckpointReused,
    CheckpointSaved,
    ChunkCompleted,
    InjectionFired,
    LintReported,
    OutcomeClassified,
    ParsedEvent,
    RoundCompleted,
    RunReconverged,
    RunStarted,
    StoreArtifactRejected,
    TargetRetired,
    UnitMissed,
    UnitReused,
    decode_event,
    read_events,
)
from repro.obs.metrics import DEFAULT_MS_BUCKETS, Histogram

__all__ = ["CampaignStateReducer", "validate_snapshot", "SNAPSHOT_SCHEMA_VERSION"]

#: Version stamp of the snapshot document produced by
#: :meth:`CampaignStateReducer.snapshot`; bump on shape changes.
#: v2: ``counters.pruned`` (runs skipped by static pruning) and pruned
#: targets folded into the matrix denominators.
#: v3: ``counters.cached`` (runs reused from the result store; their
#: replayed OutcomeClassified events still drive the matrix, so the
#: counter is informational, not a denominator).
#: v4: ``adaptive`` section (rounds, retired targets with their
#: achieved Wilson half-widths and stopping reasons, open-target count)
#: fed by the TargetRetired/RoundCompleted/BudgetExhausted events of
#: ``--adaptive`` campaigns; all-zero for exhaustive streams.
SNAPSHOT_SCHEMA_VERSION = 4

#: Metric names surfaced in the snapshot's ``metrics`` subset (the full
#: registry stays in ``metrics.json``; the dashboard shows the headline
#: kernel and fast-forward instruments).
_SNAPSHOT_METRICS = (
    "ff.runs_reconverged",
    "ff.frames_fast_forwarded",
    "kernel.lanes.active",
    "kernel.lanes.retired",
    "kernel.fallback.runs",
    "kernel.scalar_fallback.modules",
    "checkpoint.saved",
    "checkpoint.reused",
    "simulated_ms.skipped",
    "events.dropped",
)


class CampaignStateReducer:
    """Incremental fold of campaign events into one snapshot dict.

    Feed envelopes with :meth:`feed` (raw dict), :meth:`feed_parsed`
    (typed) or :meth:`feed_line` (JSONL text, tolerant of truncation);
    read the current state with :meth:`snapshot` at any point — the
    snapshot is meaningful mid-stream (that is the live dashboard) and
    exact over a complete stream (the parity contract above).
    """

    def __init__(self) -> None:
        self.manifest: dict = {}
        self.mode: str = "?"
        self.backend: str | None = None
        self.total_runs: int = 0
        self.state: str = "empty"  # "empty" | "running" | "finished"
        self.elapsed_s: float | None = None
        self.metrics: dict = {}
        self.lint: dict | None = None
        # Stream bookkeeping.
        self.n_events = 0
        self.last_seq: int | None = None
        self.first_ts: float | None = None
        self.last_ts: float | None = None
        self.skipped_lines = 0
        #: Every ``metrics.json`` counter, by name, as the stream counts
        #: it; a name appears once an event has counted it.
        self.counts: TallyCounter = TallyCounter()
        self._reused_rows: set[tuple[str, str, str]] = set()
        self.outcome_mix: TallyCounter = TallyCounter()
        # Adaptive (sequential-stopping) state.
        self.n_open_targets: int | None = None
        self.retired_targets: list[dict] = []
        #: The matrix: one ArcTally over the manifest's module topology.
        self.arcs = ArcTally({})
        # Lifetime state: fired IRs pending reconvergence, keyed by the
        # grid coordinates that uniquely identify one IR.
        self._pending_fired: dict[tuple[str, str, str, int, str], int] = {}
        self._lifetimes: dict[tuple[str, str], list[int]] = {}
        self._histogram = Histogram("ff.error_lifetime.ms", DEFAULT_MS_BUCKETS)

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def feed(self, record: Mapping) -> ParsedEvent:
        """Fold one raw envelope dict; returns the decoded event."""
        parsed = decode_event(record)
        self.feed_parsed(parsed)
        return parsed

    def feed_line(self, line: str) -> ParsedEvent | None:
        """Fold one JSONL line; tolerate damage instead of raising.

        Blank, truncated or otherwise undecodable lines are counted in
        :attr:`skipped_lines` and return ``None`` — a dashboard tailing
        a live file must survive partial trailing writes.
        """
        line = line.strip()
        if not line:
            return None
        try:
            return self.feed(json.loads(line))
        except (json.JSONDecodeError, ValueError, KeyError):
            self.skipped_lines += 1
            return None

    def feed_all(self, events: Iterable[ParsedEvent]) -> None:
        for parsed in events:
            self.feed_parsed(parsed)

    @classmethod
    def from_events_file(cls, path) -> "CampaignStateReducer":
        """Fold a recorded ``events.jsonl`` (strict parse, see
        :func:`~repro.obs.events.read_events`)."""
        reducer = cls()
        reducer.feed_all(read_events(path))
        return reducer

    def feed_parsed(self, parsed: ParsedEvent) -> None:
        self.n_events += 1
        self.last_seq = parsed.seq
        self.last_ts = parsed.ts
        if self.first_ts is None:
            self.first_ts = parsed.ts
        event = parsed.event
        counts = self.counts
        if isinstance(event, CampaignStarted):
            self.manifest = dict(event.manifest)
            self.mode = event.mode
            self.total_runs = event.total_runs
            self.state = "running"
            self.backend = self.manifest.get("backend", self.backend)
            self.arcs = ArcTally.of_manifest(self.manifest)
            self._reused_rows.clear()
        elif isinstance(event, BackendSelected):
            self.backend = event.backend
        elif isinstance(event, LintReported):
            self.lint = {
                "system": event.system,
                "errors": event.errors,
                "warnings": event.warnings,
                "info": event.info,
                "codes": list(event.codes),
            }
            counts["lint.errors"] += event.errors
            counts["lint.warnings"] += event.warnings
        elif isinstance(event, ArcsPruned):
            # Pruned targets are exact zero-error measurements: their
            # injections enter the matrix denominators directly (no
            # per-IR events will arrive for them), keeping the matrix
            # equal to estimate_matrix() over the pruned campaign.
            counts["prune.targets"] += len(event.targets)
            counts["prune.arcs"] += event.n_arcs
            counts["prune.runs_skipped"] += (
                len(event.targets) * event.n_injections_per_target
            )
            for module, signal in event.targets:
                self.arcs.add(module, signal, n=event.n_injections_per_target)
        elif isinstance(event, RunStarted):
            counts[f"runs.{event.kind}"] += 1
        elif isinstance(event, CheckpointSaved):
            counts["checkpoint.saved"] += 1
        elif isinstance(event, CheckpointReused):
            counts["checkpoint.reused"] += 1
            counts["simulated_ms.skipped"] += event.skipped_ms
        elif isinstance(event, InjectionFired):
            key = (
                event.case_id,
                event.module,
                event.signal,
                event.scheduled_ms,
                event.error_model,
            )
            self._pending_fired[key] = event.fired_at_ms
        elif isinstance(event, OutcomeClassified):
            counts["outcomes.total"] += 1
            if event.fired:
                counts["outcomes.fired"] += 1
            if event.diverged:
                counts["outcomes.diverged"] += 1
            self.outcome_mix[event.outcome] += 1
            self.arcs.add(event.module, event.signal, event.propagated_outputs)
        elif isinstance(event, RunReconverged):
            counts["ff.runs_reconverged"] += 1
            counts["ff.frames_fast_forwarded"] += event.frames_fast_forwarded
            key = (
                event.case_id,
                event.module,
                event.signal,
                event.time_ms,
                event.error_model,
            )
            fired_at = self._pending_fired.pop(key, None)
            if fired_at is not None:
                lifetime = event.reconverged_at_ms - fired_at
                self._lifetimes.setdefault(
                    (event.module, event.signal), []
                ).append(lifetime)
                self._histogram.observe(lifetime)
        elif isinstance(event, UnitReused):
            # The row's recorded outcomes are replayed right after this
            # event as ordinary OutcomeClassified events (driving the
            # matrix and progress), so only the reuse itself is counted.
            # An adaptive row can supply cached outcomes in several
            # rounds; store.hits counts distinct rows.
            row = (event.case_id, event.module, event.signal)
            if row not in self._reused_rows:
                self._reused_rows.add(row)
                counts["store.hits"] += 1
            counts["store.runs_reused"] += event.n_runs
        elif isinstance(event, UnitMissed):
            counts["store.misses"] += 1
        elif isinstance(event, StoreArtifactRejected):
            counts["store.rejected"] += 1
        elif isinstance(event, ChunkCompleted):
            counts["chunk.completed"] += 1
        elif isinstance(event, TargetRetired):
            counts["adaptive.targets_retired"] += 1
            counts[f"adaptive.retired.{event.reason}"] += 1
            counts["adaptive.trials"] += event.n_trials
            self.retired_targets.append(
                {
                    "module": event.module,
                    "input": event.signal,
                    "n_trials": event.n_trials,
                    "half_width": event.half_width,
                    "reason": event.reason,
                    "round": event.round_index,
                }
            )
        elif isinstance(event, RoundCompleted):
            counts["adaptive.rounds"] += 1
            self.n_open_targets = event.n_open
        elif isinstance(event, BudgetExhausted):
            counts["adaptive.unconverged_targets"] += event.n_targets
        elif isinstance(event, CampaignFinished):
            self.state = "finished"
            self.elapsed_s = event.elapsed_s
            self.metrics = dict(event.metrics)

    # ------------------------------------------------------------------
    # Derived views (the parity surfaces)
    # ------------------------------------------------------------------

    def matrix_jsonable(self) -> dict:
        """The observed permeability matrix in
        :meth:`~repro.core.permeability.PermeabilityMatrix.to_jsonable`
        format — over a complete stream, exactly equal to
        ``estimate_matrix(result).to_jsonable()``.
        """
        return self.arcs.to_jsonable(self.manifest.get("system", ""))

    def _matrix_with_intervals(self) -> dict:
        matrix = self.matrix_jsonable()
        for entry in matrix["entries"]:
            entry["wilson"] = list(
                wilson_interval(entry["n_errors"], entry["n_injections"])
            )
        return matrix

    def lifetime_statistics(self) -> dict[tuple[str, str], dict]:
        """Per-input error-lifetime statistics from the stream alone.

        Field-for-field equal to
        ``{key: dataclasses.asdict(v) for key, v in
        repro.injection.latency.lifetime_statistics(result).items()}``
        over a complete stream: fired-but-never-reconverged IRs are
        right-censored, medians interpolate linearly.
        """
        censored: dict[tuple[str, str], int] = {}
        for (_case, module, signal, _t, _m), _fired in self._pending_fired.items():
            key = (module, signal)
            censored[key] = censored.get(key, 0) + 1
        return {
            key: asdict(
                input_lifetime(*key, self._lifetimes.get(key, ()), censored.get(key, 0))
            )
            for key in {**dict.fromkeys(self._lifetimes), **dict.fromkeys(censored)}
        }

    def reconverged_fraction(self) -> float:
        """``CampaignResult.reconverged_fraction`` from the stream."""
        n_runs = self.counts["outcomes.total"]
        if not n_runs:
            return 0.0
        return self.counts["ff.runs_reconverged"] / n_runs

    def folded_metrics(self) -> dict:
        """The counted part of ``metrics.json``, folded from the stream.

        Every counter of :attr:`counts`, the ``campaign.total_runs`` and
        ``adaptive.targets_open`` gauges and the ``ff.error_lifetime.ms``
        histogram, in :meth:`~repro.obs.metrics.MetricsRegistry.to_dict`
        form.  The observer renders exactly this into its registry
        before embedding the registry in ``CampaignFinished``, so a
        fresh reducer over the recorded stream reproduces it.
        """
        folded: dict[str, dict] = {
            name: {"type": "counter", "value": value}
            for name, value in self.counts.items()
        }
        if self.state != "empty":
            folded["campaign.total_runs"] = {
                "type": "gauge", "value": float(self.total_runs)
            }
        if self.n_open_targets is not None:
            folded["adaptive.targets_open"] = {
                "type": "gauge", "value": float(self.n_open_targets)
            }
        if self._histogram.count:
            folded["ff.error_lifetime.ms"] = self._histogram.to_dict()
        return folded

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The campaign's current state as one JSON-able document."""
        counts = self.counts
        done = counts["outcomes.total"] + counts["prune.runs_skipped"]
        total = self.total_runs
        rate = None
        eta_s = None
        if (
            self.first_ts is not None
            and self.last_ts is not None
            and self.last_ts > self.first_ts
            and done
        ):
            rate = done / (self.last_ts - self.first_ts)
            if self.state == "running" and total > done:
                eta_s = (total - done) / rate
        lifetimes_per_input = {
            f"{module}.{signal}": stats
            for (module, signal), stats in sorted(
                self.lifetime_statistics().items()
            )
        }
        n_samples = sum(s["n_samples"] for s in lifetimes_per_input.values())
        n_censored = sum(s["n_censored"] for s in lifetimes_per_input.values())
        metrics = {
            name: self.metrics[name]
            for name in _SNAPSHOT_METRICS
            if name in self.metrics
        }
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "state": self.state,
            "campaign": {
                "manifest": self.manifest,
                "mode": self.mode,
                "backend": self.backend,
                "lint": self.lint,
            },
            "progress": {
                "done": done,
                "total": total,
                "fraction": done / total if total else 0.0,
                "golden_runs": counts["runs.golden"],
                "rate_runs_per_s": rate,
                "eta_s": eta_s,
                "elapsed_s": self.elapsed_s,
            },
            "counters": {
                "n_runs": counts["outcomes.total"],
                "pruned": counts["prune.runs_skipped"],
                "cached": counts["store.runs_reused"],
                "n_fired": counts["outcomes.fired"],
                "n_reconverged": counts["ff.runs_reconverged"],
                "reconverged_fraction": self.reconverged_fraction(),
                "frames_fast_forwarded": counts["ff.frames_fast_forwarded"],
                "checkpoints_saved": counts["checkpoint.saved"],
                "checkpoint_reuses": counts["checkpoint.reused"],
                "skipped_ms": counts["simulated_ms.skipped"],
                "chunks_completed": counts["chunk.completed"],
                "outcome_mix": dict(self.outcome_mix),
            },
            "adaptive": {
                "rounds": counts["adaptive.rounds"],
                "targets_retired": len(self.retired_targets),
                "targets_open": self.n_open_targets,
                "trials": counts["adaptive.trials"],
                "unconverged": counts["adaptive.unconverged_targets"],
                "by_reason": dict(
                    TallyCounter(t["reason"] for t in self.retired_targets)
                ),
                "retired": list(self.retired_targets),
            },
            "matrix": self._matrix_with_intervals(),
            "lifetimes": {
                "buckets": list(DEFAULT_MS_BUCKETS),
                "counts": list(self._histogram.counts),
                "n_samples": n_samples,
                "n_censored": n_censored,
                "per_input": lifetimes_per_input,
            },
            "metrics": metrics,
            "stream": {
                "n_events": self.n_events,
                "last_seq": self.last_seq,
                "first_ts": self.first_ts,
                "last_ts": self.last_ts,
                "skipped_lines": self.skipped_lines,
            },
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid snapshot: {message}")


def validate_snapshot(snapshot: Mapping[str, Any]) -> None:
    """Structurally validate a :meth:`CampaignStateReducer.snapshot`.

    Stdlib-only (no jsonschema): checks the section layout, entry
    fields, count consistency and Wilson-interval containment.  Used by
    the CI dashboard smoke job and the test suite; raises
    :class:`ValueError` on the first violation.
    """
    _require(snapshot.get("schema") == SNAPSHOT_SCHEMA_VERSION, "schema version")
    _require(
        snapshot.get("state") in ("empty", "running", "finished"),
        f"state {snapshot.get('state')!r}",
    )
    for section in (
        "campaign", "progress", "counters", "adaptive", "matrix",
        "lifetimes", "metrics", "stream",
    ):
        _require(isinstance(snapshot.get(section), Mapping), f"missing {section}")
    progress = snapshot["progress"]
    _require(
        isinstance(progress["done"], int) and isinstance(progress["total"], int),
        "progress counts",
    )
    _require(0 <= progress["done"], "progress.done >= 0")
    counters = snapshot["counters"]
    for name in (
        "n_runs", "pruned", "cached", "n_fired", "n_reconverged",
        "frames_fast_forwarded", "checkpoints_saved", "checkpoint_reuses",
        "skipped_ms", "chunks_completed",
    ):
        _require(
            isinstance(counters.get(name), int) and counters[name] >= 0,
            f"counters.{name}",
        )
    # Both count OutcomeClassified events.
    _require(counters["n_fired"] <= counters["n_runs"], "n_fired <= n_runs")
    _require(
        0.0 <= counters["reconverged_fraction"] <= 1.0, "reconverged_fraction"
    )
    adaptive = snapshot["adaptive"]
    for name in ("rounds", "targets_retired", "trials", "unconverged"):
        _require(
            isinstance(adaptive.get(name), int) and adaptive[name] >= 0,
            f"adaptive.{name}",
        )
    _require(isinstance(adaptive.get("retired"), list), "adaptive.retired")
    _require(
        len(adaptive["retired"]) == adaptive["targets_retired"],
        "adaptive retired count",
    )
    for entry in adaptive["retired"]:
        _require(
            isinstance(entry.get("n_trials"), int) and entry["n_trials"] >= 1,
            "adaptive retiree trials",
        )
        _require(
            0.0 <= entry["half_width"] <= 0.5, "adaptive retiree half-width"
        )
        _require(
            entry.get("reason") in ("confidence", "exhausted"),
            "adaptive retiree reason",
        )
    matrix = snapshot["matrix"]
    _require(isinstance(matrix.get("entries"), list), "matrix.entries")
    for entry in matrix["entries"]:
        for field_name in ("module", "input", "output"):
            _require(
                isinstance(entry.get(field_name), str), f"entry.{field_name}"
            )
        _require(
            0 <= entry["n_errors"] <= entry["n_injections"], "entry counts"
        )
        _require(0.0 <= entry["value"] <= 1.0, "entry value")
        low, high = entry["wilson"]
        _require(
            0.0 <= low <= entry["value"] <= high <= 1.0,
            "wilson interval containment",
        )
    lifetimes = snapshot["lifetimes"]
    _require(
        len(lifetimes["counts"]) == len(lifetimes["buckets"]) + 1,
        "lifetime histogram layout",
    )
    _require(
        sum(lifetimes["counts"]) == lifetimes["n_samples"],
        "lifetime histogram total",
    )
    for stats in lifetimes["per_input"].values():
        _require(
            stats["n_samples"] >= 0 and stats["n_censored"] >= 0,
            "lifetime sample counts",
        )
    stream = snapshot["stream"]
    _require(
        isinstance(stream["n_events"], int) and stream["n_events"] >= 0,
        "stream.n_events",
    )
