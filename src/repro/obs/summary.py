"""Text reports over recorded campaign event streams.

``repro obs summarize events.jsonl`` renders, from the events file
alone (optionally with a separate ``metrics.json``):

* the run manifest (who/what/when produced the stream);
* the phase breakdown — where the campaign's wall-clock went, slowest
  span first (Golden-Run phase, per-IR suffix simulation, Golden-Run
  comparison, checkpoint save/restore, worker chunks);
* the outcome mix (propagated / no effect / trap never fired);
* the hottest observed propagation arcs, i.e. the (module, input →
  output) pairs whose measured permeability numerators grew fastest.

Everything works on any events file produced by this package —
including files from other hosts, because the stream is self-contained.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.obs.events import (
    ArcsPruned,
    BackendSelected,
    CampaignFinished,
    CampaignStarted,
    CheckpointReused,
    ChunkCompleted,
    InjectionFired,
    OutcomeClassified,
    ParsedEvent,
    RunReconverged,
    StoreArtifactRejected,
    UnitReused,
    read_events,
)

__all__ = ["EventsSummary", "summarize_events", "render_summary"]

#: Histogram metric names treated as campaign phases, with display labels.
PHASE_METRICS: tuple[tuple[str, str], ...] = (
    ("phase.golden_run.seconds", "Golden Run (per case)"),
    ("phase.injection_run.seconds", "IR suffix simulation"),
    ("phase.comparison.seconds", "Golden-Run comparison"),
    ("checkpoint.save.seconds", "checkpoint save"),
    ("checkpoint.restore.seconds", "checkpoint restore"),
    ("chunk.seconds", "worker chunk"),
    ("kernel.batch_step.seconds", "batched kernel frame step"),
)


@dataclass
class EventsSummary:
    """Aggregates extracted from one parsed event stream."""

    manifest: dict = field(default_factory=dict)
    n_events: int = 0
    total_runs: int = 0
    mode: str = "?"
    backend: str | None = None
    outcome_mix: TallyCounter = field(default_factory=TallyCounter)
    #: (module, input, output) -> propagation count
    arc_hits: TallyCounter = field(default_factory=TallyCounter)
    #: (module, input, output) -> injections contributing to the arc
    arc_injections: TallyCounter = field(default_factory=TallyCounter)
    n_fired: int = 0
    n_pruned_targets: int = 0
    n_pruned_runs: int = 0
    n_cached_units: int = 0
    n_cached_runs: int = 0
    n_store_rejected: int = 0
    n_checkpoint_reuses: int = 0
    skipped_ms: int = 0
    n_reconverged: int = 0
    fast_forwarded_ms: int = 0
    n_chunks: int = 0
    elapsed_s: float | None = None
    metrics: dict = field(default_factory=dict)

    def top_arcs(self, n: int = 10) -> list[tuple[tuple[str, str, str], int, int]]:
        """The ``n`` hottest arcs as (arc, hits, injections)."""
        ranked = sorted(
            self.arc_hits.items(), key=lambda item: (-item[1], item[0])
        )
        return [
            (arc, hits, self.arc_injections[arc]) for arc, hits in ranked[:n]
        ]


def summarize_events(
    events: Iterable[ParsedEvent], metrics: Mapping | None = None
) -> EventsSummary:
    """Fold a parsed event stream into an :class:`EventsSummary`.

    ``metrics`` overrides the snapshot embedded in
    :class:`CampaignFinished` (useful with a separate ``metrics.json``
    from the same campaign).
    """
    summary = EventsSummary()
    reused_rows: set[tuple[str, str, str]] = set()
    for parsed in events:
        summary.n_events += 1
        event = parsed.event
        if isinstance(event, CampaignStarted):
            summary.manifest = event.manifest
            summary.total_runs = event.total_runs
            summary.mode = event.mode
        elif isinstance(event, BackendSelected):
            summary.backend = event.backend
        elif isinstance(event, OutcomeClassified):
            summary.outcome_mix[event.outcome] += 1
            for output in event.propagated_outputs:
                summary.arc_hits[(event.module, event.signal, output)] += 1
            # Denominator: each classified outcome is one injection into
            # every arc rooted at (module, signal); count via the hits
            # keys lazily below using outcome totals per location.
            summary.arc_injections[(event.module, event.signal, "*")] += 1
        elif isinstance(event, InjectionFired):
            summary.n_fired += 1
        elif isinstance(event, ArcsPruned):
            summary.n_pruned_targets += len(event.targets)
            summary.n_pruned_runs += (
                len(event.targets) * event.n_injections_per_target
            )
        elif isinstance(event, UnitReused):
            # An adaptive row can supply cached outcomes in several rounds.
            reused_rows.add((event.case_id, event.module, event.signal))
            summary.n_cached_units = len(reused_rows)
            summary.n_cached_runs += event.n_runs
        elif isinstance(event, StoreArtifactRejected):
            summary.n_store_rejected += 1
        elif isinstance(event, CheckpointReused):
            summary.n_checkpoint_reuses += 1
            summary.skipped_ms += event.skipped_ms
        elif isinstance(event, RunReconverged):
            summary.n_reconverged += 1
            summary.fast_forwarded_ms += event.frames_fast_forwarded
        elif isinstance(event, ChunkCompleted):
            summary.n_chunks += 1
        elif isinstance(event, CampaignFinished):
            summary.elapsed_s = event.elapsed_s
            summary.metrics = dict(event.metrics)
    # Resolve per-arc denominators from the per-location totals.
    resolved: TallyCounter = TallyCounter()
    for (module, signal, output), _hits in summary.arc_hits.items():
        resolved[(module, signal, output)] = summary.arc_injections[
            (module, signal, "*")
        ]
    summary.arc_injections = resolved
    if metrics is not None:
        summary.metrics = dict(metrics)
    return summary


def _render_phases(metrics: Mapping) -> list[str]:
    from repro.core.report import format_table

    rows = []
    for name, label in PHASE_METRICS:
        data = metrics.get(name)
        if not data or data.get("type") != "histogram" or not data["count"]:
            continue
        rows.append(
            (
                label,
                data["count"],
                f"{data['sum']:.3f}",
                f"{data['sum'] / data['count'] * 1000:.3f}",
                f"{data['max'] * 1000:.3f}",
            )
        )
    if not rows:
        return ["(no phase metrics recorded)"]
    rows.sort(key=lambda row: -float(row[2]))
    return [
        format_table(
            headers=("Phase", "spans", "total s", "mean ms", "max ms"),
            rows=rows,
            title="Phase breakdown (slowest first)",
        )
    ]


def _render_kernel_line(metrics: Mapping) -> str | None:
    """One-line digest of the batched kernel's ``kernel.*`` metrics."""

    def _value(name: str) -> int:
        data = metrics.get(name)
        if not data or "value" not in data:
            return 0
        return int(data["value"])

    retired = _value("kernel.lanes.retired")
    fallback_runs = _value("kernel.fallback.runs")
    scalar_modules = _value("kernel.scalar_fallback.modules")
    if not (retired or fallback_runs or scalar_modules):
        return None
    return (
        f"batched kernel: {retired} lanes retired, "
        f"{fallback_runs} reference-fallback runs, "
        f"{scalar_modules} scalar-fallback modules"
    )


def render_summary(summary: EventsSummary, top: int = 10) -> str:
    """Render the text report of one events file."""
    from repro.core.report import format_table

    lines: list[str] = []
    manifest = summary.manifest
    if manifest:
        lines.append("Campaign manifest")
        lines.append(f"  config hash     : {manifest.get('config_hash')}")
        lines.append(f"  schema version  : {manifest.get('schema_version')}")
        lines.append(f"  package version : {manifest.get('package_version')}")
        lines.append(f"  seed            : {manifest.get('seed')}")
        lines.append(
            f"  grid            : {manifest.get('n_cases')} cases x "
            f"{manifest.get('n_targets')} targets x "
            f"{len(manifest.get('injection_times_ms', ()))} times x "
            f"{manifest.get('n_error_models')} models "
            f"= {manifest.get('total_runs')} runs"
        )
        host = manifest.get("host", {})
        lines.append(
            f"  host            : {host.get('platform')} "
            f"(python {host.get('python')}, {host.get('cpu_count')} cpus)"
        )
        lines.append(f"  mode            : {summary.mode}")
        backend = summary.backend or manifest.get("backend")
        if backend is not None:
            lines.append(f"  backend         : {backend}")
        lines.append("")

    n_classified = sum(summary.outcome_mix.values())
    lines.append(
        f"{summary.n_events} events; {n_classified} classified outcomes"
        + (
            f"; finished in {summary.elapsed_s:.2f}s"
            if summary.elapsed_s is not None
            else " (stream has no CampaignFinished event)"
        )
    )
    if summary.n_pruned_targets:
        lines.append(
            f"static pruning: {summary.n_pruned_targets} target(s) proven "
            f"zero-permeability, {summary.n_pruned_runs} runs skipped"
        )
    if summary.n_cached_units:
        lines.append(
            f"result store: {summary.n_cached_units} target row(s) reused, "
            f"{summary.n_cached_runs} injection runs recomposed from cache"
        )
    if summary.n_store_rejected:
        lines.append(
            f"WARNING: {summary.n_store_rejected} store artifact(s) failed "
            "content verification and were re-executed"
        )
    if summary.n_checkpoint_reuses:
        lines.append(
            f"checkpoint reuse: {summary.n_checkpoint_reuses} resumes, "
            f"{summary.skipped_ms} simulated ms skipped"
        )
    if summary.n_reconverged:
        lines.append(
            f"reconvergence fast-forward: {summary.n_reconverged} runs "
            f"reconverged, {summary.fast_forwarded_ms} simulated ms spliced"
        )
    if summary.n_chunks:
        lines.append(f"parallel chunks completed: {summary.n_chunks}")
    kernel_line = _render_kernel_line(summary.metrics)
    if kernel_line is not None:
        lines.append(kernel_line)
    dropped_data = summary.metrics.get("events.dropped") or {}
    dropped = int(dropped_data.get("value", 0) or 0)
    if dropped:
        lines.append(
            f"WARNING: {dropped} event(s) were dropped by a bounded "
            "ring-buffer sink; the recorded stream is incomplete"
        )
    lines.append("")

    if summary.outcome_mix:
        rows = []
        for verdict in ("propagated", "no_effect", "not_fired"):
            count = summary.outcome_mix.get(verdict, 0)
            rows.append(
                (verdict, count, f"{count / n_classified:.1%}")
            )
        for verdict, count in sorted(summary.outcome_mix.items()):
            if verdict not in ("propagated", "no_effect", "not_fired"):
                rows.append((verdict, count, f"{count / n_classified:.1%}"))
        lines.append(
            format_table(
                headers=("Outcome", "runs", "share"),
                rows=rows,
                title="Outcome mix",
            )
        )
        lines.append("")

    lines.extend(_render_phases(summary.metrics))
    lines.append("")

    arcs = summary.top_arcs(top)
    if arcs:
        rows = [
            (
                f"{module}.{input_signal} -> {output}",
                hits,
                injections,
                f"{hits / injections:.3f}" if injections else "-",
            )
            for (module, input_signal, output), hits, injections in arcs
        ]
        lines.append(
            format_table(
                headers=("Arc", "propagated", "injections", "P^M"),
                rows=rows,
                title=f"Hottest observed propagation arcs (top {len(rows)})",
            )
        )
    else:
        lines.append("(no propagation arcs observed)")
    return "\n".join(lines)


def summarize_events_file(
    events_path, metrics_path=None, top: int = 10
) -> str:
    """Convenience wrapper: parse, fold and render one events file."""
    metrics = None
    if metrics_path is not None:
        with open(metrics_path, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
    summary = summarize_events(read_events(events_path), metrics=metrics)
    return render_summary(summary, top=top)
