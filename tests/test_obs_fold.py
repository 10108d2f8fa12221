"""Every counted metric is a fold of the recorded event stream.

One small generated-system campaign exercises every counting path at
once: static pruning, a result store with hits and misses, adaptive
stopping and the batched backend, run serially and over two workers.
A fresh :class:`CampaignStateReducer` over its ``events.jsonl`` must
reproduce every counter and gauge the campaign embedded in
``CampaignFinished``; only what is measured rather than counted (the
wall clock, ring-buffer drops, the state memo's hit counters and the
lane kernel's own ``kernel.*`` instruments) is exempt.  The metrics
catalog in docs/OBSERVABILITY.md must name every instrument the
campaign writes.  Each injection run is one ``RunFinished`` carrying
exactly the outcome the result holds.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.injection.campaign import InjectionCampaign
from repro.injection.error_models import BitFlip
from repro.injection.outcomes import InjectionOutcome
from repro.obs import CampaignObserver, CampaignStateReducer
from repro.obs.events import CampaignFinished, RunFinished, read_events
from repro.simulation.backend import available_backends
from repro.verify import default_campaign, generate_system

CATALOG = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"

#: Instruments a campaign measures rather than counts.
MEASURED = (
    "campaign.elapsed_seconds",
    "events.dropped",
    "fast_forward.memo_hits",
    "fast_forward.memo_frames",
)

pytestmark = pytest.mark.skipif(
    "batched" not in available_backends(), reason="batched backend unavailable"
)


def _counted(metrics: dict) -> dict:
    """The counters and gauges that must be folds of the stream."""
    return {
        name: data
        for name, data in metrics.items()
        if data["type"] != "histogram"
        and name not in MEASURED
        and not name.startswith("kernel.")
    }


@pytest.fixture(scope="module", params=["serial", "parallel"])
def recorded(request, tmp_path_factory):
    """Run the campaign once per mode; return what it recorded."""
    workdir = tmp_path_factory.mktemp(request.param)
    gen = generate_system(0)
    config = dataclasses.replace(
        default_campaign(gen).to_config(reuse=True, fast_forward=True),
        error_models=(BitFlip(bit=0), BitFlip(bit=3)),
        static_prune=True,
        backend="batched",
        store=str(workdir / "store"),
    )
    probe = InjectionCampaign(gen.system, gen.run_factory, {"gen": None}, config)
    live, pruned = probe._plan_pruning()
    assert pruned, "the campaign must prune a target"
    # An exhaustive run of one live target stores rows the adaptive
    # campaign reuses; every other live row misses.
    InjectionCampaign(
        gen.system,
        gen.run_factory,
        {"gen": None},
        dataclasses.replace(config, targets=live[:1]),
    ).execute()
    events_path = workdir / "events.jsonl"
    observer = CampaignObserver.to_files(events_path=events_path)
    campaign = InjectionCampaign(
        gen.system,
        gen.run_factory,
        {"gen": None},
        dataclasses.replace(config, adaptive=True, ci_width=0.3),
        observer=observer,
    )
    if request.param == "parallel":
        result = campaign.execute_parallel(max_workers=2)
    else:
        result = campaign.execute()
    observer.close()
    metrics_path = workdir / "metrics.json"
    observer.metrics.dump_json(metrics_path)
    return result, campaign.last_store_stats, events_path, metrics_path


def test_fresh_fold_reproduces_every_count(recorded):
    result, stats, events_path, metrics_path = recorded
    finished = [
        parsed.event
        for parsed in read_events(events_path)
        if isinstance(parsed.event, CampaignFinished)
    ]
    assert len(finished) == 1
    embedded = finished[0].metrics
    assert embedded == json.loads(metrics_path.read_text(encoding="utf-8"))

    folded = CampaignStateReducer.from_events_file(events_path).folded_metrics()
    assert _counted(folded) == _counted(embedded)
    assert folded["ff.error_lifetime.ms"] == embedded["ff.error_lifetime.ms"]

    # The counts agree with the engine's own records, and every
    # counting path was exercised.
    value = {name: data["value"] for name, data in _counted(embedded).items()}
    assert value["store.hits"] == stats.hits > 0
    assert value["store.misses"] == stats.misses > 0
    assert value["store.runs_reused"] == stats.runs_reused
    assert value["runs.injection"] == stats.runs_executed
    assert value["prune.runs_skipped"] == result.n_pruned_runs() > 0
    assert value["outcomes.total"] == len(result)
    assert value["outcomes.fired"] == result.n_fired()
    assert value["ff.runs_reconverged"] == result.n_reconverged()
    assert value["adaptive.trials"] == result.n_adaptive_trials()
    assert value["adaptive.targets_retired"] == len(result.adaptive_rows())
    assert embedded["kernel.batch_step.seconds"]["count"] > 0


def _catalog_patterns() -> list[re.Pattern]:
    """Every backticked name in the catalog table's first column;
    ``{…}`` stands for any one name segment."""
    text = CATALOG.read_text(encoding="utf-8")
    section = text.split("## Metrics catalog", 1)[1].split("\n## ", 1)[0]
    patterns = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
            parts = re.split(r"\{[^}]*\}", name)
            patterns.append(
                re.compile("[^.]+".join(re.escape(part) for part in parts))
            )
    return patterns


def test_catalog_names_every_metric(recorded):
    _result, _stats, _events_path, metrics_path = recorded
    patterns = _catalog_patterns()
    names = json.loads(metrics_path.read_text(encoding="utf-8"))
    missing = [
        name
        for name in names
        if not any(pattern.fullmatch(name) for pattern in patterns)
    ]
    assert not missing, f"docs/OBSERVABILITY.md does not catalog {missing}"


def _outcome_key(outcome: InjectionOutcome) -> tuple:
    return (
        outcome.case_id,
        outcome.module,
        outcome.input_signal,
        outcome.scheduled_time_ms,
        outcome.error_model,
    )


@pytest.mark.parametrize(
    "mode", ["serial", "workers", "warm", "warm-partial", "adaptive", "batched"]
)
def test_one_run_finished_per_outcome(mode, tmp_path):
    """Every outcome of the result is one ``RunFinished`` with its record.

    ``cached`` is true exactly for the runs replayed from the store.
    Cached replays of a case follow its executed runs, so a case mixing
    both ("warm-partial") is compared run by run, not in order.
    """
    gen = generate_system(0)
    config = dataclasses.replace(
        default_campaign(gen).to_config(reuse=True, fast_forward=True),
        error_models=(BitFlip(bit=0), BitFlip(bit=3)),
    )
    cases = {"a": None, "b": None}
    if mode == "batched":
        config = dataclasses.replace(config, backend="batched")
    elif mode == "adaptive":
        config = dataclasses.replace(config, adaptive=True, ci_width=0.3)
    stored: set[tuple[str, str]] = set()
    if mode.startswith("warm"):
        config = dataclasses.replace(config, store=str(tmp_path / "store"))
        cold = InjectionCampaign(gen.system, gen.run_factory, cases, config)
        if mode == "warm-partial":
            cold = InjectionCampaign(
                gen.system,
                gen.run_factory,
                cases,
                dataclasses.replace(config, targets=cold.targets[:1]),
            )
        stored = set(cold.targets)
        cold.execute()
    events_path = tmp_path / "events.jsonl"
    observer = CampaignObserver.to_files(events_path=events_path)
    campaign = InjectionCampaign(
        gen.system, gen.run_factory, cases, config, observer=observer
    )
    if mode in ("workers", "adaptive"):
        result = campaign.execute_parallel(max_workers=2)
    else:
        result = campaign.execute()
    observer.close()

    runs = [
        parsed.event
        for parsed in read_events(events_path)
        if isinstance(parsed.event, RunFinished)
    ]
    recorded = [
        (InjectionOutcome.from_jsonable(event.outcome), event.cached)
        for event in runs
    ]
    expected = [
        (outcome, (outcome.module, outcome.input_signal) in stored)
        for outcome in result
    ]
    assert len(runs) == len(result) > 0
    if mode == "warm-partial":
        assert 0 < sum(cached for _, cached in expected) < len(expected)
        recorded.sort(key=lambda pair: _outcome_key(pair[0]))
        expected.sort(key=lambda pair: _outcome_key(pair[0]))
    assert recorded == expected
