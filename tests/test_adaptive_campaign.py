"""Adaptive campaigns end to end: exactness, determinism, interplay.

The contract under test (docs/ADAPTIVE.md): ``adaptive=True`` only
*selects* which grid coordinates to run — every executed outcome is
byte-identical to the exhaustive campaign's at the same coordinates,
``adaptive=False`` is byte-identical to the pre-adaptive engine under
every backend and execution path, and the controller composes with
static pruning (pruned arcs are never sampled) and the result store
(exhaustive rows satisfy adaptive requests; warm replay executes zero
runs).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import BitFlip, bit_flip_models
from repro.injection.estimator import estimate_matrix
from repro.model.errors import CampaignError
from repro.verify.generators import generate_system

CASES = {"w0": None}

#: Baseline grid: 2 instants x 4 bits = 8 trials per (case, target).
BASE = dict(
    duration_ms=200,
    injection_times_ms=(30, 110),
    error_models=tuple(bit_flip_models(4)),
    seed=5,
    reuse_golden_prefix=True,
    fast_forward=True,
)

#: Wide enough that some targets retire early, narrow enough that a
#: fractional arc exhausts its pool — both stopping paths exercised.
ADAPTIVE = dict(adaptive=True, ci_width=0.2)


def _campaign(gen, observer=None, **overrides):
    config = CampaignConfig(**{**BASE, **overrides})
    return InjectionCampaign(
        gen.system, gen.run_factory, CASES, config, observer=observer
    )


def _outs(result):
    return [outcome.to_jsonable() for outcome in result]


def _coord(outcome):
    return (
        outcome.case_id,
        outcome.module,
        outcome.input_signal,
        outcome.scheduled_time_ms,
        outcome.error_model,
    )


def _rows(result):
    return [row.to_jsonable() for row in result.adaptive_rows()]


# ---------------------------------------------------------------------------
# adaptive=False is the pre-adaptive engine, byte for byte
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["reference", "batched"])
def test_adaptive_false_is_byte_identical_to_default(backend):
    gen = generate_system(11)
    baseline = _campaign(gen, backend=backend).execute()
    explicit = _campaign(gen, backend=backend, adaptive=False).execute()
    assert _outs(explicit) == _outs(baseline)
    assert explicit.adaptive_rows() == ()
    parallel = _campaign(gen, backend=backend, adaptive=False).execute_parallel(
        max_workers=2
    )
    assert _outs(parallel) == _outs(baseline)


# ---------------------------------------------------------------------------
# Adaptive runs: exact subsets, deterministic, path-independent
# ---------------------------------------------------------------------------


def test_adaptive_outcomes_are_exact_subset_of_exhaustive():
    gen = generate_system(11)
    exhaustive = {_coord(o): o.to_jsonable() for o in _campaign(gen).execute()}
    result = _campaign(gen, **ADAPTIVE).execute()
    assert 0 < len(result) <= len(exhaustive)
    for outcome in result:
        assert exhaustive[_coord(outcome)] == outcome.to_jsonable()
    rows = result.adaptive_rows()
    assert {(r.module, r.input_signal) for r in rows} == {
        (c[1], c[2]) for c in exhaustive
    }
    for row in rows:
        assert 1 <= row.n_trials <= row.n_grid
        assert row.reason in ("confidence", "exhausted")
    estimate_matrix(result, require_complete=True)


def test_adaptive_round_schedule_and_matrix_are_deterministic():
    gen = generate_system(7)
    first = _campaign(gen, **ADAPTIVE).execute()
    second = _campaign(gen, **ADAPTIVE).execute()
    assert _outs(first) == _outs(second)
    assert _rows(first) == _rows(second)
    assert (
        estimate_matrix(first, require_complete=True).to_jsonable()
        == estimate_matrix(second, require_complete=True).to_jsonable()
    )


def test_adaptive_seed_changes_the_sampled_schedule():
    # ci 0.3 retires well before the pool runs dry, so the per-target
    # shuffle (seeded by the master seed) shows up in the sampled set.
    gen = generate_system(7)
    first = _campaign(gen, adaptive=True, ci_width=0.3).execute()
    reseeded = _campaign(
        gen, adaptive=True, ci_width=0.3, seed=6
    ).execute()
    assert {_coord(o) for o in first} != {_coord(o) for o in reseeded}


def test_adaptive_parallel_and_batched_match_serial():
    gen = generate_system(11)
    serial = _campaign(gen, **ADAPTIVE).execute()
    parallel = _campaign(gen, **ADAPTIVE).execute_parallel(max_workers=2)
    batched = _campaign(gen, **ADAPTIVE, backend="batched").execute()
    assert _outs(parallel) == _outs(serial)
    assert _rows(parallel) == _rows(serial)
    assert _outs(batched) == _outs(serial)
    assert _rows(batched) == _rows(serial)


@pytest.mark.parametrize("n_targets", [None, 1])
@pytest.mark.parametrize("backend", ["reference", "batched"])
def test_adaptive_parallel_slices_are_byte_identical(backend, n_targets):
    # Rounds are cut into ~4 slices per worker; one target gives
    # two-trial rounds, smaller than the pool, so some workers idle.
    gen = generate_system(11)
    targets = _campaign(gen).targets[:n_targets]
    kw = dict(**ADAPTIVE, backend=backend, targets=targets)
    serial = _campaign(gen, **kw).execute()
    for workers in (1, 2, 3):
        parallel = _campaign(gen, **kw).execute_parallel(max_workers=workers)
        assert _outs(parallel) == _outs(serial), workers
        assert _rows(parallel) == _rows(serial), workers


def _round_events(gen, tmp_path, name, run):
    from repro.obs import CampaignObserver
    from repro.obs.events import ChunkCompleted, RoundCompleted, read_events

    events_path = tmp_path / f"{name}.jsonl"
    observer = CampaignObserver.to_files(
        events_path=str(events_path), with_metrics=False, system=gen.system
    )
    run(_campaign(gen, observer=observer, **ADAPTIVE))
    observer.close()
    rounds: list[tuple[int, list[int]]] = []
    chunks: list[int] = []
    for parsed in read_events(events_path):
        if isinstance(parsed.event, ChunkCompleted):
            chunks.append(parsed.event.n_runs)
        elif isinstance(parsed.event, RoundCompleted):
            rounds.append((parsed.event.n_trials, chunks))
            chunks = []
    return rounds


def test_adaptive_rounds_fan_out_across_the_pool(tmp_path):
    """Regression: a round used to be one pool task per case."""
    gen = generate_system(11)
    serial = _round_events(gen, tmp_path, "serial", lambda c: c.execute())
    parallel = _round_events(
        gen, tmp_path, "parallel", lambda c: c.execute_parallel(max_workers=2)
    )
    assert [n for n, _ in parallel] == [n for n, _ in serial]
    assert any(n >= 2 for n, _ in parallel)
    for n_trials, chunk_runs in parallel:
        assert sum(chunk_runs) == n_trials
        if n_trials >= 2:
            assert len(chunk_runs) > 1, (n_trials, chunk_runs)


# ---------------------------------------------------------------------------
# Interplay with static pruning and the result store
# ---------------------------------------------------------------------------


def test_adaptive_never_samples_statically_pruned_arcs():
    gen = generate_system(0)  # seed 0: 3 prunable targets at bit 0
    models = (BitFlip(0),)
    pruned_config = dict(
        error_models=models, static_prune=True, adaptive=True, ci_width=0.2
    )
    result = _campaign(gen, **pruned_config).execute()
    pruned = set(result.pruned_targets())
    assert pruned, "seed 0 should have prunable targets"
    sampled = {(o.module, o.input_signal) for o in result}
    assert not pruned & sampled
    retired = {(r.module, r.input_signal) for r in result.adaptive_rows()}
    assert not pruned & retired
    # Pruned arcs are exact zeros in the matrix, same as exhaustive.
    exhaustive = _campaign(
        gen, error_models=models, static_prune=True
    ).execute()
    pruned_arcs = [
        key
        for key, est in estimate_matrix(
            result, require_complete=True
        ).items()
        if (key[0], key[1]) in pruned
    ]
    assert pruned_arcs
    exhaustive_matrix = estimate_matrix(exhaustive, require_complete=True)
    adaptive_matrix = estimate_matrix(result, require_complete=True)
    for key in pruned_arcs:
        assert adaptive_matrix.get(*key) == exhaustive_matrix.get(*key) == 0.0


def test_warm_store_replays_adaptive_campaign_without_executing(tmp_path):
    gen = generate_system(11)
    cold = _campaign(gen, **ADAPTIVE, store=str(tmp_path))
    cold_result = cold.execute()
    cold_stats = cold.last_store_stats
    assert cold_stats.hits == 0
    assert cold_stats.runs_executed == len(cold_result)
    warm = _campaign(gen, **ADAPTIVE, store=str(tmp_path))
    warm_result = warm.execute()
    warm_stats = warm.last_store_stats
    assert warm_stats.runs_executed == 0 and warm_stats.misses == 0
    assert warm_stats.runs_reused == len(cold_result)
    assert _outs(warm_result) == _outs(cold_result)
    assert _rows(warm_result) == _rows(cold_result)


def test_exhaustive_store_rows_satisfy_adaptive_requests(tmp_path):
    gen = generate_system(11)
    exhaustive = _campaign(gen, store=str(tmp_path))
    exhaustive.execute()
    assert exhaustive.last_store_stats.runs_executed > 0
    adaptive = _campaign(gen, **ADAPTIVE, store=str(tmp_path))
    result = adaptive.execute()
    stats = adaptive.last_store_stats
    assert stats.runs_executed == 0 and stats.misses == 0
    assert stats.runs_reused == len(result)
    # The storeless adaptive campaign is the ground truth.
    assert _outs(result) == _outs(_campaign(gen, **ADAPTIVE).execute())


def test_adaptive_store_rows_have_their_own_keys(tmp_path):
    """Partial adaptive rows never masquerade as exhaustive units."""
    gen = generate_system(11)
    _campaign(gen, **ADAPTIVE, store=str(tmp_path)).execute()
    kinds = {
        json.loads(path.read_text())["payload"]["kind"]
        for path in sorted((tmp_path / "units").glob("*/*.json"))
    }
    assert "adaptive-unit" in kinds
    # An exhaustive campaign over the same grid misses the adaptive
    # rows and executes the full grid fresh.
    full = _campaign(gen, store=str(tmp_path))
    full_result = full.execute()
    assert full.last_store_stats.runs_executed == len(full_result)


def test_adaptive_crash_keeps_retired_rows_stored(tmp_path):
    """A row is stored when its target retires, not at campaign end."""
    from repro.obs import CampaignObserver
    from repro.obs.events import RoundCompleted, read_events

    gen = generate_system(11)
    events_path = tmp_path / "cold.jsonl"
    observer = CampaignObserver.to_files(
        events_path=str(events_path), with_metrics=False, system=gen.system
    )
    cold = _campaign(gen, observer=observer, **ADAPTIVE).execute()
    observer.close()
    rounds = [
        parsed.event.n_trials
        for parsed in read_events(events_path)
        if isinstance(parsed.event, RoundCompleted)
    ]
    first = min(row.round_index for row in cold.adaptive_rows())
    assert first < len(rounds), "needs a round after the first retirement"
    # Crash on the first run after the first retirement round.
    budget = sum(rounds[:first])
    seen = []

    def crash(outcome, injected, golden):
        seen.append(outcome)
        if len(seen) > budget:
            raise RuntimeError("injected crash")

    store = str(tmp_path / "store")
    with pytest.raises(RuntimeError, match="injected crash"):
        _campaign(gen, **ADAPTIVE, store=store).execute(inspector=crash)
    resumed = _campaign(gen, **ADAPTIVE, store=store)
    result = resumed.execute()
    stats = resumed.last_store_stats
    assert stats.hits > 0
    assert 0 < stats.runs_executed < len(cold)
    assert _outs(result) == _outs(cold)
    assert _rows(result) == _rows(cold)


def test_adaptive_with_prune_and_store_warm_replay(tmp_path):
    gen = generate_system(0)
    kw = dict(
        error_models=(BitFlip(0),),
        static_prune=True,
        adaptive=True,
        ci_width=0.2,
        store=str(tmp_path),
    )
    cold = _campaign(gen, **kw)
    cold_result = cold.execute()
    warm = _campaign(gen, **kw)
    warm_result = warm.execute()
    assert warm.last_store_stats.runs_executed == 0
    assert _outs(warm_result) == _outs(cold_result)
    assert _rows(warm_result) == _rows(cold_result)
    assert warm_result.n_pruned_runs() == cold_result.n_pruned_runs()


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "params",
    [
        dict(ci_width=0.1),
    ],
)
def test_adaptive_params_require_adaptive_flag(params):
    with pytest.raises(CampaignError, match="adaptive"):
        CampaignConfig(**{**BASE, **params})


@pytest.mark.parametrize(
    "params",
    [
        dict(adaptive=True, ci_width=0.0),
        dict(adaptive=True, ci_width=0.6),
    ],
)
def test_invalid_adaptive_params_are_rejected(params):
    with pytest.raises(CampaignError):
        CampaignConfig(**{**BASE, **params})


# ---------------------------------------------------------------------------
# Observability: events, metrics, dashboard snapshot
# ---------------------------------------------------------------------------


def test_adaptive_observability_round_trip(tmp_path):
    from repro.obs import CampaignObserver
    from repro.obs.dash.reducer import CampaignStateReducer, validate_snapshot
    from repro.obs.events import (
        BudgetExhausted,
        RoundCompleted,
        TargetRetired,
        read_events,
        validate_events,
    )

    gen = generate_system(11)
    events_path = tmp_path / "events.jsonl"
    observer = CampaignObserver.to_files(
        events_path=str(events_path),
        with_metrics=True,
        system=gen.system,
    )
    result = _campaign(
        gen, observer=observer, adaptive=True, ci_width=0.3
    ).execute()
    observer.close()
    validate_events(events_path)
    events = [parsed.event for parsed in read_events(events_path)]
    retired = [e for e in events if isinstance(e, TargetRetired)]
    rounds = [e for e in events if isinstance(e, RoundCompleted)]
    assert len(retired) == len(result.adaptive_rows())
    assert rounds and rounds[-1].n_open == 0
    assert sum(e.n_trials for e in rounds) == len(result)
    exhausted = [e for e in events if isinstance(e, BudgetExhausted)]
    unconverged = sum(
        1 for row in result.adaptive_rows() if row.reason != "confidence"
    )
    if unconverged:
        assert exhausted and exhausted[-1].n_targets == unconverged
    else:
        assert not exhausted
    metrics = observer.metrics
    assert metrics.counter("adaptive.targets_retired").value == len(retired)
    assert metrics.counter("adaptive.rounds").value == len(rounds)
    assert metrics.counter("adaptive.trials").value == len(result)

    reducer = CampaignStateReducer.from_events_file(events_path)
    snapshot = reducer.snapshot()
    validate_snapshot(snapshot)
    adaptive = snapshot["adaptive"]
    assert adaptive["targets_retired"] == len(result.adaptive_rows())
    assert adaptive["trials"] == len(result)
    assert adaptive["targets_open"] == 0
    assert adaptive["unconverged"] == unconverged
    reasons = {row["reason"] for row in adaptive["retired"]}
    assert reasons <= {"confidence", "exhausted"}
