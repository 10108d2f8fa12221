"""The content-addressed result store and incremental campaigns.

The contract under test (docs/INCREMENTAL.md): a campaign executed
against a warm store recomposes outcomes, estimate matrix and event
stream byte-identical to a cold run while executing zero injection
runs; editing one module re-runs exactly the rows whose dependency
cone contains it; and every corruption mode of the on-disk artifacts
degrades to a cache miss, never to a wrong result.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import pytest

from repro.arrestment import build_arrestment_model, build_arrestment_run
from repro.arrestment.testcases import reduced_test_cases
from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import BitFlip, StuckAtZero, bit_flip_models
from repro.injection.estimator import estimate_matrix
from repro.store import (
    ResultStore,
    UnitKeyBuilder,
    canonical_json,
    content_digest,
    dependency_cone,
    environment_couples_signals,
)
from repro.verify.generators import (
    GeneratedSystem,
    LcgEnvironment,
    generate_system,
)

from tests.conftest import assert_aborted_stream

CASES = {"w0": None}


def _campaign(gen, store=None, observer=None, **overrides):
    config = CampaignConfig(
        duration_ms=overrides.pop("duration_ms", 200),
        injection_times_ms=overrides.pop("injection_times_ms", (30, 110)),
        error_models=overrides.pop("error_models", tuple(bit_flip_models(4))),
        seed=overrides.pop("seed", 5),
        store=None if store is None else str(store),
        **overrides,
    )
    return InjectionCampaign(
        gen.system, gen.run_factory, CASES, config, observer=observer
    )


def _outs(result):
    return [outcome.to_jsonable() for outcome in result]


def _matrix(result):
    return estimate_matrix(result, require_complete=False).to_jsonable()


def _edit_module(gen: GeneratedSystem, name: str) -> GeneratedSystem:
    """The same system with one module's transfer masks changed."""

    def mutate(module):
        if module.name != name:
            return module
        masks = {
            i: {o: mask ^ 1 for o, mask in outputs.items()}
            for i, outputs in module.masks.items()
        }
        return dataclasses.replace(module, masks=masks)

    spec = dataclasses.replace(
        gen.spec, modules=tuple(mutate(m) for m in gen.spec.modules)
    )
    return GeneratedSystem(spec)


class TestWarmReplay:
    def test_cold_run_matches_storeless_baseline(self, tmp_path):
        gen = generate_system(11)
        baseline = _campaign(gen).execute()
        campaign = _campaign(gen, store=tmp_path)
        result = campaign.execute()
        stats = campaign.last_store_stats
        assert stats.hits == 0 and stats.misses > 0
        assert stats.runs_executed == len(result)
        assert _outs(result) == _outs(baseline)
        assert _matrix(result) == _matrix(baseline)

    def test_warm_run_executes_nothing_and_is_byte_identical(self, tmp_path):
        gen = generate_system(11)
        cold = _campaign(gen, store=tmp_path).execute()
        campaign = _campaign(gen, store=tmp_path)
        warm = campaign.execute()
        stats = campaign.last_store_stats
        assert stats.runs_executed == 0
        assert stats.misses == 0 and stats.uncacheable == 0
        assert stats.runs_reused == len(cold)
        assert _outs(warm) == _outs(cold)
        assert _matrix(warm) == _matrix(cold)

    def test_warm_parallel_executes_nothing(self, tmp_path):
        gen = generate_system(11)
        cold = _campaign(gen, store=tmp_path).execute()
        campaign = _campaign(gen, store=tmp_path)
        warm = campaign.execute_parallel(max_workers=2)
        assert campaign.last_store_stats.runs_executed == 0
        assert _outs(warm) == _outs(cold)

    def test_cold_parallel_populates_store(self, tmp_path):
        gen = generate_system(11)
        baseline = _campaign(gen).execute()
        cold = _campaign(gen, store=tmp_path)
        result = cold.execute_parallel(max_workers=2)
        assert cold.last_store_stats.runs_executed == len(result)
        assert _outs(result) == _outs(baseline)
        warm = _campaign(gen, store=tmp_path)
        assert _outs(warm.execute()) == _outs(baseline)
        assert warm.last_store_stats.runs_executed == 0

    def test_no_cache_reexecutes_and_refreshes(self, tmp_path):
        gen = generate_system(11)
        cold = _campaign(gen, store=tmp_path).execute()
        campaign = _campaign(gen, store=tmp_path, no_cache=True)
        refreshed = campaign.execute()
        stats = campaign.last_store_stats
        assert stats.hits == 0
        assert stats.runs_executed == len(refreshed)
        assert _outs(refreshed) == _outs(cold)
        # The refresh rewrote (not invalidated) every artifact.
        warm = _campaign(gen, store=tmp_path)
        warm.execute()
        assert warm.last_store_stats.runs_executed == 0

    def test_backend_is_excluded_from_the_key(self, tmp_path):
        pytest.importorskip("numpy")
        gen = generate_system(11)
        _campaign(gen, store=tmp_path, backend="reference").execute()
        campaign = _campaign(gen, store=tmp_path, backend="batched")
        campaign.execute()
        assert campaign.last_store_stats.runs_executed == 0

    def test_seed_change_invalidates_everything(self, tmp_path):
        """Every config field an outcome record depends on is in the key."""
        gen = generate_system(11)
        _campaign(gen, store=tmp_path).execute()
        # Each change alters one field of the stored campaign, so any two
        # changed campaigns differ in two fields and share no key either.
        for change in (
            {"seed": 6},
            {"duration_ms": 240},
            {"injection_times_ms": (40, 110)},
            {"error_models": tuple(bit_flip_models(8)[4:])},
            {"fast_forward": False},
        ):
            campaign = _campaign(gen, store=tmp_path, **change)
            campaign.execute()
            stats = campaign.last_store_stats
            assert stats.hits == 0 and stats.misses > 0, change


class TestInvalidation:
    def test_module_edit_dirties_exactly_its_cone(self, tmp_path):
        gen = generate_system(11)
        system = gen.system
        _campaign(gen, store=tmp_path).execute()
        for victim in system.module_names():
            edited = _edit_module(gen, victim)
            campaign = _campaign(edited, store=tmp_path)
            campaign.execute()
            stats = campaign.last_store_stats
            dirty_modules = [
                name
                for name in system.module_names()
                if victim in dependency_cone(system, name)
            ]
            expected = sum(
                len(system.module(name).inputs) for name in dirty_modules
            )
            assert stats.misses == expected, (
                f"editing {victim}: {stats.misses} misses, expected "
                f"{expected} (cone rows of {dirty_modules})"
            )

    def test_mixed_replay_matches_cold_run_of_edited_system(self, tmp_path):
        gen = generate_system(11)
        _campaign(gen, store=tmp_path).execute()
        edited = _edit_module(gen, gen.spec.modules[-1].name)
        mixed = _campaign(edited, store=tmp_path)
        mixed_result = mixed.execute()
        stats = mixed.last_store_stats
        assert stats.hits > 0 and stats.misses > 0
        cold_result = _campaign(edited).execute()
        assert _outs(mixed_result) == _outs(cold_result)
        assert _matrix(mixed_result) == _matrix(cold_result)

    def test_mixed_replay_parallel(self, tmp_path):
        gen = generate_system(11)
        _campaign(gen, store=tmp_path).execute()
        edited = _edit_module(gen, gen.spec.modules[-1].name)
        mixed = _campaign(edited, store=tmp_path)
        mixed_result = mixed.execute_parallel(max_workers=2)
        assert mixed.last_store_stats.hits > 0
        assert _outs(mixed_result) == _outs(_campaign(edited).execute())

    def test_value_dependent_models_widen_the_cone(self, tmp_path):
        """Stuck-at corruption depends on the value it hits, so module
        edits must dirty every row, not just the cone's."""
        gen = generate_system(11)
        models = (StuckAtZero(0), BitFlip(1))
        _campaign(gen, store=tmp_path, error_models=models).execute()
        edited = _edit_module(gen, gen.spec.modules[-1].name)
        campaign = _campaign(edited, store=tmp_path, error_models=models)
        campaign.execute()
        stats = campaign.last_store_stats
        assert stats.hits == 0 and stats.misses == len(campaign.targets)


class TestRobustness:
    def _artifacts(self, store_dir):
        return sorted((store_dir / "units").glob("*/*.json"))

    def test_truncated_artifact_is_a_silent_miss(self, tmp_path):
        gen = generate_system(11)
        cold = _campaign(gen, store=tmp_path).execute()
        victim = self._artifacts(tmp_path)[0]
        victim.write_text('{"torn payload')
        campaign = _campaign(gen, store=tmp_path)
        warm = campaign.execute()
        stats = campaign.last_store_stats
        assert stats.misses == 1 and stats.rejected == 0
        assert stats.runs_executed > 0
        assert _outs(warm) == _outs(cold)
        # The re-executed row healed the artifact in place.
        healed = _campaign(gen, store=tmp_path)
        healed.execute()
        assert healed.last_store_stats.runs_executed == 0

    def test_digest_mismatch_is_rejected_with_event(self, tmp_path):
        from repro.obs import CampaignObserver
        from repro.obs.events import StoreArtifactRejected, read_events

        gen = generate_system(11)
        cold = _campaign(gen, store=tmp_path).execute()
        victim = self._artifacts(tmp_path)[0]
        data = json.loads(victim.read_text())
        data["payload"]["n_runs"] = 999  # valid JSON, wrong digest
        victim.write_text(json.dumps(data))

        events_path = tmp_path / "events.jsonl"
        observer = CampaignObserver.to_files(
            events_path=str(events_path), with_metrics=True, system=gen.system
        )
        campaign = _campaign(gen, store=tmp_path, observer=observer)
        warm = campaign.execute()
        observer.close()
        stats = campaign.last_store_stats
        assert stats.rejected == 1
        assert stats.misses == 1
        assert _outs(warm) == _outs(cold)
        assert observer.metrics.counter("store.rejected").value == 1
        rejected = [
            parsed.event
            for parsed in read_events(events_path)
            if isinstance(parsed.event, StoreArtifactRejected)
        ]
        assert len(rejected) == 1
        assert rejected[0].reason == "payload digest mismatch"
        assert rejected[0].key in str(victim)

    def test_unit_with_old_derived_fields_is_still_a_hit(self, tmp_path):
        """Units once carried per-arc counts, lifetimes and fired or
        reconverged totals beside the outcomes; reuse reads only the
        outcomes, so such artifacts replay byte-identically."""
        gen = generate_system(11)
        cold = _campaign(gen, store=tmp_path).execute()
        store = ResultStore(tmp_path)
        for path in self._artifacts(tmp_path):
            data = json.loads(path.read_text())
            payload = data["payload"]
            assert set(payload) == {
                "kind", "case_id", "module", "signal", "n_runs", "outcomes"
            }
            payload.update(
                arc_counts={"out": [payload["n_runs"], 1]},
                lifetimes_ms=[3, 5],
                n_fired=payload["n_runs"],
                n_reconverged=2,
            )
            store.put(data["key"], payload)
        campaign = _campaign(gen, store=tmp_path)
        warm = campaign.execute()
        stats = campaign.last_store_stats
        assert stats.runs_executed == 0
        assert stats.misses == 0 and stats.rejected == 0
        assert _outs(warm) == _outs(cold)
        assert _matrix(warm) == _matrix(cold)

    def test_tampered_outcome_identity_is_a_miss(self, tmp_path):
        """A payload whose digest was recomputed after tampering still
        fails the outcome-identity check during decoding."""
        gen = generate_system(11)
        _campaign(gen, store=tmp_path).execute()
        victim = self._artifacts(tmp_path)[0]
        data = json.loads(victim.read_text())
        payload = data["payload"]
        payload["outcomes"][0]["module"] = "IMPOSTOR"
        store = ResultStore(tmp_path)
        store.put(data["key"], payload)  # recomputes a valid digest
        campaign = _campaign(gen, store=tmp_path)
        campaign.execute()
        stats = campaign.last_store_stats
        assert stats.misses == 1 and stats.rejected == 0

    def test_concurrent_writers_never_expose_torn_artifacts(self, tmp_path):
        store = ResultStore(tmp_path)
        key = content_digest("contended-unit")
        payloads = [
            {"kind": "unit", "filler": "x" * 4096, "n": n} for n in range(2)
        ]
        stop = threading.Event()
        errors: list[Exception] = []

        def writer(payload):
            while not stop.is_set():
                try:
                    store.put(key, payload)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        # The artifact exists before the race starts, so a miss can only
        # mean the reader saw a half-written file.
        store.put(key, payloads[0])
        threads = [
            threading.Thread(target=writer, args=(payload,))
            for payload in payloads
        ]
        for thread in threads:
            thread.start()
        try:
            reader = ResultStore(tmp_path)
            for _ in range(300):
                fetched = reader.fetch(key)
                assert fetched is not None, "reader saw a torn artifact"
                assert fetched["filler"] == "x" * 4096
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        leftovers = list((tmp_path / "units").glob("*/.*.tmp"))
        assert leftovers == []

    def test_gc_removes_invalid_expired_and_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        keep = content_digest("keep")
        store.put(keep, {"kind": "unit", "n": 1})
        shard = tmp_path / "units" / "ab"
        shard.mkdir(parents=True, exist_ok=True)
        invalid = shard / ("ab" + "0" * 62 + ".json")
        invalid.write_text("not json")
        stray = shard / ".leftover.123.tmp"
        stray.write_text("partial")

        removed = store.gc()
        assert invalid in removed and stray in removed
        assert store.fetch(keep) is not None

        removed = store.gc(max_age_days=1.0, now=time.time() + 2 * 86400)
        assert len(removed) == 1
        assert store.fetch(keep) is None

    def test_gc_removes_dead_kinds(self, tmp_path):
        """Valid artifacts of kinds no campaign reads are collected."""
        store = ResultStore(tmp_path)
        keep = content_digest("unit")
        store.put(keep, {"kind": "unit", "n_runs": 1})
        dead = {
            content_digest(kind): {"kind": kind, "n_runs": 1}
            for kind in ("adaptive-unit", "pruned")
        }
        dead[content_digest("no kind")] = {"n_runs": 1}
        for key, payload in dead.items():
            store.put(key, payload)
        removed = store.gc()
        assert sorted(removed) == sorted(store.path_for(key) for key in dead)
        assert store.fetch(keep) is not None
        assert [record.key for record in store.iter_artifacts()] == [keep]

    def test_pruned_records_interplay_with_full_units(self, tmp_path):
        """Pruned targets store nothing, so they never clobber full
        units, and a full unit satisfies a later unpruned campaign for
        the same row."""
        gen = generate_system(0)  # seed 0: 3 prunable targets at bit 0
        models = (BitFlip(0),)
        kw = dict(
            duration_ms=200, injection_times_ms=(30, 110),
            error_models=models, seed=5,
        )
        baseline = _campaign(gen, **dict(kw)).execute()

        # Cold pruned campaign: only the executed rows are stored.
        pruned = _campaign(gen, store=tmp_path, static_prune=True, **dict(kw))
        pruned_result = pruned.execute()
        assert pruned_result.n_pruned_runs() > 0
        kinds = {
            json.loads(path.read_text())["payload"]["kind"]
            for path in sorted((tmp_path / "units").glob("*/*.json"))
        }
        assert kinds == {"unit"}

        # An unpruned campaign misses the pruned rows and stores their
        # full units (same keys, same outcomes).
        full = _campaign(gen, store=tmp_path, **dict(kw))
        full_result = full.execute()
        stats = full.last_store_stats
        assert stats.misses == len(pruned_result.pruned_targets())
        assert _outs(full_result) == _outs(baseline)

        # The full units now satisfy *both* campaign flavours warm; the
        # pruned campaign never overwrites them.
        warm_pruned = _campaign(
            gen, store=tmp_path, static_prune=True, **dict(kw)
        )
        warm_pruned.execute()
        assert warm_pruned.last_store_stats.runs_executed == 0
        warm_full = _campaign(gen, store=tmp_path, **dict(kw))
        warm_full.execute()
        assert warm_full.last_store_stats.runs_executed == 0
        assert warm_full.last_store_stats.misses == 0


class TestUncacheable:
    def test_opaque_case_state_marks_units_uncacheable(self, tmp_path):
        class OpaqueCase:
            def __init__(self):
                self.fn = lambda value: value  # no canonical form

        gen = generate_system(11)
        config = CampaignConfig(
            duration_ms=200, injection_times_ms=(30,),
            error_models=(BitFlip(0),), seed=5, store=str(tmp_path),
        )
        campaign = InjectionCampaign(
            gen.system, gen.run_factory, {"w0": OpaqueCase()}, config
        )
        campaign.execute()
        stats = campaign.last_store_stats
        assert stats.uncacheable == len(campaign.targets)
        assert stats.hits == 0 and stats.misses == 0
        assert list((tmp_path / "units").glob("*/*.json")) == []
        # Uncacheable means re-executed every campaign — never stale.
        again = InjectionCampaign(
            gen.system, gen.run_factory, {"w0": OpaqueCase()}, config
        )
        again.execute()
        assert again.last_store_stats.runs_executed > 0


class TestFingerprints:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'
        assert content_digest({"b": 1, "a": 2}) == content_digest(
            {"a": 2, "b": 1}
        )

    def test_dependency_cone_is_transitive_consumer_closure(self):
        gen = generate_system(11)
        system = gen.system
        for name in system.module_names():
            cone = dependency_cone(system, name)
            assert name in cone
            # Closure property: every consumer of a cone member's
            # outputs is itself in the cone.
            for member in cone:
                for output in system.module(member).outputs:
                    for port in system.consumers_of(output):
                        assert port.module in cone

    def test_environment_coupling_probe(self):
        assert not environment_couples_signals(
            LcgEnvironment(1, ("a",), ("b",))
        )

        class Physics:
            pass

        assert environment_couples_signals(Physics())

    def test_keys_differ_per_target_and_match_across_builders(self):
        gen = generate_system(11)
        config = CampaignConfig(
            duration_ms=200, injection_times_ms=(30,),
            error_models=(BitFlip(0),), seed=5,
        )
        targets = tuple(
            (name, signal)
            for name in gen.system.module_names()
            for signal in gen.system.module(name).inputs
        )
        keys_a = UnitKeyBuilder(
            gen.system, gen.run_factory, config
        ).keys_for_case("w0", None, targets)
        keys_b = UnitKeyBuilder(
            gen.system, gen.run_factory, config
        ).keys_for_case("w0", None, targets)
        digests_a = {t: k.digest for t, k in keys_a.items()}
        digests_b = {t: k.digest for t, k in keys_b.items()}
        assert digests_a == digests_b
        assert len(set(digests_a.values())) == len(targets)
        assert all(key.cacheable for key in keys_a.values())


class TestArrestmentKeys:
    """Arrestment rows must stay cacheable: the plant's state is plain
    data, so it fingerprints exactly (a callable or store reference in
    the plant would poison every unit)."""

    CONFIG = CampaignConfig(
        duration_ms=200, injection_times_ms=(30,),
        error_models=(BitFlip(0),), seed=5,
    )

    def _keys(self, run_factory):
        system = build_arrestment_model()
        targets = tuple(
            (name, signal)
            for name in system.module_names()
            for signal in system.module(name).inputs
        )
        case_id, case = next(iter(reduced_test_cases(1).items()))
        keys = UnitKeyBuilder(system, run_factory, self.CONFIG).keys_for_case(
            case_id, case, targets
        )
        return {target: key.digest for target, key in keys.items()}, keys

    def test_keys_are_cacheable_and_match_across_builders(self):
        digests_a, keys = self._keys(build_arrestment_run)
        digests_b, _ = self._keys(build_arrestment_run)
        assert all(key.cacheable for key in keys.values())
        assert digests_a == digests_b

    def test_plant_fingerprints_the_same_after_golden_run_and_reset(self):
        def used_then_reset(case):
            runner = build_arrestment_run(case)
            runner.run(2000)
            runner.reset()
            return runner

        fresh, _ = self._keys(build_arrestment_run)
        reused, keys = self._keys(used_then_reset)
        assert all(key.cacheable for key in keys.values())
        assert reused == fresh


class TestObservability:
    def test_unit_reuse_flows_through_events_summary_and_reducer(
        self, tmp_path
    ):
        from repro.obs import CampaignObserver
        from repro.obs.dash.reducer import (
            CampaignStateReducer,
            validate_snapshot,
        )
        from repro.obs.events import UnitReused, read_events, validate_events
        from repro.obs.summary import render_summary, summarize_events

        gen = generate_system(11)
        cold = _campaign(gen, store=tmp_path).execute()
        events_path = tmp_path / "events.jsonl"
        observer = CampaignObserver.to_files(
            events_path=str(events_path), with_metrics=True, system=gen.system
        )
        campaign = _campaign(gen, store=tmp_path, observer=observer)
        warm = campaign.execute()
        observer.close()
        stats = campaign.last_store_stats

        assert validate_events(events_path) > 0
        reused = [
            parsed.event
            for parsed in read_events(events_path)
            if isinstance(parsed.event, UnitReused)
        ]
        assert len(reused) == stats.hits
        assert sum(event.n_runs for event in reused) == stats.runs_reused
        assert observer.metrics.counter("store.hits").value == stats.hits
        assert (
            observer.metrics.counter("store.runs_reused").value
            == stats.runs_reused
        )

        summary = summarize_events(read_events(events_path))
        assert summary.counts["store.hits"] == stats.hits
        assert summary.counts["store.runs_reused"] == stats.runs_reused
        assert "result store:" in render_summary(summary)

        reducer = CampaignStateReducer.from_events_file(events_path)
        snapshot = reducer.snapshot()
        validate_snapshot(snapshot)
        assert snapshot["counters"]["cached"] == stats.runs_reused
        assert snapshot["progress"]["done"] == snapshot["progress"]["total"]
        # The reducer's live matrix over replayed cached outcomes folds
        # to the same estimate as the recomposed result.
        assert reducer.matrix_jsonable() == estimate_matrix(warm).to_jsonable()
        assert _outs(warm) == _outs(cold)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["exhaustive", "adaptive"])
    @pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
    def test_reuse_counts_agree_in_every_mode(self, tmp_path, parallel, adaptive):
        """Regression: adaptive warm replays used to report no reuse."""
        from repro.obs import CampaignObserver
        from repro.obs.dash.reducer import CampaignStateReducer
        from repro.obs.events import read_events
        from repro.obs.summary import summarize_events

        gen = generate_system(3)
        kw = dict(adaptive=True, ci_width=0.2) if adaptive else {}

        def run(campaign):
            if parallel:
                return campaign.execute_parallel(max_workers=2)
            return campaign.execute()

        store = tmp_path / "store"
        cold = run(_campaign(gen, store=store, **kw))
        events_path = tmp_path / "events.jsonl"
        observer = CampaignObserver.to_files(
            events_path=str(events_path), with_metrics=True, system=gen.system
        )
        campaign = _campaign(gen, store=store, observer=observer, **kw)
        warm = run(campaign)
        observer.close()
        stats = campaign.last_store_stats

        assert stats.hits > 0 and stats.runs_executed == 0
        assert stats.runs_reused == len(warm)
        summary = summarize_events(read_events(events_path))
        snapshot = CampaignStateReducer.from_events_file(events_path).snapshot()
        assert summary.counts["store.hits"] == stats.hits
        assert observer.metrics.counter("store.hits").value == stats.hits
        assert (
            summary.counts["store.runs_reused"]
            == snapshot["counters"]["cached"]
            == stats.runs_reused
        )
        assert _outs(warm) == _outs(cold)


class TestPublishedAsFinished:
    def test_serial_crash_keeps_finished_cases_stored(self, tmp_path):
        """Rows of a case are stored as soon as the case is recomposed."""
        from repro.obs import CampaignObserver

        gen = generate_system(11)
        cases = {"a": None, "b": None, "c": None}

        def build(store=None, observer=None):
            config = CampaignConfig(
                duration_ms=200,
                injection_times_ms=(30, 110),
                error_models=tuple(bit_flip_models(4)),
                seed=5,
                store=None if store is None else str(store),
            )
            return InjectionCampaign(
                gen.system, gen.run_factory, cases, config, observer=observer
            )

        clean = build().execute()

        def crash_on_c(outcome, injected, golden):
            if outcome.case_id == "c":
                raise RuntimeError("injected crash")

        events_path = tmp_path / "events.jsonl"
        observer = CampaignObserver.to_files(events_path=events_path)
        with pytest.raises(RuntimeError, match="injected crash"):
            build(tmp_path, observer).execute(inspector=crash_on_c)
        observer.close()
        assert_aborted_stream(events_path, "RuntimeError: injected crash")
        executed = []
        resumed = build(tmp_path)
        result = resumed.execute(
            inspector=lambda outcome, injected, golden: executed.append(outcome)
        )
        stats = resumed.last_store_stats
        n_targets = len(resumed.targets)
        assert {outcome.case_id for outcome in executed} == {"c"}
        assert stats.hits == 2 * n_targets and stats.misses == n_targets
        assert stats.runs_executed == n_targets * resumed.config.runs_per_target()
        assert _outs(result) == _outs(clean)


class TestStoreCli:
    def _populate(self, tmp_path):
        gen = generate_system(11)
        _campaign(gen, store=tmp_path).execute()

    def test_ls_lists_units(self, tmp_path, capsys):
        from repro.cli import main

        self._populate(tmp_path)
        assert main(["store", "ls", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "valid artifact(s)" in output
        assert "unit" in output

    def test_verify_exits_nonzero_on_corruption(self, tmp_path, capsys):
        from repro.cli import main

        self._populate(tmp_path)
        assert main(["store", "verify", str(tmp_path)]) == 0
        victim = sorted((tmp_path / "units").glob("*/*.json"))[0]
        victim.write_text("garbage")
        assert main(["store", "verify", str(tmp_path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_gc_heals_a_corrupted_store(self, tmp_path, capsys):
        from repro.cli import main

        self._populate(tmp_path)
        victim = sorted((tmp_path / "units").glob("*/*.json"))[0]
        victim.write_text("garbage")
        assert main(["store", "gc", str(tmp_path)]) == 0
        assert "removed 1 artifact(s)" in capsys.readouterr().out
        assert main(["store", "verify", str(tmp_path)]) == 0

    def test_campaign_store_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["campaign", "--store", "cache-dir", "--no-cache"]
        )
        assert args.store == "cache-dir"
        assert args.no_cache is True
