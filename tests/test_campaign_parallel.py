"""Tests for grid-sharded parallel campaign execution."""

from __future__ import annotations

from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import BitFlip, RandomBitFlip
from repro.injection.estimator import estimate_matrix

from tests.conftest import build_toy_model, toy_factory


def make_campaign(**overrides) -> InjectionCampaign:
    config = dict(
        duration_ms=30,
        injection_times_ms=(5, 15),
        # Include a stochastic model so seed derivation is covered.
        error_models=(BitFlip(15), BitFlip(3), RandomBitFlip()),
        seed=77,
    )
    config.update(overrides)
    return InjectionCampaign(
        build_toy_model(),
        toy_factory,
        {"c0": None, "c1": None, "c2": None},
        CampaignConfig(**config),
    )


def outcome_records(result):
    return [
        (o.case_id, o.module, o.input_signal, o.scheduled_time_ms,
         o.error_model, o.fired_at_ms, o.comparison.first_divergence_ms)
        for o in result
    ]


class TestExecuteParallel:
    def test_identical_to_serial(self):
        serial = make_campaign().execute()
        parallel = make_campaign().execute_parallel(max_workers=2)
        assert len(parallel) == len(serial)
        assert outcome_records(parallel) == outcome_records(serial)

    def test_identical_to_naive_serial(self):
        """Grid sharding + prefix reuse matches the naive full-re-run path."""
        naive = make_campaign(reuse_golden_prefix=False).execute()
        parallel = make_campaign().execute_parallel(max_workers=2)
        assert outcome_records(parallel) == outcome_records(naive)

    def test_matrix_identical(self):
        serial = estimate_matrix(make_campaign().execute())
        parallel = estimate_matrix(make_campaign().execute_parallel(max_workers=3))
        assert serial.to_jsonable() == parallel.to_jsonable()

    def test_progress_reports_completed_runs(self):
        """Progress counts injection runs per finished slice, not cases."""
        seen = []
        make_campaign().execute_parallel(
            max_workers=2,
            progress=lambda done, total: seen.append((done, total)),
        )
        # 3 cases x 12 trials, cut into ~4 slices per worker: 2-trial slices.
        assert seen == [(done, 36) for done in range(2, 37, 2)]

    def test_single_worker(self):
        result = make_campaign().execute_parallel(max_workers=1)
        assert len(result) == make_campaign().total_runs()

    def test_golden_runs_collected_in_parent(self):
        """Golden Runs are computed in the parent and stay inspectable."""
        campaign = make_campaign()
        campaign.execute_parallel(max_workers=2)
        assert set(campaign.golden_runs()) == {"c0", "c1", "c2"}
        for golden in campaign.golden_runs().values():
            assert golden.duration_ms == 30

    def test_spawned_workers_identical_to_serial(self, monkeypatch):
        """Workers that receive the payload pickled give the serial outcomes.

        Under a spawn start method (macOS, Windows; forkserver on Linux
        from Python 3.14) every Golden Run, checkpoint and case reaches
        the workers through pickle.  Fast-forward must still fire there,
        so reconvergence instants and spliced frames match too.
        """
        import concurrent.futures
        import functools
        import multiprocessing

        from repro.arrestment import (
            build_arrestment_model,
            build_arrestment_run,
            reduced_test_cases,
        )
        from repro.injection.error_models import bit_flip_models

        def arrestment_campaign() -> InjectionCampaign:
            return InjectionCampaign(
                build_arrestment_model(),
                build_arrestment_run,
                reduced_test_cases(2),
                CampaignConfig(
                    duration_ms=2000,
                    injection_times_ms=(500, 1500),
                    error_models=tuple(bit_flip_models(2)),
                ),
            )

        serial = arrestment_campaign().execute()
        monkeypatch.setattr(
            concurrent.futures,
            "ProcessPoolExecutor",
            functools.partial(
                concurrent.futures.ProcessPoolExecutor,
                mp_context=multiprocessing.get_context("spawn"),
            ),
        )
        spawned = arrestment_campaign().execute_parallel(max_workers=2)
        assert [o.to_jsonable() for o in spawned] == [
            o.to_jsonable() for o in serial
        ]
        assert any(o.reconverged for o in serial)
