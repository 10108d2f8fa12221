"""Unit tests for campaign orchestration and permeability estimation.

The toy FILT→AMP chain has exactly known permeabilities under the
bit-flip model (FILT drops the low byte, AMP is the identity), so the
whole experimental pipeline — campaign grid, traps, GRC, aggregation,
estimation — is verified against analytic ground truth.
"""

from __future__ import annotations

import pathlib
import runpy

import pytest

from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import BitFlip, bit_flip_models
from repro.injection.estimator import PermeabilityEstimator, estimate_matrix
from repro.injection.selection import paper_grid, paper_times, sampled_grid
from repro.model.errors import CampaignError

from tests.conftest import build_toy_model, build_toy_run


def toy_campaign(**overrides) -> InjectionCampaign:
    defaults = dict(
        duration_ms=40,
        injection_times_ms=(5, 20),
        error_models=tuple(bit_flip_models(16)),
        seed=1,
    )
    defaults.update(overrides)
    return InjectionCampaign(
        build_toy_model(),
        lambda case: build_toy_run(),
        {"case0": None},
        CampaignConfig(**defaults),
    )


class TestConfig:
    def test_paper_defaults(self):
        config = CampaignConfig()
        assert config.injection_times_ms == paper_times()
        assert len(config.error_models) == 16
        assert config.runs_per_target() == 160

    def test_paper_times_layout(self):
        times = paper_times()
        assert times[0] == 500
        assert times[-1] == 5000
        assert len(times) == 10
        steps = {b - a for a, b in zip(times, times[1:])}
        assert steps == {500}

    def test_injection_must_fit_duration(self):
        with pytest.raises(CampaignError):
            CampaignConfig(duration_ms=100, injection_times_ms=(100,))

    def test_empty_grid_rejected(self):
        with pytest.raises(CampaignError):
            CampaignConfig(injection_times_ms=())
        with pytest.raises(CampaignError):
            CampaignConfig(error_models=())

    def test_negative_injection_time_rejected(self):
        with pytest.raises(CampaignError, match="negative"):
            CampaignConfig(duration_ms=40, injection_times_ms=(-5, 10))

    def test_repeated_injection_time_rejected(self):
        # A repeat is the same IR under the same seed, counted twice.
        with pytest.raises(CampaignError, match="repeat"):
            CampaignConfig(duration_ms=40, injection_times_ms=(5, 5))

    def test_repeated_error_model_rejected(self):
        with pytest.raises(CampaignError, match="repeat"):
            CampaignConfig(
                duration_ms=40,
                injection_times_ms=(5,),
                error_models=(BitFlip(0), BitFlip(0)),
            )

    @pytest.mark.parametrize(
        "script",
        [
            "benchmarks/bench_ablation_error_models.py",
            "examples/error_model_sensitivity.py",
        ],
    )
    def test_shipped_model_sets_are_valid(self, script):
        # The error-model ablations build one campaign per model set; each
        # set must pass the same validation as any other config.
        root = pathlib.Path(__file__).resolve().parent.parent
        model_sets = runpy.run_path(str(root / script), run_name="model_sets")[
            "MODEL_SETS"
        ]
        for models in model_sets.values():
            CampaignConfig(error_models=tuple(models))

    def test_selection_helpers(self):
        grid = paper_grid()
        assert len(grid) == 160
        sample = sampled_grid([1, 2], bit_flip_models(4), 3, seed=0)
        assert len(sample) == 3
        full = sampled_grid([1], bit_flip_models(2), 99)
        assert len(full) == 2


class TestCampaignExecution:
    def test_total_runs(self):
        campaign = toy_campaign()
        # 2 targets (FILT.src, AMP.filt) x 2 times x 16 bits x 1 case.
        assert campaign.total_runs() == 64

    def test_targets_default_to_all_inputs(self):
        campaign = toy_campaign()
        assert campaign.targets == (("FILT", "src"), ("AMP", "filt"))

    def test_explicit_targets_validated(self):
        with pytest.raises(Exception):
            toy_campaign(targets=(("FILT", "nope"),))

    def test_progress_callback(self):
        campaign = toy_campaign()
        seen = []
        campaign.execute(progress=lambda done, total: seen.append((done, total)))
        assert seen[0] == (1, 64)
        assert seen[-1] == (64, 64)

    def test_all_traps_fire(self):
        result = toy_campaign().execute()
        assert result.n_fired() == len(result) == 64

    def test_golden_runs_recorded(self):
        campaign = toy_campaign()
        campaign.execute()
        assert set(campaign.golden_runs()) == {"case0"}

    def test_sequence_test_cases_are_labelled(self):
        campaign = InjectionCampaign(
            build_toy_model(),
            lambda case: build_toy_run(),
            [None, None],
            CampaignConfig(
                duration_ms=20,
                injection_times_ms=(5,),
                error_models=(BitFlip(15),),
            ),
        )
        result = campaign.execute()
        assert result.case_ids() == ("case00", "case01")

    def test_empty_test_cases_rejected(self):
        with pytest.raises(CampaignError):
            InjectionCampaign(build_toy_model(), lambda c: build_toy_run(), {})

    def test_model_wider_than_target_rejected_before_golden_run(self):
        built = []

        def factory(case):
            built.append(case)
            return build_toy_run()

        with pytest.raises(CampaignError, match=r"'bitflip\[16\]'.*\('FILT', 'src'\)"):
            InjectionCampaign(
                build_toy_model(),
                factory,
                {"case0": None},
                CampaignConfig(
                    duration_ms=40,
                    injection_times_ms=(5,),
                    error_models=tuple(bit_flip_models(17)),
                ),
            )
        assert built == []

    def test_determinism(self):
        first = estimate_matrix(toy_campaign().execute())
        second = estimate_matrix(toy_campaign().execute())
        assert first.to_jsonable() == second.to_jsonable()


class TestEstimation:
    def test_analytic_ground_truth(self):
        """FILT passes only the 8 high bits; AMP passes everything."""
        matrix = estimate_matrix(toy_campaign().execute())
        assert matrix.get("FILT", "src", "filt") == pytest.approx(0.5)
        assert matrix.get("AMP", "filt", "out") == pytest.approx(1.0)

    def test_counts_recorded(self):
        matrix = estimate_matrix(toy_campaign().execute())
        estimate = matrix.estimate("FILT", "src", "filt")
        assert estimate.n_injections == 32
        assert estimate.n_errors == 16

    def test_subset_estimation_incomplete(self):
        campaign = toy_campaign(targets=(("AMP", "filt"),))
        result = campaign.execute()
        with pytest.raises(CampaignError):
            estimate_matrix(result)
        matrix = estimate_matrix(result, require_complete=False)
        assert not matrix.is_complete()
        assert matrix.get("AMP", "filt", "out") == 1.0

    def test_predicate_filter(self):
        result = toy_campaign().execute()
        matrix = estimate_matrix(
            result,
            predicate=lambda o: o.scheduled_time_ms == 5,
        )
        assert matrix.estimate("AMP", "filt", "out").n_injections == 16

    def test_estimator_wrapper(self):
        estimator = PermeabilityEstimator(
            build_toy_model(),
            lambda case: build_toy_run(),
            {"case0": None},
            CampaignConfig(
                duration_ms=30,
                injection_times_ms=(5,),
                error_models=tuple(bit_flip_models(16)),
            ),
        )
        assert estimator.result is None
        matrix = estimator.estimate()
        assert estimator.result is not None
        assert matrix.get("FILT", "src", "filt") == pytest.approx(0.5)
        # Second call reuses the campaign result.
        again = estimator.estimate()
        assert again.to_jsonable() == matrix.to_jsonable()


class TestDirectOnlyRule:
    def test_direct_vs_total_identical_without_feedback(self):
        """The toy chain has no loop back to an injected input, so the
        paper's direct-error rule changes nothing."""
        result = toy_campaign().execute()
        direct = result.pair_counts(direct_only=True)
        total = result.pair_counts(direct_only=False)
        for key in direct:
            assert direct[key].n_errors == total[key].n_errors
