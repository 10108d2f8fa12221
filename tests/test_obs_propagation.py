"""The one outcome fold: :class:`ArcTally` and the direct-error rule."""

from __future__ import annotations

import pytest

from repro.core.permeability import PermeabilityMatrix
from repro.core.stats import wilson_interval
from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import bit_flip_models
from repro.injection.estimator import estimate_matrix
from repro.injection.golden_run import GoldenRunComparison
from repro.injection.outcomes import ArcTally, InjectionOutcome

from tests.conftest import build_toy_model, toy_factory

#: CALC reads ``x`` and its own output ``i`` (a feedback input); M has
#: two outputs and an input that is not one of them.
TOPOLOGY = {
    "CALC": (("x", "i"), ("i", "y")),
    "M": (("a", "z"), ("b", "c")),
}


def outcome(
    module: str,
    input_signal: str,
    divergences: dict[str, int | None],
    fired_at: int | None = 5,
) -> InjectionOutcome:
    return InjectionOutcome(
        case_id="case0",
        module=module,
        input_signal=input_signal,
        scheduled_time_ms=5,
        fired_at_ms=fired_at,
        error_model="bitflip[0]",
        comparison=GoldenRunComparison("case0", dict(divergences)),
    )


@pytest.fixture(scope="module")
def toy_result():
    """One small executed toy campaign shared by the module's tests."""
    config = CampaignConfig(
        duration_ms=64,
        injection_times_ms=(16, 32),
        error_models=tuple(bit_flip_models(8)),
        seed=2001,
    )
    campaign = InjectionCampaign(build_toy_model(), toy_factory, ["c"], config)
    return campaign.execute()


def folded(result) -> ArcTally:
    tally = ArcTally.of_system(result.system)
    for item in result:
        tally.add_outcome(item)
    return tally


class TestFolding:
    def test_record_counts_arcs(self, toy_result):
        tally = folded(toy_result)
        assert tally == toy_result.arc_tally()
        filt = tally.arc("FILT", "src", "filt")
        # Every outcome targeting FILT.src contributes one injection.
        n_filt = sum(
            1 for item in toy_result
            if (item.module, item.input_signal) == ("FILT", "src")
        )
        assert filt.n_injections == n_filt
        assert 0 <= filt.n_errors <= filt.n_injections
        # AMP is the identity: every fired flip on filt propagates.
        assert tally.arc("AMP", "filt", "out").permeability == pytest.approx(1.0)

    def test_unknown_arc_raises(self, toy_result):
        with pytest.raises(KeyError, match="no arc"):
            folded(toy_result).arc("FILT", "src", "nope")

    def test_hottest_arcs_ranked_by_hits(self, toy_result):
        hottest = folded(toy_result).hottest(10)
        ranks = [
            (-arc.n_errors, arc.module, arc.input_signal, arc.output_signal)
            for arc in hottest
        ]
        assert ranks == sorted(ranks)
        assert all(arc.n_errors for arc in hottest)

    def test_unfired_counts_in_denominator_only(self):
        tally = ArcTally(TOPOLOGY)
        got = tally.add_outcome(
            outcome("M", "a", {"b": 9, "c": 9, "a": None}, fired_at=None)
        )
        assert got == ()
        assert tally.arc("M", "a", "b").n_injections == 1
        assert tally.arc("M", "a", "b").n_errors == 0

    def test_feedback_input_counts_every_diverged_output(self):
        # The stored ``i`` diverges at once through CALC's own write;
        # that is the direct feedback, so ``y`` still counts.
        tally = ArcTally(TOPOLOGY)
        got = tally.add_outcome(outcome("CALC", "i", {"i": 5, "y": 9, "x": None}))
        assert got == ("i", "y")
        assert tally.arc("CALC", "i", "y").n_errors == 1

    def test_loop_back_before_and_after_the_output(self):
        # ``a`` comes back corrupted at 7: ``b`` erred before (direct),
        # ``c`` only after (via the loop, not counted).
        tally = ArcTally(TOPOLOGY)
        got = tally.add_outcome(outcome("M", "a", {"a": 7, "b": 6, "c": 9}))
        assert got == ("b",)
        assert tally.arc("M", "a", "b").n_errors == 1
        assert tally.arc("M", "a", "c").n_errors == 0

    def test_any_divergence_without_the_direct_rule(self):
        tally = ArcTally(TOPOLOGY)
        got = tally.add_outcome(
            outcome("M", "a", {"a": 7, "b": 6, "c": 9}), direct_only=False
        )
        assert got == ("b", "c")

    def test_pruned_n_counts_injections_without_errors(self):
        tally = ArcTally(TOPOLOGY)
        tally.add("M", "a", n=16)
        tally.add_outcome(outcome("M", "a", {"a": None, "b": 6, "c": None}))
        arc = tally.arc("M", "a", "b")
        assert (arc.n_errors, arc.n_injections) == (1, 17)

    def test_location_without_injections_stays_absent(self):
        tally = ArcTally(TOPOLOGY)
        tally.add("M", "a", ("b",))
        assert [
            (arc.module, arc.input_signal) for arc in tally.entries()
        ] == [("M", "a"), ("M", "a")]
        assert tally.to_jsonable("sys")["entries"][0]["n_injections"] == 1

    def test_entries_in_topology_order(self):
        tally = ArcTally(TOPOLOGY)
        for module, input_signal in (("M", "z"), ("CALC", "i"), ("M", "a")):
            tally.add(module, input_signal)
        assert [
            (arc.module, arc.input_signal, arc.output_signal)
            for arc in tally.entries()
        ] == [
            ("CALC", "i", "i"), ("CALC", "i", "y"),
            ("M", "a", "b"), ("M", "a", "c"),
            ("M", "z", "b"), ("M", "z", "c"),
        ]

    def test_wilson_interval_is_core_stats(self):
        tally = ArcTally(TOPOLOGY)
        tally.add("M", "a", n=11)
        for _ in range(5):
            tally.add("M", "a", ("b",))
        arc = tally.arc("M", "a", "b")
        assert arc.wilson_interval() == wilson_interval(5, 16)
        assert arc.wilson_interval(z=2.5) == wilson_interval(5, 16, 2.5)
        assert tally.arc("M", "z", "b").wilson_interval() == (0.0, 1.0)


class TestMatrixAgreement:
    def test_matches_estimator_exactly(self, toy_result):
        """The live fold and the post-hoc estimator give one matrix."""
        observed = folded(toy_result).to_matrix(toy_result.system)
        estimated = estimate_matrix(toy_result)
        assert observed.to_jsonable() == estimated.to_jsonable()

    def test_diff_against_estimator_is_zero(self, toy_result):
        observed = folded(toy_result).to_matrix(toy_result.system)
        diff = observed.diff(estimate_matrix(toy_result))
        assert diff.agrees()
        assert diff.max_abs_delta == 0.0

    def test_diff_flags_deviation(self, toy_result):
        observed = folded(toy_result).to_matrix(toy_result.system)
        reference = estimate_matrix(toy_result)
        skewed = PermeabilityMatrix(toy_result.system)
        for (module, input_signal, output_signal), estimate in reference.items():
            skewed.set(
                module, input_signal, output_signal,
                max(0.0, estimate.value - 0.25),
            )
        diff = observed.diff(skewed)
        assert not diff.agrees()
        assert diff.max_abs_delta == pytest.approx(0.25)
        assert diff.exceeding(0.1)
        assert "Permeability diff" in diff.render()
