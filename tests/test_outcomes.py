"""Unit tests for outcome records and the direct-error rule (§7.3)."""

from __future__ import annotations

from repro.injection.golden_run import GoldenRunComparison
from repro.injection.outcomes import CampaignResult, InjectionOutcome, PairCounts

from tests.conftest import build_toy_model


def make_outcome(
    divergences: dict[str, int | None],
    module: str = "AMP",
    input_signal: str = "filt",
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


class TestInjectionOutcome:
    def test_fired_property(self):
        assert make_outcome({"out": None, "filt": None}).fired
        assert not make_outcome({"out": None, "filt": None}, fired_at=None).fired

    def test_output_diverged(self):
        outcome = make_outcome({"out": 9, "filt": None})
        assert outcome.output_diverged("out")
        assert not outcome.output_diverged("filt")

    def test_direct_error_no_loop(self):
        """If the injected input's stored trace never diverges, any
        output divergence is direct."""
        outcome = make_outcome({"out": 9, "filt": None})
        assert outcome.direct_output_error("out")

    def test_direct_error_before_loop_return(self):
        """Output diverging no later than the loop return is direct."""
        outcome = make_outcome({"out": 7, "filt": 9})
        assert outcome.direct_output_error("out")

    def test_indirect_error_after_loop_return(self):
        """Output diverging only after the error returned to the
        injected input is excluded (the paper's rule)."""
        outcome = make_outcome({"out": 12, "filt": 9})
        assert not outcome.direct_output_error("out")

    def test_no_divergence_is_not_direct(self):
        outcome = make_outcome({"out": None, "filt": None})
        assert not outcome.direct_output_error("out")

    def test_tie_counts_as_direct(self):
        outcome = make_outcome({"out": 9, "filt": 9})
        assert outcome.direct_output_error("out")


class TestPairCounts:
    def test_permeability_ratio(self):
        counts = PairCounts("M", "a", "b", n_injections=8, n_errors=2)
        assert counts.permeability == 0.25

    def test_zero_injections(self):
        assert PairCounts("M", "a", "b").permeability == 0.0


class TestCampaignResult:
    def make_result(self) -> CampaignResult:
        result = CampaignResult(build_toy_model())
        result.add(make_outcome({"out": 6, "filt": None}))
        result.add(make_outcome({"out": None, "filt": None}))
        result.add(make_outcome({"out": 12, "filt": 9}))  # indirect
        result.add(
            make_outcome(
                {"out": None, "filt": 5, "src": None},
                module="FILT",
                input_signal="src",
            )
        )
        return result

    def test_len_and_iteration(self):
        result = self.make_result()
        assert len(result) == 4
        assert len(list(result)) == 4

    def test_outcomes_for(self):
        result = self.make_result()
        assert len(result.outcomes_for("AMP")) == 3
        assert len(result.outcomes_for("AMP", "filt")) == 3
        assert len(result.outcomes_for("FILT")) == 1

    def test_pair_counts_direct(self):
        counts = self.make_result().pair_counts(direct_only=True)
        amp = counts[("AMP", "filt", "out")]
        assert amp.n_injections == 3
        assert amp.n_errors == 1  # the indirect one is excluded

    def test_pair_counts_total(self):
        counts = self.make_result().pair_counts(direct_only=False)
        amp = counts[("AMP", "filt", "out")]
        assert amp.n_errors == 2

    def test_pair_counts_cover_all_outputs_of_injected_inputs(self):
        counts = self.make_result().pair_counts()
        assert ("FILT", "src", "filt") in counts
        assert ("AMP", "filt", "out") in counts

    def test_unfired_counts_in_denominator_by_default(self):
        result = CampaignResult(build_toy_model())
        result.add(make_outcome({"out": None, "filt": None}, fired_at=None))
        counts = result.pair_counts()
        assert counts[("AMP", "filt", "out")].n_injections == 1
        assert counts[("AMP", "filt", "out")].n_errors == 0

    def test_predicate(self):
        result = self.make_result()
        counts = result.pair_counts(predicate=lambda o: o.module == "FILT")
        assert counts[("AMP", "filt", "out")].n_injections == 0
        assert counts[("FILT", "src", "filt")].n_injections == 1

    def test_n_fired(self):
        result = self.make_result()
        result.add(make_outcome({"out": None, "filt": None}, fired_at=None))
        assert result.n_fired() == 4

    def test_metadata_queries(self):
        result = self.make_result()
        assert result.case_ids() == ("case0",)
        assert result.error_model_names() == ("bitflip[0]",)
