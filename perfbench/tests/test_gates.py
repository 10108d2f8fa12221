"""The correctness gates count tampered outcomes as failed coordinates."""

import dataclasses

from repro.injection.golden_run import GoldenRunComparison
from repro.injection.outcomes import CampaignResult, InjectionOutcome

from perfbench import workloads


def _outcomes(n=6):
    return [
        InjectionOutcome(
            case_id="m8000-v40",
            module="CALC",
            input_signal="i",
            scheduled_time_ms=500 * (1 + index),
            fired_at_ms=500 * (1 + index),
            error_model="bitflip[4]",
            comparison=GoldenRunComparison(
                case_id="m8000-v40",
                first_divergence_ms={"i": 500 * (1 + index)} if index % 2 else {},
            ),
            reconverged_at_ms=None if index % 2 else 600 * (1 + index),
        )
        for index in range(n)
    ]


def _reference(outcomes):
    return {
        "grid": workloads.grid_description(),
        "strategy": {
            workloads.coordinate(o): workloads.strategy_digest(o) for o in outcomes
        },
        "record": {
            workloads.coordinate(o): workloads.record_digest(o) for o in outcomes
        },
    }


def _gate(workload, reference, outcomes, system, rejected=0):
    prepared = workloads.Prepared(workload, workloads.Inputs(1), [], None)
    result = CampaignResult(system, outcomes)
    stats = [type("Stats", (), {"rejected": rejected})()]
    execution = workloads.Execution(1.0, [result], stats, len(outcomes))
    return workloads.check(prepared, execution, reference)


def test_tampered_outcome_raises_error_rate(tmp_path):
    from repro.arrestment import build_arrestment_model

    system = build_arrestment_model()
    outcomes = _outcomes()
    reference = _reference(outcomes)
    clean = _gate(workloads.ARRESTMENT_SERIAL, reference, outcomes, system)
    assert (clean.attempted, clean.failed) == (6, 0)

    tampered = list(outcomes)
    tampered[3] = dataclasses.replace(tampered[3], fired_at_ms=1999)
    report = _gate(workloads.ARRESTMENT_SERIAL, reference, tampered, system)
    assert report.failed == 1 and report.failed / report.attempted > 0
    assert "naive reference" in report.problems[0]

    missing = _gate(workloads.ARRESTMENT_SERIAL, reference, outcomes[:-2], system)
    assert missing.failed == 2


def test_sampled_outcome_must_match_the_exhaustive_record():
    from repro.arrestment import build_arrestment_model

    system = build_arrestment_model()
    outcomes = _outcomes()
    reference = _reference(outcomes)
    # The adaptive gate compares whole records: a changed reconvergence
    # instant is a failure even though the naive mode would not see it.
    tampered = [dataclasses.replace(outcomes[0], reconverged_at_ms=4321)]
    report = _gate(workloads.ARRESTMENT_ADAPTIVE, reference, tampered, system)
    assert report.failed >= 1
    rejected = _gate(
        workloads.ARRESTMENT_ADAPTIVE, reference, outcomes[:1], system, rejected=1
    )
    assert rejected.failed >= 1


def test_edit_of_the_chain_head_invalidates_only_its_rows():
    cold, edited = workloads.chain_specs(workloads.make_inputs(workloads.CHAIN_EDIT, 5))
    live = [
        (m.name, s) for m in edited.modules if m.name != "MT" for s in m.inputs
    ]
    assert len(live) == 10
    affected = workloads.dependency_rows(edited, "M0", live)
    assert affected == {("M0", "x_in"), ("M0", "s0")}
    # An edit at the tail reaches every row upstream of it.
    assert len(workloads.dependency_rows(edited, "M4", live)) == 10
