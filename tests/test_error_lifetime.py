"""Error lifetimes on the arrestment system, pinned to recorded values.

``reconverged_at_ms`` is the paper's error-lifetime measure: the frame
from which an injection run provably re-matched its Golden Run.  The
batched kernel is cross-checked against the reference runtime only on
generated systems, so this file pins the reference runtime's lifetimes
on the paper's own target:

* a 1 case x 13 targets x 2 instants x bit-12 grid of 2 s runs must
  reproduce the recorded ``fired_at_ms``, ``reconverged_at_ms`` and
  ``frames_fast_forwarded`` of every run in
  ``data/arrestment_lifetimes.json``;
* with one traced signal (a frame's row is a bare value, not a tuple)
  and with a traced subset, fast-forward must stay byte-identical to
  the naive mode that simulates every run from time zero to the end.

Regenerate the fixture with ``PYTHONPATH=src python -m
tests.test_error_lifetime`` only when a change is *meant* to move
lifetimes; a pure performance change must leave it untouched.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.arrestment import build_arrestment_model, build_arrestment_run
from repro.arrestment.testcases import reduced_test_cases
from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import BitFlip

FIXTURE = Path(__file__).parent / "data" / "arrestment_lifetimes.json"

DURATION_MS = 2000
INSTANTS_MS = (500, 1500)
BIT = 12


def _campaign(trace_signals=None, targets=None, **strategy) -> InjectionCampaign:
    def factory(case):
        return build_arrestment_run(case, trace_signals=trace_signals)

    config = CampaignConfig(
        duration_ms=DURATION_MS,
        injection_times_ms=INSTANTS_MS,
        error_models=(BitFlip(BIT),),
        targets=targets,
        seed=0,
        lint=False,
        **strategy,
    )
    return InjectionCampaign(
        build_arrestment_model(), factory, reduced_test_cases(1), config
    )


def lifetime_grid() -> dict[str, list]:
    """``[fired_at_ms, reconverged_at_ms, frames_fast_forwarded]`` per run."""
    return {
        f"{o.case_id}/{o.module}.{o.input_signal}@{o.scheduled_time_ms}": [
            o.fired_at_ms,
            o.reconverged_at_ms,
            o.frames_fast_forwarded,
        ]
        for o in _campaign().execute()
    }


def test_lifetimes_match_recorded_values():
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert len(recorded) == 13 * len(INSTANTS_MS)
    # The grid must exercise both outcomes of the splice.
    assert any(entry[1] is None for entry in recorded.values())
    assert any(entry[1] is not None for entry in recorded.values())
    assert lifetime_grid() == recorded


def _executed(campaign: InjectionCampaign) -> list:
    """(outcome record, full traces, final signals, telemetry) per run."""
    captured: list = []
    result = campaign.execute(
        inspector=lambda outcome, injected, golden: captured.append(injected)
    )
    return [
        (
            outcome.comparison.first_divergence_ms,
            outcome.fired_at_ms,
            injected.traces.to_mapping(),
            injected.final_signals,
            injected.telemetry,
        )
        for outcome, injected in zip(result, captured, strict=True)
    ]


@pytest.mark.parametrize(
    "trace_signals",
    [("i",), ("i", "pulscnt", "SetValue", "OutValue")],
    ids=["one-signal", "subset"],
)
def test_traced_subset_fast_forward_matches_naive(trace_signals):
    targets = (("CALC", "pulscnt"), ("CALC", "i"), ("V_REG", "SetValue"))
    fast = _campaign(trace_signals, targets)
    naive = _campaign(
        trace_signals, targets, reuse_golden_prefix=False, fast_forward=False
    )
    fast_runs = _executed(fast)
    assert fast_runs == _executed(naive)
    assert len(fast_runs) == len(targets) * len(INSTANTS_MS)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(lifetime_grid(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURE}")
