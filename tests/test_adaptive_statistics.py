"""Statistical soundness of the adaptive harness (repro.adaptive).

Three layers, cheapest first:

* the shared Wilson interval of :mod:`repro.core.stats` — edge cases
  and agreement across every call site that wraps it;
* the widest-first round allocation and the retirement bookkeeping of
  :class:`AdaptiveController` — exact unit properties (ordering,
  conservation, monotonicity);
* seeded Monte-Carlo coverage (``@pytest.mark.statistical``): across
  hundreds of fixed-seed experiments the achieved 95% Wilson interval
  must contain the true parameter at the nominal rate within a
  binomial tolerance, both for raw Bernoulli draws and for the
  intervals the adaptive campaign actually retires on generated
  systems (see docs/TESTING.md).
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.adaptive import (
    REASON_CONFIDENCE,
    AdaptiveController,
    TargetMeasurement,
    projected_half_width,
)
from repro.core.permeability import PermeabilityEstimate
from repro.core.stats import wilson_half_width, wilson_interval
from repro.injection.campaign import InjectionCampaign
from repro.injection.estimator import estimate_matrix, pair_trial_counts
from repro.injection.outcomes import PairCounts
from repro.verify.generators import generate_system
from repro.verify.oracles import default_campaign

# ---------------------------------------------------------------------------
# Wilson interval: edge cases and call-site agreement
# ---------------------------------------------------------------------------


def test_wilson_no_trials_is_vacuous():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    assert wilson_interval(0, -1) == (0.0, 1.0)
    assert wilson_half_width(0, 0) == 0.5


def test_wilson_zero_errors_pins_lower_bound():
    lo, hi = wilson_interval(0, 12)
    assert lo == 0.0
    assert 0.0 < hi < 0.3


def test_wilson_all_errors_pins_upper_bound():
    lo, hi = wilson_interval(12, 12)
    assert hi == 1.0
    assert 0.7 < lo < 1.0


def test_wilson_zero_z_degenerates_to_point_estimate():
    lo, hi = wilson_interval(3, 10, z=0.0)
    assert lo == hi == pytest.approx(0.3)
    assert wilson_half_width(3, 10, z=0.0) == 0.0


def test_wilson_interval_contains_point_estimate_and_is_ordered():
    for n_errors in range(0, 17):
        lo, hi = wilson_interval(n_errors, 16)
        assert 0.0 <= lo <= n_errors / 16 <= hi <= 1.0


def test_wilson_half_width_shrinks_with_n():
    widths = [wilson_half_width(n // 2, n) for n in (4, 16, 64, 256)]
    assert widths == sorted(widths, reverse=True)


def test_wilson_call_sites_agree():
    """Every wrapper delegates to the one shared formula."""
    n_errors, n_injections = 5, 48
    expected = wilson_interval(n_errors, n_injections)
    arc = PairCounts(
        module="M",
        input_signal="a",
        output_signal="b",
        n_injections=n_injections,
        n_errors=n_errors,
    )
    assert arc.wilson_interval() == expected
    estimate = PermeabilityEstimate(
        value=n_errors / n_injections,
        n_errors=n_errors,
        n_injections=n_injections,
    )
    assert estimate.wilson_interval() == expected


# ---------------------------------------------------------------------------
# Round allocation: widest projected interval first
# ---------------------------------------------------------------------------


def _measured(point_estimates):
    """Measurements that keep every target open, at the given points."""
    return {
        key: TargetMeasurement(half_width=0.49, point_estimate=p)
        for key, p in point_estimates.items()
    }


def test_widest_first_funds_widest_interval_first():
    pools = {("M", "narrow"): list(range(64)), ("M", "wide"): list(range(64))}
    controller = AdaptiveController(pools, ci_width=0.01, round_size=16)
    first = controller.next_round()
    # Every target equally ignorant: round-robin, 8 trials each.
    assert {key: len(trials) for key, trials in first.items()} == {
        ("M", "narrow"): 8,
        ("M", "wide"): 8,
    }
    controller.complete_round(
        _measured({("M", "narrow"): 0.0, ("M", "wide"): 0.5})
    )
    second = controller.next_round()
    assert len(second[("M", "wide")]) == 16
    assert ("M", "narrow") not in second


def test_widest_first_spills_over_after_capacity():
    pools = {("M", "a"): list(range(4)), ("M", "b"): list(range(20))}
    controller = AdaptiveController(pools, ci_width=0.01, round_size=6)
    controller.next_round()  # round-robin: 3 trials each
    controller.complete_round(_measured({("M", "a"): 0.5, ("M", "b"): 0.0}))
    second = controller.next_round()
    assert len(second[("M", "a")]) == 1  # the widest, until its pool ends
    assert len(second[("M", "b")]) == 5


def test_widest_first_conserves_budget():
    rng = random.Random(1234)
    for _ in range(50):
        pools = {
            ("M", f"s{i}"): list(range(rng.randrange(1, 10)))
            for i in range(rng.randrange(1, 8))
        }
        round_size = rng.randrange(1, 40)
        controller = AdaptiveController(
            pools, ci_width=0.05, round_size=round_size, seed=rng.randrange(99)
        )
        while not controller.finished:
            remaining = {
                key: len(pools[key]) - controller.n_taken(key)
                for key in controller.open_targets()
            }
            schedule = controller.next_round()
            assert sum(map(len, schedule.values())) == min(
                round_size, sum(remaining.values())
            )
            for key, trials in schedule.items():
                assert 1 <= len(trials) <= remaining[key]
            controller.complete_round(
                {
                    key: TargetMeasurement(
                        half_width=rng.uniform(0.0, 0.5),
                        point_estimate=rng.random(),
                    )
                    for key in controller.open_targets()
                }
            )


def test_projected_half_width_matches_wilson():
    assert projected_half_width(0.25, 16) == pytest.approx(
        wilson_half_width(4, 16)
    )
    assert projected_half_width(0.5, 0) == 0.5


# ---------------------------------------------------------------------------
# Controller retirement bookkeeping
# ---------------------------------------------------------------------------


def _controller(**overrides):
    pools = {
        ("M", "a"): [("w0", t, m) for t in (500, 1000) for m in range(8)],
        ("M", "b"): [("w0", t, m) for t in (500, 1000) for m in range(8)],
    }
    params = dict(ci_width=0.1, round_size=8, seed=7)
    params.update(overrides)
    return AdaptiveController(pools, **params)


def test_controller_retires_monotonically_and_never_resamples():
    controller = _controller()
    seen: dict[tuple[str, str], set] = {}
    previous_open = set(controller.open_targets())
    while not controller.finished:
        schedule = controller.next_round()
        for key, trials in schedule.items():
            assert key in previous_open, "scheduled a retired target"
            bucket = seen.setdefault(key, set())
            assert not bucket.intersection(trials), "trial re-issued"
            bucket.update(trials)
        measurements = {
            key: TargetMeasurement(half_width=0.01, point_estimate=0.0)
            for key in schedule
        }
        controller.complete_round(measurements)
        now_open = set(controller.open_targets())
        assert now_open <= previous_open, "a retired target re-opened"
        previous_open = now_open
    assert {r.reason for r in controller.retired()} == {REASON_CONFIDENCE}


def test_controller_exhausts_pool_when_interval_stays_wide():
    controller = _controller(ci_width=0.01)
    rounds = 0
    while not controller.finished:
        schedule = controller.next_round()
        controller.complete_round(
            {
                key: TargetMeasurement(half_width=0.4, point_estimate=0.5)
                for key in schedule
            }
        )
        rounds += 1
        assert rounds < 100, "controller failed to terminate"
    for retiree in controller.retired():
        assert retiree.reason == "exhausted"
        assert retiree.n_trials == 16


# ---------------------------------------------------------------------------
# Monte-Carlo coverage (seeded, tolerance-bounded)
# ---------------------------------------------------------------------------


def _binomial_floor(n: int, p: float, sigmas: float = 4.0) -> float:
    """Lower acceptance bound for a rate estimated from ``n`` trials."""
    return p - sigmas * math.sqrt(p * (1.0 - p) / n)


@pytest.mark.statistical
def test_wilson_coverage_on_seeded_bernoulli_draws():
    """The 95% Wilson interval covers the true p at the nominal rate.

    400 fixed-seed experiments with p and n drawn per-seed; the
    empirical coverage must not fall more than four binomial standard
    errors below 95% (Wilson is conservative for small n, so the
    observed rate typically sits above the nominal one).
    """
    experiments = 400
    covered = 0
    for seed in range(experiments):
        rng = random.Random(f"wilson-coverage-{seed}")
        p = rng.uniform(0.05, 0.95)
        n = rng.randrange(8, 200)
        k = sum(rng.random() < p for _ in range(n))
        lo, hi = wilson_interval(k, n)
        covered += lo <= p <= hi
    rate = covered / experiments
    assert rate >= _binomial_floor(experiments, 0.95), (
        f"coverage {rate:.3f} over {experiments} seeded experiments "
        f"is incompatible with the nominal 95% level"
    )


@pytest.mark.statistical
def test_adaptive_retired_intervals_cover_analytical_permeability():
    """Across >= 200 generated systems, retired intervals keep coverage.

    Every seed builds a random executable XOR-mask system whose
    analytical permeabilities are exact, runs one adaptive campaign,
    and checks the achieved Wilson interval of every retired arc
    against the analytical value.  The adaptive sample is a seeded
    random prefix of a deterministic grid (sampling without
    replacement), so the binomial Wilson interval is conservative and
    the aggregate containment rate must stay above the nominal level
    minus a four-sigma binomial tolerance.
    """
    n_seeds = 200
    arcs = 0
    contained = 0
    for seed in range(n_seeds):
        generated = generate_system(seed)
        campaign = default_campaign(generated)
        config = dataclasses.replace(
            campaign.to_config(reuse=True, fast_forward=True),
            adaptive=True,
            ci_width=0.2,
        )
        result = InjectionCampaign(
            generated.system, generated.run_factory, {"gen": None}, config
        ).execute()
        rows = result.adaptive_rows()
        assert rows, f"seed {seed} retired no targets"
        analytical = generated.analytical_matrix(campaign.n_bits)
        counts = pair_trial_counts(
            estimate_matrix(result, require_complete=campaign.targets is None)
        )
        retired = {(row.module, row.input_signal) for row in rows}
        for (module, input_signal, output), (k, n) in counts.items():
            if (module, input_signal) not in retired:
                continue
            expected = analytical.get_or_none(module, input_signal, output)
            assert expected is not None
            lo, hi = wilson_interval(k, n)
            arcs += 1
            contained += lo - 1e-9 <= expected <= hi + 1e-9
    rate = contained / arcs
    assert arcs >= n_seeds, "generated corpus produced too few retired arcs"
    assert rate >= _binomial_floor(arcs, 0.95), (
        f"containment {rate:.4f} over {arcs} retired arcs from "
        f"{n_seeds} generated systems falls below the Wilson level"
    )
