"""Hand-built (system, campaign) triples for the verify test modules.

Shared between the shrinker tests and the CLI exit-code tests, so the
deterministic *failing* workload lives in exactly one place.
"""

from __future__ import annotations

from repro.verify import GeneratedModule, GeneratedSystemSpec, VerifyCampaign


def small_passing_triple() -> tuple[GeneratedSystemSpec, VerifyCampaign]:
    """A tiny single-module system on which the oracle passes."""
    spec = GeneratedSystemSpec(
        name="tiny-pass",
        seed=0,
        n_slots=1,
        env_seed=42,
        widths={"in0": 16, "out0": 16},
        system_inputs=("in0",),
        system_outputs=("out0",),
        modules=(
            GeneratedModule(
                name="M0",
                inputs=("in0",),
                outputs=("out0",),
                # Half the 4-bit flip band propagates: P = 0.5.
                masks={"in0": {"out0": 0x000A}},
            ),
        ),
        error_probabilities={"in0": 0.2},
    )
    campaign = VerifyCampaign(
        duration_ms=10, injection_times_ms=(2, 5), n_bits=4, seed=9
    )
    return spec, campaign


def unfired_trap_triple() -> tuple[GeneratedSystemSpec, VerifyCampaign]:
    """A failing triple: one module's trap can never fire.

    ``BAD`` runs with period 4 (activations at 0, 4, 8) while the
    campaign injects at t=9 of an 11 ms run — no activation at or after
    the injection instant, so the trap stays unfired, the unfired run
    still counts in the denominator, and measured permeability (0)
    contradicts the exact analytical value (1).  Three benign period-1
    chain modules ride along as shrinker fodder.
    """
    modules = [
        GeneratedModule(
            name="BAD",
            inputs=("bad_in",),
            outputs=("bad_out",),
            masks={"bad_in": {"bad_out": 0x000F}},
            period_ms=4,
            phase=0,
        )
    ]
    widths = {"bad_in": 16, "bad_out": 16, "ok0_in": 16}
    previous = "ok0_in"
    for index in range(3):
        output = f"ok{index}_out"
        widths[output] = 16
        modules.append(
            GeneratedModule(
                name=f"OK{index}",
                inputs=(previous,),
                outputs=(output,),
                masks={previous: {output: 0x00FF}},
            )
        )
        previous = output
    spec = GeneratedSystemSpec(
        name="unfired-trap",
        seed=0,
        n_slots=4,
        env_seed=99,
        widths=widths,
        system_inputs=("bad_in", "ok0_in"),
        system_outputs=("bad_out", previous),
        modules=tuple(modules),
        error_probabilities={"bad_in": 0.3, "ok0_in": 0.3},
    )
    campaign = VerifyCampaign(
        duration_ms=11, injection_times_ms=(9,), n_bits=4, seed=3
    )
    return spec, campaign


def prunable_triple() -> tuple[GeneratedSystemSpec, VerifyCampaign]:
    """A passing triple with one statically prunable target.

    ``M1`` reads only the high byte of ``in1``, so none of the 4-bit
    flip band reaches ``out1``: the flow analysis proves the row zero.
    """
    spec, campaign = small_passing_triple()
    spec = GeneratedSystemSpec(
        name="tiny-prunable",
        seed=0,
        n_slots=1,
        env_seed=42,
        widths={**spec.widths, "in1": 16, "out1": 16},
        system_inputs=("in0", "in1"),
        system_outputs=("out0", "out1"),
        modules=(
            *spec.modules,
            GeneratedModule(
                name="M1",
                inputs=("in1",),
                outputs=("out1",),
                masks={"in1": {"out1": 0xFF00}},
            ),
        ),
        error_probabilities={"in0": 0.2, "in1": 0.2},
    )
    return spec, campaign
