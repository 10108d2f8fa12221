"""The seed reaches the program only through the generated inputs."""

import dataclasses

import pytest

from perfbench import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    assert workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_nothing_but_the_generated_inputs(workload, tmp_path):
    a = workloads.prepare(workload, workloads.make_inputs(workload, 1), tmp_path / "a")
    b = workloads.prepare(workload, workloads.make_inputs(workload, 2), tmp_path / "b")
    assert len(a.campaigns) == len(b.campaigns)
    for ca, cb in zip(a.campaigns, b.campaigns):
        # Only the campaign seed and the per-execution store differ.
        assert dataclasses.replace(
            ca.config,
            seed=cb.config.seed,
            store=cb.config.store,
            error_models=cb.config.error_models,
        ) == cb.config
        assert [m.name for m in ca.config.error_models] == [
            m.name for m in cb.config.error_models
        ]
        assert ca.case_ids() == cb.case_ids()
        assert ca.targets == cb.targets
    for ga, gb in zip(a.generated, b.generated):
        # The chain draws its environment seed and the edit from the
        # seed; its topology and every other mask stay fixed.
        assert ga.spec.env_seed != gb.spec.env_seed
        assert dataclasses.replace(
            ga.spec, env_seed=gb.spec.env_seed, modules=gb.spec.modules
        ) == gb.spec
        assert ga.spec.modules[1:] == gb.spec.modules[1:]


def test_the_edit_clears_a_fixed_number_of_bits():
    for seed in range(20):
        inputs = workloads.make_inputs(workloads.CHAIN_EDIT, seed)
        cold, edited = workloads.chain_specs(inputs)
        mask = edited.modules[0].masks["x_in"]["s0"]
        kept = workloads.CHAIN_BITS - workloads.CHAIN_EDIT_CLEARED
        assert bin(mask).count("1") == kept
        assert cold.modules[1:] == edited.modules[1:]
