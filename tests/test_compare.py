"""Tests for the matrix-comparison utilities."""

from __future__ import annotations

import pytest

from repro.core.compare import (
    compare_matrices,
    spearman_rank_correlation,
)
from repro.core.permeability import PermeabilityMatrix
from repro.model.builder import SystemBuilder
from repro.model.examples import build_fig2_system, fig2_permeabilities


class TestSpearman:
    def test_identical_orderings(self):
        assert spearman_rank_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversed_orderings(self):
        assert spearman_rank_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_classic_example(self):
        # Hand-computed rho for a small permutation.
        a = [1, 2, 3, 4, 5]
        b = [2, 1, 4, 3, 5]
        # d = (1,1,1,1,0); rho = 1 - 6*4/(5*24) = 0.8
        assert spearman_rank_correlation(a, b) == pytest.approx(0.8)

    def test_ties_handled(self):
        rho = spearman_rank_correlation([1, 1, 2], [1, 1, 2])
        assert rho == pytest.approx(1.0)

    def test_constant_input_is_degenerate_one(self):
        assert spearman_rank_correlation([5, 5, 5], [1, 2, 3]) == 1.0

    def test_single_element(self):
        assert spearman_rank_correlation([1], [9]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman_rank_correlation([1], [1, 2])


class TestCompareMatrices:
    def test_identical_matrices(self, fig2_matrix):
        system = build_fig2_system()
        other = PermeabilityMatrix.from_dict(system, fig2_permeabilities())
        comparison = compare_matrices(fig2_matrix, other)
        assert comparison.diff.max_abs_delta == 0.0
        assert comparison.diff.mean_abs_delta == 0.0
        assert comparison.module_rank_correlation == pytest.approx(1.0)
        assert comparison.ordering_maintained
        assert comparison.diff.exceeding(0.1) == ()

    def test_detects_drift(self, fig2_matrix):
        values = fig2_permeabilities()
        values[("C", "ext_c", "c1")] = 0.5  # was 1.0
        other = PermeabilityMatrix.from_dict(build_fig2_system(), values)
        comparison = compare_matrices(fig2_matrix, other)
        assert comparison.diff.max_abs_delta == pytest.approx(0.5)
        drifted = comparison.diff.exceeding(0.1)
        assert (drifted[0].module, drifted[0].input_signal) == ("C", "ext_c")
        assert drifted[0].output_signal == "c1"

    def test_ordering_break_detected(self, fig2_matrix):
        # Invert the extremes: make A's single pair huge and B tiny.
        values = {
            key: (0.01 if key[0] == "B" else value)
            for key, value in fig2_permeabilities().items()
        }
        values[("A", "ext_a", "a1")] = 1.0
        other = PermeabilityMatrix.from_dict(build_fig2_system(), values)
        comparison = compare_matrices(fig2_matrix, other)
        assert comparison.module_rank_correlation < 1.0

    def test_different_systems_rejected(self, fig2_matrix):
        builder = SystemBuilder("other")
        builder.add_module("Z", inputs=["x"], outputs=["y"])
        builder.mark_system_input("x")
        builder.mark_system_output("y")
        other = PermeabilityMatrix.uniform(builder.build(), 1.0)
        with pytest.raises(ValueError):
            compare_matrices(fig2_matrix, other)

    def test_incomplete_rejected(self, fig2_matrix, fig2_system):
        with pytest.raises(Exception):
            compare_matrices(fig2_matrix, PermeabilityMatrix(fig2_system))

    def test_render(self, fig2_matrix):
        values = fig2_permeabilities()
        values[("D", "b1", "d1")] = 0.9  # was 0.4
        other = PermeabilityMatrix.from_dict(build_fig2_system(), values)
        text = compare_matrices(fig2_matrix, other).render()
        assert "D.b1 -> d1" in text
        assert "rho" in text
