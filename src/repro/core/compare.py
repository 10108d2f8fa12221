"""Comparing permeability matrices (workload / error-model stability).

Section 6 argues that the framework's measures are *relative*: changing
the error model or workload may shift the absolute estimates, but the
analysis stays valid "assuming that the relative order of the modules
and signals ... is maintained".  This module makes that assumption
checkable:

* per-pair deltas between two estimates of the same system
  (:meth:`PermeabilityMatrix.diff <repro.core.permeability.PermeabilityMatrix.diff>`);
* Spearman rank correlation of the module orderings under Eq. 2/3;
* a rendered drift table for reports.

Used by the error-model and workload ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.permeability import MatrixDiff, PermeabilityMatrix

__all__ = ["MatrixComparison", "compare_matrices", "spearman_rank_correlation"]


def _ranks(values: Sequence[float]) -> list[float]:
    """Fractional ranks (ties get the average rank)."""
    order = sorted(range(len(values)), key=lambda index: values[index])
    ranks = [0.0] * len(values)
    position = 0
    while position < len(order):
        tied_end = position
        while (
            tied_end + 1 < len(order)
            and values[order[tied_end + 1]] == values[order[position]]
        ):
            tied_end += 1
        average = (position + tied_end) / 2.0 + 1.0
        for index in range(position, tied_end + 1):
            ranks[order[index]] = average
        position = tied_end + 1
    return ranks


def spearman_rank_correlation(
    a: Sequence[float], b: Sequence[float]
) -> float:
    """Spearman's rho between two paired value sequences.

    Computed as the Pearson correlation of the fractional ranks, which
    handles ties correctly.  Returns 1.0 for degenerate constant inputs
    (identical orderings by convention).
    """
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    if len(a) < 2:
        return 1.0
    ranks_a, ranks_b = _ranks(a), _ranks(b)
    mean_a = sum(ranks_a) / len(ranks_a)
    mean_b = sum(ranks_b) / len(ranks_b)
    cov = sum(
        (x - mean_a) * (y - mean_b) for x, y in zip(ranks_a, ranks_b)
    )
    var_a = sum((x - mean_a) ** 2 for x in ranks_a)
    var_b = sum((y - mean_b) ** 2 for y in ranks_b)
    if var_a == 0.0 or var_b == 0.0:
        return 1.0
    return cov / (var_a * var_b) ** 0.5


@dataclass(frozen=True)
class MatrixComparison:
    """Drift between two permeability estimates of the same system."""

    #: Per-pair differences, the first matrix measured against the second.
    diff: MatrixDiff
    #: Spearman rho of the module ordering by Eq. 3.
    module_rank_correlation: float
    #: Spearman rho over the raw pair values.
    pair_rank_correlation: float

    @property
    def ordering_maintained(self) -> bool:
        """The paper's working assumption at the module level (rho >= 0.8)."""
        return self.module_rank_correlation >= 0.8

    def render(self) -> str:
        """The diff's largest disagreements, then both correlations."""
        return (
            f"{self.diff.render()}\n"
            f"module-rank rho = {self.module_rank_correlation:.3f}, "
            f"pair-rank rho = {self.pair_rank_correlation:.3f}"
        )


def compare_matrices(
    first: PermeabilityMatrix, second: PermeabilityMatrix
) -> MatrixComparison:
    """Quantify the drift between two complete estimates of one system."""
    diff = first.diff(second)
    first.require_complete()
    second.require_complete()
    pairs = list(first.system.pair_index())
    modules = first.system.module_names()
    module_rho = spearman_rank_correlation(
        [first.nonweighted_relative_permeability(m) for m in modules],
        [second.nonweighted_relative_permeability(m) for m in modules],
    )
    pair_rho = spearman_rank_correlation(
        [first.get(*pair) for pair in pairs],
        [second.get(*pair) for pair in pairs],
    )
    return MatrixComparison(
        diff=diff,
        module_rank_correlation=module_rho,
        pair_rank_correlation=pair_rho,
    )
