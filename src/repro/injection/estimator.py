"""Permeability estimation from campaign results (Section 6).

"Suppose, for module M, we inject :math:`n_{inj}` distinct errors in
input *i*, and at output *k* observe :math:`n_{err}` differences
compared to the GR's, then we can directly estimate the error
permeability :math:`P_{i,k}` to be :math:`n_{err} / n_{inj}`."

:func:`estimate_matrix` turns a :class:`CampaignResult` into a
:class:`PermeabilityMatrix`; :class:`PermeabilityEstimator` bundles
campaign execution and aggregation behind one call.

Statically-pruned targets (``CampaignConfig(static_prune=True)``) need
no special handling here: ``CampaignResult.arc_tally`` counts them with
their full injection count and exactly zero errors, so the estimated
matrix — and every table derived from it — is byte-identical to the
unpruned campaign's.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.core.permeability import PermeabilityMatrix
from repro.injection.campaign import CampaignConfig, InjectionCampaign, ProgressCallback
from repro.injection.outcomes import CampaignResult, InjectionOutcome
from repro.model.errors import CampaignError
from repro.model.system import SystemModel
from repro.simulation.runtime import SimulationRun

__all__ = ["estimate_matrix", "pair_trial_counts", "PermeabilityEstimator"]


def pair_trial_counts(
    matrix: PermeabilityMatrix,
) -> dict[tuple[str, str, str], tuple[int, int]]:
    """Per-pair ``(n_errors, n_injections)`` of an estimated matrix.

    Exposes the raw trial counts behind every experimental estimate —
    the inputs confidence-interval math needs (see
    :meth:`~repro.core.permeability.PermeabilityEstimate.wilson_interval`).
    Raises :class:`ValueError` if any assigned pair carries no counts
    (i.e. the matrix is analytical, not measured).
    """
    counts: dict[tuple[str, str, str], tuple[int, int]] = {}
    for (module, input_signal, output_signal), estimate in matrix.items():
        if estimate.n_injections is None or estimate.n_errors is None:
            raise ValueError(
                "pair without trial counts (analytical estimate?): "
                f"{module}: {input_signal} -> {output_signal}"
            )
        key = (module, input_signal, output_signal)
        counts[key] = (estimate.n_errors, estimate.n_injections)
    return counts


def estimate_matrix(
    result: CampaignResult,
    direct_only: bool = True,
    predicate: Callable[[InjectionOutcome], bool] | None = None,
    require_complete: bool = True,
) -> PermeabilityMatrix:
    """Aggregate a campaign into a permeability matrix.

    Parameters
    ----------
    result:
        The campaign's collected outcomes.
    direct_only:
        Apply the paper's direct-error rule (Section 7.3).
    predicate:
        Optional outcome filter (e.g. a single test case or error
        model) for ablation studies.
    require_complete:
        Verify every pair of every module received injections; disable
        when deliberately estimating a subset of the system.

    Targets skipped by static pruning still count as ``(n_errors=0,
    n_injections=<full grid>)``, so a pruned campaign satisfies
    ``require_complete`` and estimates the same matrix as an unpruned
    one.  A target whose outcomes were all filtered out stays unset.
    """
    matrix = result.arc_tally(direct_only, predicate).to_matrix(result.system)
    if require_complete:
        missing = matrix.missing_pairs()
        if missing:
            module, input_signal, output_signal = missing[0]
            raise CampaignError(
                "campaign produced no estimate for pair "
                f"{module}: {input_signal} -> {output_signal} "
                "(was the input targeted?)"
            )
    return matrix


class PermeabilityEstimator:
    """One-call experimental estimation of a system's permeability matrix.

    Wraps :class:`InjectionCampaign` + :func:`estimate_matrix`::

        estimator = PermeabilityEstimator(system, factory, cases, config)
        matrix = estimator.estimate()
        analysis = PropagationAnalysis(matrix)
    """

    def __init__(
        self,
        system: SystemModel,
        run_factory: Callable[..., SimulationRun],
        test_cases: Mapping[str, object] | Sequence[object],
        config: CampaignConfig | None = None,
        direct_only: bool = True,
    ) -> None:
        self._campaign = InjectionCampaign(system, run_factory, test_cases, config)
        self._direct_only = direct_only
        self._result: CampaignResult | None = None

    @property
    def campaign(self) -> InjectionCampaign:
        """The underlying campaign (for introspection before execution)."""
        return self._campaign

    @property
    def result(self) -> CampaignResult | None:
        """The campaign result, once :meth:`estimate` has run."""
        return self._result

    def estimate(self, progress: ProgressCallback | None = None) -> PermeabilityMatrix:
        """Execute the campaign (once) and aggregate the matrix."""
        if self._result is None:
            self._result = self._campaign.execute(progress=progress)
        return estimate_matrix(self._result, direct_only=self._direct_only)
