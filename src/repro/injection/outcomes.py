"""Records of individual injection experiments and their aggregation.

Each injection run (IR) produces one :class:`InjectionOutcome`; a
campaign produces a :class:`CampaignResult` holding all of them.
:class:`ArcTally` is the one fold of outcomes into per-arc error counts
— the raw material of the paper's Table 1 estimates — and
:func:`direct_outputs` the one place the Section 7.3 direct-error rule
is applied.  The estimator, the live observer, adaptive stopping, the
dashboard reducer and the events summary all count through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.permeability import PermeabilityMatrix
from repro.core.stats import wilson_interval
from repro.injection.golden_run import GoldenRunComparison
from repro.model.system import SystemModel

__all__ = [
    "AdaptiveRow",
    "ArcTally",
    "CampaignResult",
    "InjectionOutcome",
    "PairCounts",
    "direct_outputs",
]


@dataclass(frozen=True)
class AdaptiveRow:
    """Stopping record of one adaptively sampled (module, input) target.

    Attached to a :class:`CampaignResult` by the adaptive campaign path
    (``CampaignConfig(adaptive=True)``): how many of the target's grid
    trials actually ran, the achieved Wilson half-width of its widest
    output arc at retirement, and why sampling stopped
    (``"confidence"``: the interval got tight enough; ``"cap"``: the
    per-target trial cap; ``"exhausted"``: the full grid ran).  Lets
    reports annotate each estimate with its achieved confidence.
    """

    module: str
    input_signal: str
    n_trials: int
    n_grid: int
    half_width: float
    reason: str
    round_index: int

    def to_jsonable(self) -> dict:
        return {
            "module": self.module,
            "input_signal": self.input_signal,
            "n_trials": self.n_trials,
            "n_grid": self.n_grid,
            "half_width": self.half_width,
            "reason": self.reason,
            "round_index": self.round_index,
        }


@dataclass(frozen=True)
class InjectionOutcome:
    """One injection run: what was injected, and what the GRC found."""

    #: Workload/test case identifier.
    case_id: str
    #: Module whose input was injected.
    module: str
    #: Input signal that was injected.
    input_signal: str
    #: Scheduled injection time (the trap fires at the first read at or
    #: after this time).
    scheduled_time_ms: int
    #: Millisecond at which the trap actually fired, or ``None`` if the
    #: module never read the signal after the scheduled time.
    fired_at_ms: int | None
    #: Name of the applied error model (e.g. ``bitflip[7]``).
    error_model: str
    #: The GRC verdict for every traced signal.
    comparison: GoldenRunComparison
    #: Frame at which the IR provably re-matched the Golden Run and was
    #: fast-forwarded (``None``: simulated to the end).  The paper's
    #: error-lifetime measurement: the injected error's effect set was
    #: empty from this instant on.
    reconverged_at_ms: int | None = None
    #: Frames the IR skipped thanks to reconvergence fast-forward.
    frames_fast_forwarded: int = 0

    @property
    def fired(self) -> bool:
        """Whether the injection actually took place."""
        return self.fired_at_ms is not None

    @property
    def reconverged(self) -> bool:
        """Whether the run was fast-forwarded after reconvergence."""
        return self.reconverged_at_ms is not None

    @property
    def error_lifetime_ms(self) -> int | None:
        """Milliseconds from trap firing to proven reconvergence.

        ``None`` when the trap never fired or the run never (provably)
        reconverged — the error was still alive at the end of the run,
        so its lifetime is right-censored, not zero.
        """
        if self.fired_at_ms is None or self.reconverged_at_ms is None:
            return None
        return self.reconverged_at_ms - self.fired_at_ms

    def output_diverged(self, output_signal: str) -> bool:
        """Whether the given signal diverged from the Golden Run."""
        return self.comparison.diverged(output_signal)

    def to_jsonable(self) -> dict:
        """JSON-safe form for the campaign result store (repro.store)."""
        return {
            "case_id": self.case_id,
            "module": self.module,
            "input_signal": self.input_signal,
            "scheduled_time_ms": self.scheduled_time_ms,
            "fired_at_ms": self.fired_at_ms,
            "error_model": self.error_model,
            "comparison": self.comparison.to_jsonable(),
            "reconverged_at_ms": self.reconverged_at_ms,
            "frames_fast_forwarded": self.frames_fast_forwarded,
        }

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "InjectionOutcome":
        """Rebuild an outcome persisted by :meth:`to_jsonable`."""
        return cls(
            case_id=data["case_id"],
            module=data["module"],
            input_signal=data["input_signal"],
            scheduled_time_ms=data["scheduled_time_ms"],
            fired_at_ms=data["fired_at_ms"],
            error_model=data["error_model"],
            comparison=GoldenRunComparison.from_jsonable(data["comparison"]),
            reconverged_at_ms=data["reconverged_at_ms"],
            frames_fast_forwarded=data["frames_fast_forwarded"],
        )

    def direct_output_error(
        self, output_signal: str, input_is_feedback: bool = False
    ) -> bool:
        """Whether the divergence on ``output_signal`` was *direct*.

        Section 7.3: "We only took into account the direct errors on the
        outputs.  We did not count errors originating from errors that
        propagated via one of the other outputs and then came back to
        the original input producing an error in the first output."

        Because injection is consumer-scoped, the *stored* value of the
        injected input signal is only perturbed if the error travels
        through the system and arrives back at the signal.  An output
        divergence is therefore direct iff it occurs no later than the
        injected signal's own stored trace diverges.

        ``input_is_feedback`` marks injected inputs that are outputs of
        the injected module itself (e.g. CALC's ``i``).  There the
        stored trace diverges immediately through the module's own
        write — that is the direct feedback, not a return "via one of
        the other outputs", so the loop test does not apply.
        """
        output_time = self.comparison.divergence_time(output_signal)
        if output_time is None:
            return False
        if input_is_feedback:
            return True
        loop_time = self.comparison.divergence_time(self.input_signal)
        return loop_time is None or output_time <= loop_time


def direct_outputs(
    outcome: InjectionOutcome, outputs: Sequence[str], direct_only: bool = True
) -> tuple[str, ...]:
    """The outputs, among the injected module's ``outputs``, a run erred on.

    The one application of the Section 7.3 rule: a fired run counts for
    output ``k`` when :meth:`InjectionOutcome.direct_output_error`
    holds, an injected input that is one of ``outputs`` being a
    feedback input.  ``direct_only=False`` counts any divergence
    instead.  A trap that never fired erred on nothing.
    """
    if not outcome.fired:
        return ()
    if not direct_only:
        return tuple(k for k in outputs if outcome.output_diverged(k))
    input_is_feedback = outcome.input_signal in outputs
    return tuple(
        k
        for k in outputs
        if outcome.direct_output_error(k, input_is_feedback=input_is_feedback)
    )


@dataclass
class PairCounts:
    """Raw counts for one (module, input, output) pair."""

    module: str
    input_signal: str
    output_signal: str
    n_injections: int = 0
    n_errors: int = 0

    @property
    def permeability(self) -> float:
        """The paper's point estimate :math:`n_{err} / n_{inj}`."""
        if self.n_injections == 0:
            return 0.0
        return self.n_errors / self.n_injections

    def wilson_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson score interval of :attr:`permeability`
        (:func:`repro.core.stats.wilson_interval`; ``(0, 1)`` without
        injections)."""
        return wilson_interval(self.n_errors, self.n_injections, z)


class ArcTally:
    """Incremental :math:`n_{err}/n_{inj}` counts per (module, input → output) arc.

    ``topology`` maps each module to its ``(inputs, outputs)``, in
    system order (:meth:`of_system`, or :meth:`of_manifest` for a
    recorded event stream).  Injections count per (module, input)
    location — every run, fired or not, and statically-pruned runs
    added with ``n`` — and errors per arc.  A location never added
    stays absent from :meth:`entries`; an added one yields every output
    arc of its module, in topology order (:meth:`to_jsonable` skips
    those still at zero injections).
    """

    def __init__(
        self, topology: Mapping[str, tuple[Iterable[str], Iterable[str]]]
    ) -> None:
        self._topology = {
            module: (tuple(inputs), tuple(outputs))
            for module, (inputs, outputs) in topology.items()
        }
        self._injections: dict[tuple[str, str], int] = {}
        self._errors: dict[tuple[str, str, str], int] = {}

    @classmethod
    def of_system(cls, system: SystemModel) -> "ArcTally":
        """The tally over a system model's module topology."""
        return cls(
            {
                name: (system.module(name).inputs, system.module(name).outputs)
                for name in system.module_names()
            }
        )

    @classmethod
    def of_manifest(cls, manifest: Mapping) -> "ArcTally":
        """The tally over a run manifest's ``modules`` topology."""
        return cls(
            {
                name: (spec.get("inputs", ()), spec.get("outputs", ()))
                for name, spec in manifest.get("modules", {}).items()
            }
        )

    def add(
        self,
        module: str,
        input_signal: str,
        propagated_outputs: Iterable[str] = (),
        n: int = 1,
    ) -> None:
        """Count ``n`` injections into one location and one error on
        each of ``propagated_outputs``."""
        location = (module, input_signal)
        self._injections[location] = self._injections.get(location, 0) + n
        for output_signal in propagated_outputs:
            arc = (module, input_signal, output_signal)
            self._errors[arc] = self._errors.get(arc, 0) + 1

    def add_outcome(
        self, outcome: InjectionOutcome, direct_only: bool = True
    ) -> tuple[str, ...]:
        """Fold one run; returns the outputs it counted as errors."""
        outputs = direct_outputs(
            outcome, self._topology[outcome.module][1], direct_only
        )
        self.add(outcome.module, outcome.input_signal, outputs)
        return outputs

    def arc(
        self, module: str, input_signal: str, output_signal: str
    ) -> PairCounts:
        """The counts of one arc (zeros if its location was never added)."""
        if output_signal not in self._topology.get(module, ((), ()))[1]:
            raise KeyError(
                f"no arc {module}: {input_signal} -> {output_signal}"
            )
        return PairCounts(
            module,
            input_signal,
            output_signal,
            self._injections.get((module, input_signal), 0),
            self._errors.get((module, input_signal, output_signal), 0),
        )

    def entries(self) -> Iterator[PairCounts]:
        """Every arc of every added location, in topology order."""
        for module, (inputs, outputs) in self._topology.items():
            for input_signal in inputs:
                if (module, input_signal) in self._injections:
                    for output_signal in outputs:
                        yield self.arc(module, input_signal, output_signal)

    def hottest(self, n: int = 10) -> list[PairCounts]:
        """The ``n`` arcs with the most errors (ties: by arc name)."""
        hits = [entry for entry in self.entries() if entry.n_errors]
        hits.sort(
            key=lambda e: (-e.n_errors, e.module, e.input_signal, e.output_signal)
        )
        return hits[:n]

    def to_jsonable(self, system_name: str) -> dict:
        """The measured arcs in :meth:`PermeabilityMatrix.to_jsonable`
        form; locations with zero injections stay unset."""
        return {
            "system": system_name,
            "entries": [
                {
                    "module": entry.module,
                    "input": entry.input_signal,
                    "output": entry.output_signal,
                    "value": entry.n_errors / entry.n_injections,
                    "n_injections": entry.n_injections,
                    "n_errors": entry.n_errors,
                }
                for entry in self.entries()
                if entry.n_injections
            ],
        }

    def to_matrix(self, system: SystemModel) -> PermeabilityMatrix:
        """The measured (sparse) permeability matrix of ``system``."""
        return PermeabilityMatrix.from_jsonable(
            system, self.to_jsonable(system.name)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArcTally):
            return NotImplemented
        return (self._topology, self._injections, self._errors) == (
            other._topology,
            other._injections,
            other._errors,
        )

    __hash__ = None  # type: ignore[assignment]


class CampaignResult:
    """All outcomes of one campaign, with aggregation helpers."""

    def __init__(self, system: SystemModel, outcomes: Iterable[InjectionOutcome] = ()):
        self._system = system
        self._outcomes: list[InjectionOutcome] = list(outcomes)
        self._pruned: dict[tuple[str, str], int] = {}
        self._adaptive: dict[tuple[str, str], AdaptiveRow] = {}

    @property
    def system(self) -> SystemModel:
        return self._system

    def add(self, outcome: InjectionOutcome) -> None:
        """Record one injection run."""
        self._outcomes.append(outcome)

    def record_pruned(
        self, module: str, input_signal: str, n_injections: int
    ) -> None:
        """Record a statically-pruned target as exact zero-error counts.

        A target is only pruned when every arc of its row is proven to
        have zero permeability (see :mod:`repro.flow`), so the
        ``n_injections`` runs it would have received are recorded as
        conducted-with-zero-errors without executing them.  The counts
        surface through :meth:`pair_counts` exactly as if the runs had
        happened, keeping estimators and reports complete.
        """
        key = (module, input_signal)
        self._pruned[key] = self._pruned.get(key, 0) + n_injections

    def pruned_targets(self) -> tuple[tuple[str, str], ...]:
        """The statically-pruned (module, input) targets, in record order."""
        return tuple(self._pruned)

    def n_pruned_runs(self) -> int:
        """Injection runs skipped (and recorded as zeros) by pruning."""
        return sum(self._pruned.values())

    def record_adaptive(self, row: AdaptiveRow) -> None:
        """Attach one adaptive target's stopping record."""
        self._adaptive[(row.module, row.input_signal)] = row

    def adaptive_rows(self) -> tuple[AdaptiveRow, ...]:
        """Stopping records of an adaptive campaign, in retirement order.

        Empty for exhaustive campaigns; an adaptive campaign records one
        row per sampled (module, input) target.  Statically-pruned
        targets never appear here — their arcs are exact zeros, not
        samples.
        """
        return tuple(self._adaptive.values())

    def n_adaptive_trials(self) -> int:
        """Injection runs an adaptive campaign actually scheduled."""
        return sum(row.n_trials for row in self._adaptive.values())

    def n_adaptive_trials_saved(self) -> int:
        """Grid runs adaptive stopping skipped (vs the exhaustive grid)."""
        return sum(
            row.n_grid - row.n_trials for row in self._adaptive.values()
        )

    def __len__(self) -> int:
        return len(self._outcomes)

    def __iter__(self) -> Iterator[InjectionOutcome]:
        return iter(self._outcomes)

    def outcomes_for(
        self, module: str, input_signal: str | None = None
    ) -> list[InjectionOutcome]:
        """Outcomes of injections into one module (optionally one input)."""
        return [
            outcome
            for outcome in self._outcomes
            if outcome.module == module
            and (input_signal is None or outcome.input_signal == input_signal)
        ]

    def arc_tally(
        self,
        direct_only: bool = True,
        predicate: Callable[[InjectionOutcome], bool] | None = None,
    ) -> ArcTally:
        """Fold the outcomes into per-arc injection/error counts.

        Parameters
        ----------
        direct_only:
            Apply the paper's direct-error rule (Section 7.3) instead of
            counting any divergence.
        predicate:
            Optional extra filter over outcomes (e.g. one test case or
            one error model) for ablation studies.  A location whose
            outcomes are all filtered out keeps zero-injection arcs.

        Every run counts in the denominator, fired or not: the paper
        counts *conducted* injections (:math:`16 \\cdot 10 \\cdot 25 =
        4000` per signal).  Statically-pruned targets (see
        :meth:`record_pruned`) count with their full injection count and
        zero errors, exactly as if the runs had executed — but only when
        ``predicate`` is ``None``, since pruned runs have no per-outcome
        record to filter on.
        """
        tally = ArcTally.of_system(self._system)
        for outcome in self._outcomes:
            if predicate is None or predicate(outcome):
                tally.add_outcome(outcome, direct_only)
            else:
                tally.add(outcome.module, outcome.input_signal, n=0)
        if predicate is None:
            for (module, input_signal), n_injections in self._pruned.items():
                tally.add(module, input_signal, n=n_injections)
        return tally

    def pair_counts(
        self,
        direct_only: bool = True,
        predicate: Callable[[InjectionOutcome], bool] | None = None,
    ) -> dict[tuple[str, str, str], PairCounts]:
        """:meth:`arc_tally`'s entries keyed by (module, input, output):
        every output of every injected location."""
        return {
            (entry.module, entry.input_signal, entry.output_signal): entry
            for entry in self.arc_tally(direct_only, predicate).entries()
        }

    def n_fired(self) -> int:
        """Number of injection runs whose trap actually fired."""
        return sum(1 for outcome in self._outcomes if outcome.fired)

    def n_reconverged(self) -> int:
        """Injection runs that reconverged and were fast-forwarded."""
        return sum(1 for outcome in self._outcomes if outcome.reconverged)

    def reconverged_fraction(self) -> float:
        """Fraction of IRs that provably reconverged (0.0 when empty)."""
        if not self._outcomes:
            return 0.0
        return self.n_reconverged() / len(self._outcomes)

    def frames_fast_forwarded_total(self) -> int:
        """Simulated milliseconds skipped by reconvergence fast-forward."""
        return sum(outcome.frames_fast_forwarded for outcome in self._outcomes)

    def case_ids(self) -> tuple[str, ...]:
        """All distinct test-case identifiers, in first-seen order."""
        seen: dict[str, None] = {}
        for outcome in self._outcomes:
            seen.setdefault(outcome.case_id, None)
        return tuple(seen)

    def error_model_names(self) -> tuple[str, ...]:
        """All distinct error-model names, in first-seen order."""
        seen: dict[str, None] = {}
        for outcome in self._outcomes:
            seen.setdefault(outcome.error_model, None)
        return tuple(seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CampaignResult {len(self._outcomes)} injections, "
            f"{self.n_fired()} fired>"
        )
