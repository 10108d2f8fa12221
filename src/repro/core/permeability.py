"""Error permeability (Eq. 1) and the module-level measures (Eqs. 2–3).

The basic measure of the paper, *error permeability*, is defined for
each (input *i*, output *k*) pair of a module *M* as the conditional
probability

.. math::

    0 \\le P^M_{i,k} = \\Pr\\{\\text{err in out } k \\mid
                           \\text{err in in } i\\} \\le 1

Upon it two module-level measures are built:

* **relative permeability** (Eq. 2):
  :math:`P^M = \\frac{1}{m\\,n} \\sum_i \\sum_k P^M_{i,k}`
* **non-weighted relative permeability** (Eq. 3):
  :math:`\\bar P^M = \\sum_i \\sum_k P^M_{i,k}`

Both are *relative ordering* devices: Eq. 2 normalises by the number of
pairs, Eq. 3 deliberately "punishes" hub modules with many inputs and
outputs (Section 4.1).

:class:`PermeabilityMatrix` stores one value per pair of a
:class:`~repro.model.system.SystemModel`, together with optional sample
counts when the value was experimentally estimated (Section 6:
:math:`\\hat P_{i,k} = n_{err} / n_{inj}`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.core.stats import wilson_interval
from repro.model.errors import (
    InvalidProbabilityError,
    MissingPermeabilityError,
    UnknownModuleError,
)
from repro.model.system import SystemModel

__all__ = [
    "PermeabilityEstimate",
    "ModuleMeasures",
    "PairDelta",
    "MatrixDiff",
    "PermeabilityMatrix",
]

#: Key addressing one input/output pair: (module, input signal, output signal).
PairKey = tuple[str, str, str]


@dataclass(frozen=True)
class PermeabilityEstimate:
    """A single permeability value, optionally with its sample counts.

    ``n_injections``/``n_errors`` are present when the value came from a
    fault-injection campaign (Section 6); analytically assigned values
    carry ``None`` counts.
    """

    value: float
    n_injections: int | None = None
    n_errors: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise InvalidProbabilityError("permeability", self.value)
        if (self.n_injections is None) != (self.n_errors is None):
            raise ValueError("n_injections and n_errors must be set together")
        if self.n_injections is not None:
            if self.n_injections <= 0:
                raise ValueError("n_injections must be positive")
            assert self.n_errors is not None
            if not 0 <= self.n_errors <= self.n_injections:
                raise ValueError("n_errors must lie in [0, n_injections]")

    @classmethod
    def from_counts(cls, n_errors: int, n_injections: int) -> "PermeabilityEstimate":
        """Build the paper's point estimate ``n_err / n_inj``."""
        if n_injections <= 0:
            raise ValueError("n_injections must be positive")
        return cls(
            value=n_errors / n_injections,
            n_injections=n_injections,
            n_errors=n_errors,
        )

    @property
    def is_experimental(self) -> bool:
        """Whether the value carries fault-injection sample counts."""
        return self.n_injections is not None

    def wilson_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson score confidence interval for the underlying probability.

        An extension beyond the paper (which reports point estimates
        only); useful for judging whether two pairs' permeabilities are
        distinguishable at the campaign's sample size.
        """
        if not self.is_experimental:
            return (self.value, self.value)
        assert self.n_injections is not None
        assert self.n_errors is not None
        return wilson_interval(self.n_errors, self.n_injections, z)


@dataclass(frozen=True)
class ModuleMeasures:
    """The two module-level permeability measures of Eqs. 2–3."""

    module: str
    n_inputs: int
    n_outputs: int
    relative_permeability: float
    nonweighted_relative_permeability: float

    @property
    def n_pairs(self) -> int:
        return self.n_inputs * self.n_outputs


@dataclass(frozen=True)
class PairDelta:
    """One pair's measured-vs-reference permeability difference."""

    module: str
    input_signal: str
    output_signal: str
    measured: float
    reference: float

    @property
    def delta(self) -> float:
        """Measured minus reference."""
        return self.measured - self.reference


@dataclass(frozen=True)
class MatrixDiff:
    """Pairwise comparison of two permeability matrices.

    Typically the *measured* matrix is a campaign estimate (e.g. the
    observer's live :class:`repro.injection.outcomes.ArcTally`)
    and the *reference* an analytical assignment or an earlier
    campaign; the diff answers "where does measurement disagree with
    the model, and by how much".
    """

    deltas: tuple[PairDelta, ...]

    @property
    def max_abs_delta(self) -> float:
        """Largest absolute per-pair difference (0.0 when empty)."""
        return max((abs(d.delta) for d in self.deltas), default=0.0)

    @property
    def mean_abs_delta(self) -> float:
        if not self.deltas:
            return 0.0
        return sum(abs(d.delta) for d in self.deltas) / len(self.deltas)

    def exceeding(self, atol: float) -> tuple[PairDelta, ...]:
        """Pairs differing by more than ``atol``, largest gap first."""
        hits = [d for d in self.deltas if abs(d.delta) > atol]
        hits.sort(key=lambda d: -abs(d.delta))
        return tuple(hits)

    def agrees(self, atol: float = 1e-12) -> bool:
        """Whether every compared pair matches within ``atol``."""
        return self.max_abs_delta <= atol

    def render(self, top: int = 10) -> str:
        """Text table of the largest disagreements."""
        from repro.core.report import format_table

        ranked = sorted(self.deltas, key=lambda d: -abs(d.delta))[:top]
        rows = [
            (
                f"{d.module}.{d.input_signal} -> {d.output_signal}",
                f"{d.measured:.3f}",
                f"{d.reference:.3f}",
                f"{d.delta:+.3f}",
            )
            for d in ranked
        ]
        return format_table(
            headers=("Pair", "measured", "reference", "delta"),
            rows=rows,
            title=(
                f"Permeability diff ({len(self.deltas)} pairs, "
                f"max |delta| {self.max_abs_delta:.3f})"
            ),
        )


class PermeabilityMatrix:
    """Per-pair permeability values for one system model.

    The matrix is *sparse during construction* and complete once every
    pair of every module has a value; most analyses require completeness
    and raise :class:`MissingPermeabilityError` otherwise (missing
    entries are never silently treated as zero — Eq. 1 distinguishes a
    measured 0 from an unmeasured pair).
    """

    def __init__(self, system: SystemModel) -> None:
        self._system = system
        self._values: dict[PairKey, PermeabilityEstimate] = {}
        self._valid_pairs: set[PairKey] = set(system.pair_index())

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    @property
    def system(self) -> SystemModel:
        """The system model this matrix is bound to."""
        return self._system

    def _check_pair(self, module: str, input_signal: str, output_signal: str) -> PairKey:
        key = (module, input_signal, output_signal)
        if key not in self._valid_pairs:
            raise MissingPermeabilityError(module, input_signal, output_signal)
        return key

    def set(
        self,
        module: str,
        input_signal: str,
        output_signal: str,
        value: float | PermeabilityEstimate,
    ) -> None:
        """Assign the permeability of one input/output pair."""
        key = self._check_pair(module, input_signal, output_signal)
        if not isinstance(value, PermeabilityEstimate):
            value = PermeabilityEstimate(value=float(value))
        self._values[key] = value

    def set_counts(
        self,
        module: str,
        input_signal: str,
        output_signal: str,
        n_errors: int,
        n_injections: int,
    ) -> None:
        """Assign a pair from raw campaign counts (:math:`n_{err}/n_{inj}`)."""
        key = self._check_pair(module, input_signal, output_signal)
        self._values[key] = PermeabilityEstimate.from_counts(n_errors, n_injections)

    def update(self, values: Mapping[PairKey, float]) -> None:
        """Bulk-assign plain float values keyed by pair."""
        for (module, input_signal, output_signal), value in values.items():
            self.set(module, input_signal, output_signal, value)

    @classmethod
    def from_dict(
        cls, system: SystemModel, values: Mapping[PairKey, float]
    ) -> "PermeabilityMatrix":
        """Build a matrix from a plain ``{(module, in, out): value}`` dict."""
        matrix = cls(system)
        matrix.update(values)
        return matrix

    @classmethod
    def pooled(
        cls, matrices: "Sequence[PermeabilityMatrix]"
    ) -> "PermeabilityMatrix":
        """Pool several experimental estimates of the same system.

        Per pair, the injection and error counts are summed — the
        estimator for the union of the campaigns.  Useful for
        incremental estimation: run a cheap grid first, then pool in
        more injections where the Wilson intervals are still too wide.
        All inputs must be complete and experimental (built from
        counts); analytically assigned values cannot be pooled.
        """
        if not matrices:
            raise ValueError("at least one matrix is required")
        system = matrices[0].system
        for matrix in matrices[1:]:
            if set(matrix.system.pair_index()) != set(system.pair_index()):
                raise ValueError("matrices must describe the same system")
        pooled = cls(system)
        for key in system.pair_index():
            n_errors = 0
            n_injections = 0
            for matrix in matrices:
                estimate = matrix.estimate(*key)
                if not estimate.is_experimental:
                    module, input_signal, output_signal = key
                    raise ValueError(
                        "cannot pool analytic value for pair "
                        f"{module}: {input_signal} -> {output_signal}"
                    )
                assert estimate.n_errors is not None
                assert estimate.n_injections is not None
                n_errors += estimate.n_errors
                n_injections += estimate.n_injections
            pooled.set_counts(*key, n_errors=n_errors, n_injections=n_injections)
        return pooled

    @classmethod
    def uniform(cls, system: SystemModel, value: float = 1.0) -> "PermeabilityMatrix":
        """A complete matrix with every pair set to the same value.

        Useful as a structural worst case (``value=1.0`` gives pure
        reachability analysis) and in tests.
        """
        matrix = cls(system)
        for module, input_signal, output_signal in system.pair_index():
            matrix.set(module, input_signal, output_signal, value)
        return matrix

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def get(self, module: str, input_signal: str, output_signal: str) -> float:
        """The permeability of one pair; raises if not set."""
        return self.estimate(module, input_signal, output_signal).value

    def estimate(
        self, module: str, input_signal: str, output_signal: str
    ) -> PermeabilityEstimate:
        """The full :class:`PermeabilityEstimate` of one pair; raises if not set."""
        key = self._check_pair(module, input_signal, output_signal)
        try:
            return self._values[key]
        except KeyError:
            raise MissingPermeabilityError(module, input_signal, output_signal) from None

    def get_or_none(
        self, module: str, input_signal: str, output_signal: str
    ) -> float | None:
        """The permeability of one pair, or ``None`` if not yet set."""
        key = self._check_pair(module, input_signal, output_signal)
        entry = self._values.get(key)
        return None if entry is None else entry.value

    def __contains__(self, key: PairKey) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> Iterator[tuple[PairKey, PermeabilityEstimate]]:
        """All assigned (pair, estimate) entries in system pair order."""
        for key in self._system.pair_index():
            if key in self._values:
                yield key, self._values[key]

    def is_complete(self) -> bool:
        """Whether every pair of every module has a value."""
        return len(self._values) == len(self._valid_pairs)

    def missing_pairs(self) -> tuple[PairKey, ...]:
        """Pairs without a value, in system pair order."""
        return tuple(
            key for key in self._system.pair_index() if key not in self._values
        )

    def require_complete(self) -> None:
        """Raise :class:`MissingPermeabilityError` for the first missing pair."""
        missing = self.missing_pairs()
        if missing:
            module, input_signal, output_signal = missing[0]
            raise MissingPermeabilityError(module, input_signal, output_signal)

    # ------------------------------------------------------------------
    # Module measures (Eqs. 2 and 3)
    # ------------------------------------------------------------------

    def module_pair_values(self, module: str) -> dict[tuple[str, str], float]:
        """All pair values of one module keyed by (input, output) signal."""
        spec = self._system.module(module)
        return {
            (i, k): self.get(module, i, k) for i, k in spec.pairs()
        }

    def relative_permeability(self, module: str) -> float:
        """Eq. 2: mean permeability over the module's *m*·*n* pairs."""
        spec = self._system.module(module)
        if spec.n_pairs == 0:
            return 0.0
        total = sum(self.get(module, i, k) for i, k in spec.pairs())
        return total / spec.n_pairs

    def nonweighted_relative_permeability(self, module: str) -> float:
        """Eq. 3: sum of the module's pair permeabilities (bounded by *m*·*n*)."""
        spec = self._system.module(module)
        return sum(self.get(module, i, k) for i, k in spec.pairs())

    def module_measures(self, module: str) -> ModuleMeasures:
        """Both Eq. 2 and Eq. 3 for one module."""
        spec = self._system.module(module)
        if module not in self._system.modules:
            raise UnknownModuleError(module)
        return ModuleMeasures(
            module=module,
            n_inputs=spec.n_inputs,
            n_outputs=spec.n_outputs,
            relative_permeability=self.relative_permeability(module),
            nonweighted_relative_permeability=self.nonweighted_relative_permeability(
                module
            ),
        )

    def all_module_measures(self) -> dict[str, ModuleMeasures]:
        """Eq. 2/3 measures for every module, keyed by module name."""
        return {name: self.module_measures(name) for name in self._system.module_names()}

    def rank_by_relative_permeability(self) -> list[ModuleMeasures]:
        """Modules ordered by Eq. 2, most permeable first."""
        measures = self.all_module_measures().values()
        return sorted(measures, key=lambda m: -m.relative_permeability)

    def rank_by_nonweighted_permeability(self) -> list[ModuleMeasures]:
        """Modules ordered by Eq. 3, most permeable first."""
        measures = self.all_module_measures().values()
        return sorted(measures, key=lambda m: -m.nonweighted_relative_permeability)

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------

    def diff(self, reference: "PermeabilityMatrix") -> MatrixDiff:
        """Per-pair comparison of ``self`` (measured) against a reference.

        Both matrices must describe the same system pair set; pairs are
        compared where *both* carry a value, so a sparse mid-campaign
        measured matrix can be diffed against a complete analytical one
        without inventing zeros for unmeasured pairs.
        """
        if self._valid_pairs != reference._valid_pairs:
            raise ValueError(
                "cannot diff matrices of different systems: "
                f"{self._system.name!r} vs {reference._system.name!r}"
            )
        deltas = []
        for key in self._system.pair_index():
            if key not in self._values or key not in reference._values:
                continue
            module, input_signal, output_signal = key
            deltas.append(
                PairDelta(
                    module=module,
                    input_signal=input_signal,
                    output_signal=output_signal,
                    measured=self._values[key].value,
                    reference=reference._values[key].value,
                )
            )
        return MatrixDiff(deltas=tuple(deltas))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_jsonable(self) -> dict:
        """A JSON-serialisable representation of the assigned entries."""
        entries = []
        for (module, input_signal, output_signal), estimate in self.items():
            entries.append(
                {
                    "module": module,
                    "input": input_signal,
                    "output": output_signal,
                    "value": estimate.value,
                    "n_injections": estimate.n_injections,
                    "n_errors": estimate.n_errors,
                }
            )
        return {"system": self._system.name, "entries": entries}

    def to_json(self, indent: int | None = 2) -> str:
        """Serialise the assigned entries to a JSON string."""
        return json.dumps(self.to_jsonable(), indent=indent)

    @classmethod
    def from_jsonable(cls, system: SystemModel, data: Mapping) -> "PermeabilityMatrix":
        """Rebuild a matrix from :meth:`to_jsonable` output."""
        matrix = cls(system)
        for entry in data["entries"]:
            if entry.get("n_injections") is not None:
                matrix.set_counts(
                    entry["module"],
                    entry["input"],
                    entry["output"],
                    n_errors=entry["n_errors"],
                    n_injections=entry["n_injections"],
                )
            else:
                matrix.set(
                    entry["module"], entry["input"], entry["output"], entry["value"]
                )
        return matrix

    @classmethod
    def from_json(cls, system: SystemModel, text: str) -> "PermeabilityMatrix":
        """Rebuild a matrix from a JSON string produced by :meth:`to_json`."""
        return cls.from_jsonable(system, json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PermeabilityMatrix {self._system.name!r} "
            f"{len(self._values)}/{len(self._valid_pairs)} pairs>"
        )
