"""Random *executable* system generator for differential testing.

Upgrades the analysis-only layered-DAG strategies of
``tests/strategies.py``: every generated system is a runnable
:class:`~repro.simulation.runtime.SimulationRun` wired into the
simulation runtime — layered DAGs plus (optionally) one marked
feedback loop per module, varied signal widths and schedules, fully
deterministic from a single integer seed.

The behavioural model is deliberately *bit-linear*: every module
computes each output as the XOR of its masked inputs
(``out = XOR_i (in_i & mask[i][out])``).  A single injected bit-flip
therefore propagates through a mask chain iff the flipped bit survives
every AND along the way, which makes the analytical error permeability
of each (input, output) pair **exact** rather than merely estimable:

    P(i, o) = popcount(eff(i, o) & wmask(o) & bits(B)) / B

where ``B`` is the number of bit-flip error models, ``wmask`` the
signal-width mask and ``eff`` the effective propagation mask including
the (at most one) feedback signal of the module:

    eff(i, o) = mask[i][o] | (mask[i][fb] & wmask(fb) & mask[fb][o])

Higher-order feedback round-trips only shrink the surviving bit set
(every extra trip ANDs in ``mask[fb][fb]``), so the first-order term
is already exact.  The differential oracle
(:mod:`repro.verify.oracles`) exploits this to demand *exact*
agreement between measured and analytical permeability, which catches
off-by-one errors that confidence intervals at small sample sizes
cannot.

Constraints upheld by construction (and validated on deserialisation):

* layered DAG between modules — the only cycles are single-module
  self-loops (marked feedback), so an injected system input's stored
  value never diverges and every output divergence is "direct" in the
  sense of the Section 7.3 rule
  (:func:`repro.injection.outcomes.direct_outputs`);
* at most one feedback signal per module (keeps ``eff`` exact);
* every module input is at least as wide as the bit-flip model count,
  so :class:`~repro.injection.error_models.BitFlip` never rejects.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import cached_property
from random import Random
from typing import Any, Iterator, Mapping

from repro.core.permeability import PermeabilityMatrix
from repro.model.module import ModuleSpec, SoftwareModule
from repro.model.signal import SignalSpec
from repro.model.system import SystemModel
from repro.simulation.runtime import SignalStore, SimulationRun
from repro.simulation.scheduler import SlotSchedule

__all__ = [
    "GeneratedModule",
    "GeneratedSystem",
    "GeneratedSystemSpec",
    "LcgEnvironment",
    "MaskModule",
    "OpaqueMaskModule",
    "SpecError",
    "analytical_matrix",
    "generate_system",
]

#: Widest signal the generator emits (the paper's register width).
MAX_WIDTH = 16


class SpecError(ValueError):
    """A generated-system spec is structurally invalid."""


# ---------------------------------------------------------------------------
# Declarative spec (JSON-able, the unit the shrinker edits)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratedModule:
    """One module of a generated system: masks, schedule, ports."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    #: ``masks[input][output]`` — the AND mask applied to ``input``
    #: when XOR-accumulating ``output``.
    masks: Mapping[str, Mapping[str, int]]
    period_ms: int = 1
    phase: int = 0
    #: When ``True`` the module is built as :class:`OpaqueMaskModule`
    #: (behaviourally identical, but hidden from the batched backend's
    #: vectorizer) — exercises the scalar per-lane fallback path.
    opaque: bool = False

    @property
    def feedback_signal(self) -> str | None:
        """The module's self-loop signal, if any (at most one)."""
        loops = [s for s in self.outputs if s in self.inputs]
        if len(loops) > 1:
            raise SpecError(
                f"module {self.name!r} has {len(loops)} feedback signals; "
                "the generator model allows at most one"
            )
        return loops[0] if loops else None

    def mask(self, input_signal: str, output_signal: str) -> int:
        try:
            return self.masks[input_signal][output_signal]
        except KeyError:
            raise SpecError(
                f"module {self.name!r} has no mask for pair "
                f"({input_signal!r}, {output_signal!r})"
            ) from None


@dataclass(frozen=True)
class GeneratedSystemSpec:
    """Complete declarative description of a generated system.

    Everything needed to rebuild the :class:`SystemModel`, the
    behavioural modules, the schedule and the environment — plain data,
    JSON round-trippable, and the unit of work for the shrinker.
    """

    name: str
    seed: int
    n_slots: int
    env_seed: int
    #: Signal name -> width in bits.
    widths: Mapping[str, int]
    system_inputs: tuple[str, ...]
    system_outputs: tuple[str, ...]
    modules: tuple[GeneratedModule, ...]
    #: Per system input: the externally assumed Pr(err) (paper Eq. 7
    #: weighting); drives the Pr(err)-scaling metamorphic relation.
    error_probabilities: Mapping[str, float] = field(default_factory=dict)

    # -- derived views ------------------------------------------------

    def module(self, name: str) -> GeneratedModule:
        for module in self.modules:
            if module.name == name:
                return module
        raise SpecError(f"unknown module {name!r}")

    def consumers_of(self, signal: str) -> list[str]:
        return [m.name for m in self.modules if signal in m.inputs]

    def producer_of(self, signal: str) -> str | None:
        for module in self.modules:
            if signal in module.outputs:
                return module.name
        return None

    def connections(self) -> Iterator[tuple[str, str]]:
        """Every (module, input_signal) pair."""
        for module in self.modules:
            for signal in module.inputs:
                yield module.name, signal

    def min_input_width(self) -> int:
        """Narrowest module input — the ceiling for bit-flip models."""
        widths = [self.widths[s] for m in self.modules for s in m.inputs]
        return min(widths) if widths else MAX_WIDTH

    def validate(self) -> None:
        """Raise :class:`SpecError` on structural problems."""
        if not self.modules:
            raise SpecError("spec has no modules")
        for module in self.modules:
            module.feedback_signal  # noqa: B018 — raises on >1 loop
            for signal in (*module.inputs, *module.outputs):
                if signal not in self.widths:
                    raise SpecError(
                        f"signal {signal!r} of module {module.name!r} has "
                        "no declared width"
                    )
            for i in module.inputs:
                for o in module.outputs:
                    module.mask(i, o)
            if module.period_ms < 1 or self.n_slots % module.period_ms:
                raise SpecError(
                    f"module {module.name!r} period {module.period_ms} does "
                    f"not divide n_slots={self.n_slots}"
                )
            if not 0 <= module.phase < module.period_ms:
                raise SpecError(
                    f"module {module.name!r} phase {module.phase} outside "
                    f"period {module.period_ms}"
                )

    # -- serialisation ------------------------------------------------

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "n_slots": self.n_slots,
            "env_seed": self.env_seed,
            "widths": dict(self.widths),
            "system_inputs": list(self.system_inputs),
            "system_outputs": list(self.system_outputs),
            "error_probabilities": dict(self.error_probabilities),
            "modules": [
                {
                    "name": m.name,
                    "inputs": list(m.inputs),
                    "outputs": list(m.outputs),
                    "masks": {i: dict(per) for i, per in m.masks.items()},
                    "period_ms": m.period_ms,
                    "phase": m.phase,
                    # Only serialized when set, so the content hashes of
                    # pre-existing (fully vectorizable) corpus entries
                    # are unchanged.
                    **({"opaque": True} if m.opaque else {}),
                }
                for m in self.modules
            ],
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "GeneratedSystemSpec":
        try:
            spec = cls(
                name=str(data["name"]),
                seed=int(data["seed"]),
                n_slots=int(data["n_slots"]),
                env_seed=int(data["env_seed"]),
                widths={str(k): int(v) for k, v in data["widths"].items()},
                system_inputs=tuple(data["system_inputs"]),
                system_outputs=tuple(data["system_outputs"]),
                error_probabilities={
                    str(k): float(v)
                    for k, v in data.get("error_probabilities", {}).items()
                },
                modules=tuple(
                    GeneratedModule(
                        name=str(m["name"]),
                        inputs=tuple(m["inputs"]),
                        outputs=tuple(m["outputs"]),
                        masks={
                            str(i): {str(o): int(v) for o, v in per.items()}
                            for i, per in m["masks"].items()
                        },
                        period_ms=int(m.get("period_ms", 1)),
                        phase=int(m.get("phase", 0)),
                        opaque=bool(m.get("opaque", False)),
                    )
                    for m in data["modules"]
                ),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise SpecError(f"malformed generated-system spec: {exc!r}") from exc
        spec.validate()
        return spec


# ---------------------------------------------------------------------------
# Behavioural layer
# ---------------------------------------------------------------------------


class MaskModule(SoftwareModule):
    """XOR-of-masked-inputs behaviour: ``out = XOR_i (in_i & mask)``.

    Stateless by design — feedback, where present, flows through the
    signal store (the module re-reads its own output), so checkpoints
    need not capture anything here.
    """

    def __init__(self, module: GeneratedModule, description: str = "") -> None:
        super().__init__(
            ModuleSpec(
                name=module.name,
                inputs=module.inputs,
                outputs=module.outputs,
                description=description or "generated XOR-mask module",
                period_ms=module.period_ms,
            )
        )
        self._plan = tuple(
            (out, tuple((inp, module.masks[inp][out]) for inp in module.inputs))
            for out in module.outputs
        )

    def activate(self, inputs: Mapping[str, int], now_ms: int) -> Mapping[str, int]:
        produced = {}
        for out, terms in self._plan:
            acc = 0
            for inp, mask in terms:
                acc ^= inputs[inp] & mask
            produced[out] = acc
        return produced

    def vector_plan(self) -> tuple:
        """The mask plan for the batched backend's column kernel.

        Exposing this asserts the module is stateless and its
        ``activate`` is exactly ``out = XOR_i (in_i & mask)`` per the
        returned ``(out, ((in, mask), ...))`` terms.
        """
        return self._plan

    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        pass


class OpaqueMaskModule(MaskModule):
    """A :class:`MaskModule` hidden from the batched vectorizer.

    Behaviourally identical (same masks, same activations, stateless),
    but ``vector_plan`` is absent, so the batched backend must step it
    through the scalar per-lane fallback.  Used by corpus reproducers
    and tests to pin the mixed vectorized/scalar path.
    """

    #: Shadows the parent method with a non-callable: the batched
    #: backend treats the module as non-vectorizable.
    vector_plan = None


class LcgEnvironment:
    """Deterministic stimulus for generated systems.

    Each system input is driven by its own linear congruential
    generator (seeded from ``env_seed`` and the signal name), giving
    uncorrelated but fully reproducible excitation on every frame.
    Telemetry reports a *last-frame* checksum of the system outputs —
    deliberately not cumulative, so an injection run whose error dies
    out reconverges with its Golden Run and the fast-forward strategy
    has something to fast-forward.
    """

    #: The stimulus is a function of the LCG state alone — nothing read
    #: from the signal store influences any write — so this environment
    #: cannot carry an injected error between signals.  Incremental
    #: campaigns (repro.store) may therefore use narrow signal-graph
    #: dependency cones for generated systems.
    SIGNAL_COUPLING = False

    _A = 1103515245
    _C = 12345
    _MASK = 0x7FFFFFFF

    def __init__(
        self,
        env_seed: int,
        inputs: tuple[str, ...],
        outputs: tuple[str, ...],
    ) -> None:
        self._env_seed = env_seed
        self._inputs = tuple(inputs)
        self._outputs = tuple(outputs)
        self._states: dict[str, int] = {}
        self._out_checksum = 0
        self.reset()

    def _initial_state(self, signal: str) -> int:
        raw = f"{self._env_seed}:{signal}".encode()
        return (zlib.crc32(raw) | 1) & self._MASK

    def reset(self) -> None:
        self._states = {s: self._initial_state(s) for s in self._inputs}
        self._out_checksum = 0

    def before_software(self, now_ms: int, store: SignalStore) -> None:
        for signal in self._inputs:
            state = (self._A * self._states[signal] + self._C) & self._MASK
            self._states[signal] = state
            store.write(signal, state >> 7)

    def after_software(self, now_ms: int, store: SignalStore) -> None:
        checksum = 0
        for signal in self._outputs:
            checksum ^= store.read(signal)
        self._out_checksum = checksum

    def telemetry(self) -> dict[str, float]:
        return {"env_out_checksum": float(self._out_checksum)}

    def state_dict(self) -> dict:
        return {"states": dict(self._states), "checksum": self._out_checksum}

    def load_state_dict(self, state: dict) -> None:
        self._states = dict(state["states"])
        self._out_checksum = state["checksum"]

    # -- batched-backend contract (lane-invariant environment) --------

    #: ``before_software`` never reads the store and ``after_software``
    #: derives its state from output values alone, so one shared
    #: instance can drive every lane of a batch.
    lane_invariant = True

    def lane_state_dict(self, values: Mapping[str, int]) -> dict:
        """:meth:`state_dict` as it would read on a lane with ``values``."""
        checksum = 0
        for signal in self._outputs:
            checksum ^= values[signal]
        return {"states": dict(self._states), "checksum": checksum}

    def lane_telemetry(self, values: Mapping[str, int]) -> dict[str, float]:
        """:meth:`telemetry` as it would read on a lane with ``values``."""
        checksum = 0
        for signal in self._outputs:
            checksum ^= values[signal]
        return {"env_out_checksum": float(checksum)}


# ---------------------------------------------------------------------------
# Spec -> executable system
# ---------------------------------------------------------------------------


class GeneratedSystem:
    """A spec plus everything executable derived from it."""

    def __init__(self, spec: GeneratedSystemSpec) -> None:
        spec.validate()
        self.spec = spec

    @cached_property
    def system(self) -> SystemModel:
        """The static topology (validated on first access)."""
        spec = self.spec
        signals = [
            SignalSpec(
                name,
                width=width,
                error_probability=spec.error_probabilities.get(name),
            )
            for name, width in spec.widths.items()
        ]
        return SystemModel(
            name=spec.name,
            modules=[
                ModuleSpec(
                    name=m.name,
                    inputs=m.inputs,
                    outputs=m.outputs,
                    period_ms=m.period_ms,
                )
                for m in spec.modules
            ],
            system_inputs=list(spec.system_inputs),
            system_outputs=list(spec.system_outputs),
            signals=signals,
            description=f"generated system (seed {spec.seed})",
        )

    @property
    def has_feedback(self) -> bool:
        return any(m.feedback_signal for m in self.spec.modules)

    def build_run(self) -> SimulationRun:
        """A fresh executable instance of the generated system."""
        spec = self.spec
        schedule = SlotSchedule(n_slots=spec.n_slots)
        for module in spec.modules:
            schedule.assign_period(module.name, module.period_ms, module.phase)
        return SimulationRun(
            system=self.system,
            modules=[
                (OpaqueMaskModule if m.opaque else MaskModule)(m)
                for m in spec.modules
            ],
            schedule=schedule,
            environment=LcgEnvironment(
                spec.env_seed, spec.system_inputs, spec.system_outputs
            ),
        )

    def run_factory(self, case: object) -> SimulationRun:
        """Campaign-compatible run factory (the case is ignored)."""
        return self.build_run()

    def analytical_matrix(self, n_bits: int) -> PermeabilityMatrix:
        """Exact permeabilities under ``n_bits`` bit-flip models."""
        return analytical_matrix(self.spec, n_bits, system=self.system)


def analytical_matrix(
    spec: GeneratedSystemSpec,
    n_bits: int,
    system: SystemModel | None = None,
) -> PermeabilityMatrix:
    """The *exact* permeability matrix of a generated system.

    Because module behaviour is XOR-of-masked-inputs, a single flipped
    bit ``b`` in input ``i`` reaches output ``o`` iff ``b`` survives the
    direct mask or the (single-step) feedback detour — see the module
    docstring for why higher-order feedback terms are subsets.
    """
    if n_bits < 1:
        raise SpecError("n_bits must be >= 1")
    if n_bits > spec.min_input_width():
        raise SpecError(
            f"n_bits={n_bits} exceeds the narrowest module input "
            f"({spec.min_input_width()} bits)"
        )
    if system is None:
        system = GeneratedSystem(spec).system
    bits = (1 << n_bits) - 1
    matrix = PermeabilityMatrix(system)
    for module in spec.modules:
        fb = module.feedback_signal
        for i in module.inputs:
            for o in module.outputs:
                eff = module.mask(i, o)
                if fb is not None:
                    fb_mask = (1 << spec.widths[fb]) - 1
                    eff |= module.mask(i, fb) & fb_mask & module.mask(fb, o)
                out_mask = (1 << spec.widths[o]) - 1
                survivors = eff & out_mask & bits
                matrix.set(module.name, i, o, bin(survivors).count("1") / n_bits)
    return matrix


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------


def generate_system(seed: int) -> GeneratedSystem:
    """A random executable system, deterministic from ``seed``.

    2–6 modules in a layered DAG; roughly one in three modules carries
    a marked feedback loop; widths vary per signal; periods divide the
    slot count.  The result is lint-clean at error severity by
    construction (every module reachable from a system input, every
    produced signal consumed or exported).
    """
    rng = Random(seed)
    n_slots = rng.choice((1, 2, 4))
    # Floor for signal widths so any n_bits <= 8 stays injectable.
    min_width = 8
    n_modules = rng.randint(2, 6)

    widths: dict[str, int] = {}
    system_inputs: list[str] = []
    error_probabilities: dict[str, float] = {}
    modules: list[GeneratedModule] = []
    available: list[str] = []
    consumed: set[str] = set()
    ext_counter = 0

    def declare(signal: str) -> None:
        widths[signal] = rng.randint(min_width, MAX_WIDTH)

    for index in range(n_modules):
        inputs: list[str] = []
        for _ in range(rng.randint(1, 3)):
            if available and rng.random() < 0.6:
                signal = rng.choice(available)
                if signal in inputs:
                    continue
            else:
                signal = f"ext{ext_counter}"
                ext_counter += 1
                declare(signal)
                system_inputs.append(signal)
                error_probabilities[signal] = round(rng.uniform(0.05, 0.5), 6)
            inputs.append(signal)
        outputs = [f"s{index}_{k}" for k in range(rng.randint(1, 2))]
        for signal in outputs:
            declare(signal)
        feedback = None
        if rng.random() < 0.34:
            feedback = f"s{index}_fb"
            declare(feedback)
            outputs.append(feedback)
            inputs.append(feedback)
        masks: dict[str, dict[str, int]] = {}
        for i in inputs:
            masks[i] = {}
            for o in outputs:
                mask = rng.getrandbits(widths[i])
                # Bias towards interesting propagation in the flip band.
                if rng.random() < 0.75:
                    mask |= 1 << rng.randrange(min_width)
                masks[i][o] = mask
        period = rng.choice([p for p in (1, 2, 4) if n_slots % p == 0])
        modules.append(
            GeneratedModule(
                name=f"M{index}",
                inputs=tuple(inputs),
                outputs=tuple(outputs),
                masks=masks,
                period_ms=period,
                phase=rng.randrange(period),
            )
        )
        consumed.update(inputs)
        available.extend(o for o in outputs if o != feedback)

    produced = [o for m in modules for o in m.outputs]
    unconsumed = [s for s in produced if s not in consumed]
    if not unconsumed:
        unconsumed = [produced[-1]]
    spec = GeneratedSystemSpec(
        name=f"gen-{seed}",
        seed=seed,
        n_slots=n_slots,
        env_seed=rng.getrandbits(32),
        widths=widths,
        system_inputs=tuple(system_inputs),
        system_outputs=tuple(unconsumed),
        modules=tuple(modules),
        error_probabilities=error_probabilities,
    )
    return GeneratedSystem(spec)
