"""Module declarations and the behavioural base class.

Section 3 of the paper: "A module is a generalised black-box having
multiple inputs and outputs. ... A software module performs computations
using the provided inputs to generate the outputs."

Two layers are separated here:

* :class:`ModuleSpec` -- the *static* declaration (name, ordered input
  and output signals, scheduling period).  This is all the propagation
  analysis needs.
* :class:`SoftwareModule` -- the *behavioural* base class executed by
  the runtime simulator.  Concrete modules (e.g. the arrestment
  system's ``CALC``) subclass it and implement either the positional
  entry ``activate_values`` or the mapping entry
  :meth:`SoftwareModule.activate`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from repro.model.errors import DuplicateNameError, SimulationError, UnknownSignalError
from repro.model.ports import InputPort, OutputPort, Port

__all__ = ["ModuleSpec", "SoftwareModule", "BACKGROUND"]

#: Sentinel period for background tasks that run "when other modules are
#: dormant" (the paper's CALC module has "Period = n/a (background task)").
BACKGROUND: None = None


@dataclass(frozen=True)
class ModuleSpec:
    """Static declaration of a software module.

    Parameters
    ----------
    name:
        Unique module name, e.g. ``"CALC"``.
    inputs:
        Ordered tuple of input signal names.  Order defines the paper's
        1-based input numbering (``inputs[0]`` is input #1).
    outputs:
        Ordered tuple of output signal names, numbered likewise.
    description:
        Human-readable documentation.
    period_ms:
        Scheduling period in milliseconds, or ``None`` for a background
        task scheduled whenever no periodic module is due.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    description: str = ""
    period_ms: int | None = field(default=1)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("module name must be non-empty")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        seen: set[str] = set()
        for signal in self.inputs:
            if signal in seen:
                raise DuplicateNameError("input signal", signal)
            seen.add(signal)
        seen.clear()
        for signal in self.outputs:
            if signal in seen:
                raise DuplicateNameError("output signal", signal)
            seen.add(signal)
        if self.period_ms is not None and self.period_ms < 1:
            raise ValueError(
                f"module {self.name!r}: period must be >= 1 ms or None"
            )

    # -- port arithmetic ---------------------------------------------------

    @property
    def n_inputs(self) -> int:
        """Number of inputs (the paper's *m*)."""
        return len(self.inputs)

    @property
    def n_outputs(self) -> int:
        """Number of outputs (the paper's *n*)."""
        return len(self.outputs)

    @property
    def n_pairs(self) -> int:
        """Number of input/output pairs (*m* · *n*), one permeability each."""
        return self.n_inputs * self.n_outputs

    @property
    def is_background(self) -> bool:
        """Whether the module is a background task (no fixed period)."""
        return self.period_ms is BACKGROUND

    def input_index(self, signal: str) -> int:
        """1-based index of an input signal (the paper's *i*)."""
        try:
            return self.inputs.index(signal) + 1
        except ValueError:
            raise UnknownSignalError(
                signal,
                candidates=self.inputs,
                where=f"inputs of module {self.name!r}",
            ) from None

    def output_index(self, signal: str) -> int:
        """1-based index of an output signal (the paper's *k*)."""
        try:
            return self.outputs.index(signal) + 1
        except ValueError:
            raise UnknownSignalError(
                signal,
                candidates=self.outputs,
                where=f"outputs of module {self.name!r}",
            ) from None

    def input_port(self, signal: str) -> Port:
        """The :class:`Port` record for an input signal."""
        return InputPort(self.name, self.input_index(signal), signal)

    def output_port(self, signal: str) -> Port:
        """The :class:`Port` record for an output signal."""
        return OutputPort(self.name, self.output_index(signal), signal)

    def input_ports(self) -> Iterator[Port]:
        """All input ports in declaration order."""
        for index, signal in enumerate(self.inputs, start=1):
            yield InputPort(self.name, index, signal)

    def output_ports(self) -> Iterator[Port]:
        """All output ports in declaration order."""
        for index, signal in enumerate(self.outputs, start=1):
            yield OutputPort(self.name, index, signal)

    def pairs(self) -> Iterator[tuple[str, str]]:
        """All (input signal, output signal) pairs in index order.

        The iteration order matches the paper's Table 1 layout: for each
        input *i*, all outputs *k* in turn.
        """
        for input_signal in self.inputs:
            for output_signal in self.outputs:
                yield (input_signal, output_signal)

    def has_feedback(self) -> bool:
        """Whether any signal is both an input and an output of the module."""
        return bool(set(self.inputs) & set(self.outputs))

    def feedback_signals(self) -> tuple[str, ...]:
        """Signals wired from one of the module's outputs back to its input."""
        inputs = set(self.inputs)
        return tuple(s for s in self.outputs if s in inputs)


class SoftwareModule:
    """Behavioural base class executed by the runtime simulator.

    Concrete modules own arbitrary internal state (reset via
    :meth:`reset`) and define one of two entries, called once per
    scheduled activation with the *raw* (bit-pattern) input values:

    * ``activate_values(*inputs, now_ms)`` -- the positional entry.  It
      receives the inputs in ``spec.inputs`` order followed by the
      current time, and returns a tuple with one value per
      ``spec.outputs`` entry, in that order; ``None`` means "not
      written".  :meth:`activate` is then derived from it, and the
      runtime calls it directly with no per-activation mappings.
    * :meth:`activate` -- the mapping entry: input-signal name to value
      in, output-signal name to value out.

    Outputs not written keep their previous value, which models the
    common embedded pattern of registers holding state between writes.
    A subclass defining neither entry cannot be instantiated.
    """

    #: The positional entry (see the class docstring); subclasses define
    #: it as a method, the base class leaves it undefined.
    activate_values: Callable[..., tuple[int | None, ...]]

    def __init__(self, spec: ModuleSpec) -> None:
        cls = type(self)
        if cls.is_positional() and not hasattr(cls, "activate_values"):
            raise TypeError(
                f"{cls.__name__} defines neither activate() nor activate_values()"
            )
        self._spec = spec

    @classmethod
    def is_positional(cls) -> bool:
        """Whether activations go through ``activate_values``.

        True when :meth:`activate` is the derived one; a subclass that
        overrides :meth:`activate` is executed through its mapping.
        """
        return cls.activate is SoftwareModule.activate

    @property
    def spec(self) -> ModuleSpec:
        """The static declaration of this module."""
        return self._spec

    @property
    def name(self) -> str:
        """The module name (shorthand for ``spec.name``)."""
        return self._spec.name

    def reset(self) -> None:
        """Reset internal state to power-on defaults.

        The default implementation is a no-op; stateful modules override.
        """

    def state_dict(self) -> dict:
        """Snapshot of the module's internal state for checkpoint/restore.

        The default implementation deepcopies every instance attribute
        except the (immutable, shared) ``_spec`` — always correct for
        plain Python state.  Modules with a known small state override
        this with an explicit, cheaper snapshot.
        """
        return copy.deepcopy(
            {key: value for key, value in vars(self).items() if key != "_spec"}
        )

    def load_state_dict(self, state: dict) -> None:
        """Restore internal state captured by :meth:`state_dict`.

        The same snapshot may be restored many times (once per
        checkpointed injection run), so implementations must not alias
        mutable containers out of ``state``.
        """
        for key, value in copy.deepcopy(state).items():
            setattr(self, key, value)

    def activate(self, inputs: Mapping[str, int], now_ms: int) -> Mapping[str, int]:
        """Execute one activation.

        Parameters
        ----------
        inputs:
            Mapping from input-signal name to its current raw value.
            Contains exactly the signals declared in ``spec.inputs``.
        now_ms:
            Current simulated time in milliseconds.

        Returns
        -------
        Mapping from output-signal name to new raw value.  May be a
        subset of ``spec.outputs``; omitted outputs are left unchanged.

        This implementation derives the mapping from ``activate_values``;
        modules without the positional entry override it.
        """
        spec = self._spec
        values = self.activate_values(*[inputs[s] for s in spec.inputs], now_ms)
        try:
            pairs = list(zip(spec.outputs, values, strict=True))
        except (TypeError, ValueError):
            raise self.bad_values_error(values) from None
        return {signal: value for signal, value in pairs if value is not None}

    def bad_values_error(self, values: object) -> SimulationError:
        """The error for an ``activate_values`` result of the wrong shape."""
        return SimulationError(
            f"module {self.name!r} returned {values!r} from activate_values; "
            f"expected a tuple of {self._spec.n_outputs} value(s), one per "
            f"output {self._spec.outputs!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
