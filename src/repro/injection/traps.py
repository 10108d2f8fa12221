"""Software traps: the SWIFI instrumentation points.

"For logging and injection, the target system was instrumented with
high-level software traps.  As a trap is reached during execution, an
error is injected and/or data logged" (Section 7.3).

The trap is :class:`InputInjectionTrap`, on the runtime's one hook
point: it corrupts the value a *specific module* reads from a
*specific input signal*, leaving the stored signal (and every other
consumer) untouched — "injecting errors in the input signals of the
module and logging its output signals" (Section 6).  It fires exactly
once, at the first matching read at or after its scheduled time
("although only at one time in each IR", Section 7.3); after firing it
is inert, and it records when and what it changed.
"""

from __future__ import annotations

import random

from repro.injection.error_models import ErrorModel
from repro.model.system import SystemModel

__all__ = ["InputInjectionTrap"]


class InputInjectionTrap:
    """One-shot consumer-scoped injection on a module input read.

    Implements the :class:`repro.simulation.runtime.ReadInterceptor`
    protocol.

    Parameters
    ----------
    module, signal:
        The module input to corrupt.
    time_ms:
        Earliest millisecond at which to fire; the trap triggers on the
        first matching read at or after this time.
    error_model:
        The corruption to apply.
    width:
        Bit width of the signal (for the error model).
    seed:
        Seed for the trap-local RNG used by stochastic error models.
    """

    def __init__(
        self,
        module: str,
        signal: str,
        time_ms: int,
        error_model: ErrorModel,
        width: int = 16,
        seed: int = 0,
    ) -> None:
        if time_ms < 0:
            raise ValueError(f"time_ms must be >= 0, got {time_ms}")
        self.module = module
        self.signal = signal
        self.time_ms = time_ms
        self.error_model = error_model
        self.width = width
        self._rng = random.Random(seed)
        self.fired_at_ms: int | None = None
        self.original_value: int | None = None
        self.injected_value: int | None = None

    @property
    def fired(self) -> bool:
        """Whether the trap has triggered."""
        return self.fired_at_ms is not None

    def on_read(self, module: str, signal: str, value: int, now_ms: int) -> int:
        """ReadInterceptor hook: corrupt the first matching read."""
        if self.fired:
            return value
        if module != self.module or signal != self.signal or now_ms < self.time_ms:
            return value
        corrupted = self.error_model.apply(value, self.width, self._rng)
        self.fired_at_ms = now_ms
        self.original_value = value
        self.injected_value = corrupted
        return corrupted

    @classmethod
    def for_system(
        cls,
        system: SystemModel,
        module: str,
        signal: str,
        time_ms: int,
        error_model: ErrorModel,
        seed: int = 0,
    ) -> "InputInjectionTrap":
        """Build a trap with the width taken from the system's signal spec."""
        spec = system.module(module)
        spec.input_index(signal)  # validates the signal is an input
        return cls(
            module=module,
            signal=signal,
            time_ms=time_ms,
            error_model=error_model,
            width=system.signal(signal).width,
            seed=seed,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"fired@{self.fired_at_ms}" if self.fired else "armed"
        return (
            f"<InputInjectionTrap {self.module}.{self.signal} "
            f"t>={self.time_ms} {self.error_model.name} {state}>"
        )
