"""Sequential-stopping controller for adaptive injection campaigns.

The exhaustive campaign spends ``cases x times x models`` injection
runs on *every* (module, input) target, no matter how quickly its
per-arc estimates tighten.  The adaptive controller instead runs the
grid in *rounds*:

1. each round, ``round_size`` trials are handed out one at a time to
   the open target with the widest *projected* Wilson half-width (the
   half-width it would still have after the trials already handed out
   this round); ties go to the earlier target, so a round in which
   every target is equally ignorant is round-robin;
2. a target's trials are drawn (without replacement) from its own
   deterministically shuffled pool of the full exhaustive grid, so any
   prefix is a simple random sample of the grid;
3. after the round's outcomes are folded into live per-arc counts, a
   target *retires* once the widest Wilson interval across its output
   arcs has half-width below ``ci_width`` — or its pool runs dry.

The controller is engine-agnostic: trials are opaque tokens (the
campaign uses ``(case_id, time_ms, model_index)`` triples), and the
uncertainty measurements come in from outside via
:meth:`AdaptiveController.complete_round`.  This keeps the stopping
logic unit-testable without a simulator.

Soundness sketch (docs/ADAPTIVE.md has the full argument): per-run
seeds are derived from the run's grid coordinates, not execution order,
so the sampled outcomes are *identical* to the exhaustive campaign's at
the same coordinates; the shuffled pool makes each target's achieved
trial set a uniform random subset of the exhaustive grid, for which the
Wilson interval at the achieved counts is a (finite-population
conservative) confidence interval around the exhaustive proportion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generic, Mapping, Sequence, TypeVar

from repro.core.stats import wilson_interval

__all__ = [
    "AdaptiveController",
    "RetiredTarget",
    "TargetMeasurement",
    "projected_half_width",
]

TrialT = TypeVar("TrialT")

#: Retirement reasons, in the order they are checked.
REASON_CONFIDENCE = "confidence"
REASON_EXHAUSTED = "exhausted"


def projected_half_width(
    point_estimate: float, n_trials: int, z: float = 1.96
) -> float:
    """Wilson half-width a target would have after ``n_trials`` trials.

    Holds the point estimate fixed and rescales the counts — the
    allocator's look-ahead for "how much would one more trial shrink
    this target".  With no trials there is no information: the
    half-width is the full-uncertainty 0.5.
    """
    if n_trials <= 0:
        return 0.5
    lo, hi = wilson_interval(point_estimate * n_trials, n_trials, z)
    return (hi - lo) / 2.0


@dataclass(frozen=True)
class TargetMeasurement:
    """One open target's uncertainty after a round, measured externally.

    ``half_width`` is the maximum Wilson half-width across the target's
    output arcs; ``point_estimate`` the observed permeability of that
    widest arc (feeds the allocator's projection).
    """

    half_width: float
    point_estimate: float


@dataclass(frozen=True)
class RetiredTarget:
    """The stopping record of one retired (module, input) target."""

    module: str
    signal: str
    n_trials: int
    half_width: float
    reason: str
    round_index: int


class AdaptiveController(Generic[TrialT]):
    """Round-based sequential stopping over a set of injection targets.

    Parameters
    ----------
    pools:
        Per-target trial pools in canonical grid order (the controller
        shuffles a copy; the caller's sequences are not mutated).  A
        target's pool is the only cap on its trials.
    ci_width:
        Retire a target once its widest arc's Wilson half-width drops
        below this (requires at least one trial, so every target always
        contributes to the estimate matrix).
    round_size:
        Trials handed out per round.
    seed:
        Campaign master seed; each target's pool shuffle is seeded from
        it plus the target identity, so schedules are reproducible and
        independent of target enumeration order.
    z:
        Normal quantile of the interval (1.96: 95%).
    """

    def __init__(
        self,
        pools: Mapping[tuple[str, str], Sequence[TrialT]],
        *,
        ci_width: float,
        round_size: int,
        seed: int = 0,
        z: float = 1.96,
    ) -> None:
        if not 0.0 < ci_width < 0.5:
            raise ValueError(
                f"ci_width must lie in (0, 0.5), got {ci_width} "
                "(0.5 is the half-width of total ignorance)"
            )
        if round_size < 1:
            raise ValueError(f"round_size must be >= 1, got {round_size}")
        self._ci_width = ci_width
        self._round_size = round_size
        self._z = z
        self._pools: dict[tuple[str, str], list[TrialT]] = {}
        for key, pool in pools.items():
            if not pool:
                raise ValueError(f"target {key} has an empty trial pool")
            shuffled = list(pool)
            # Seed from the target identity, not enumeration order, so
            # the schedule survives target-set changes (e.g. pruning).
            random.Random(f"{seed}|adaptive|{key[0]}|{key[1]}").shuffle(
                shuffled
            )
            self._pools[key] = shuffled
        self._taken: dict[tuple[str, str], int] = dict.fromkeys(self._pools, 0)
        self._measure: dict[tuple[str, str], TargetMeasurement] = {
            key: TargetMeasurement(half_width=0.5, point_estimate=0.5)
            for key in self._pools
        }
        self._retired: dict[tuple[str, str], RetiredTarget] = {}
        self._round_index = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def round_index(self) -> int:
        """Completed rounds so far."""
        return self._round_index

    def open_targets(self) -> tuple[tuple[str, str], ...]:
        """Targets still accumulating trials, in canonical order."""
        return tuple(key for key in self._pools if key not in self._retired)

    def retired(self) -> tuple[RetiredTarget, ...]:
        """Stopping records of every retired target, in retirement order."""
        return tuple(self._retired.values())

    @property
    def finished(self) -> bool:
        return len(self._retired) == len(self._pools)

    def n_taken(self, key: tuple[str, str]) -> int:
        """Trials scheduled so far for one target."""
        return self._taken[key]

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------

    def next_round(self) -> dict[tuple[str, str], list[TrialT]]:
        """Schedule the next round: target -> trials, in target order.

        Hands out ``min(round_size, remaining pool)`` trials one at a
        time, each to the open target with the widest projected
        half-width that still has pool left (ties: the earlier target).
        Trials come off each target's shuffled pool in order, so a
        target's accumulated trials are always a prefix of its own
        deterministic permutation of the exhaustive grid.
        """
        open_keys = self.open_targets()
        counts = {key: self._taken[key] for key in open_keys}
        widths = {
            key: projected_half_width(
                self._measure[key].point_estimate, counts[key], self._z
            )
            for key in open_keys
        }
        budget = min(
            self._round_size,
            sum(len(self._pools[key]) - counts[key] for key in open_keys),
        )
        for _ in range(budget):
            best = None
            for key in open_keys:
                if counts[key] < len(self._pools[key]) and (
                    best is None or widths[key] > widths[best]
                ):
                    best = key
            counts[best] += 1
            widths[best] = projected_half_width(
                self._measure[best].point_estimate, counts[best], self._z
            )
        schedule: dict[tuple[str, str], list[TrialT]] = {}
        for key in open_keys:
            taken = self._taken[key]
            if counts[key] > taken:
                schedule[key] = self._pools[key][taken : counts[key]]
                self._taken[key] = counts[key]
        return schedule

    def complete_round(
        self, measurements: Mapping[tuple[str, str], TargetMeasurement]
    ) -> list[RetiredTarget]:
        """Fold the round's measurements; retire targets; return retirees.

        ``measurements`` must cover every open target.  Retirement
        checks confidence first, then pool exhaustion — so a retiree's
        ``reason`` tells whether the requested confidence was reached.
        """
        retirees: list[RetiredTarget] = []
        for key in self.open_targets():
            self._measure[key] = measurements[key]
        self._round_index += 1
        for key in self.open_targets():
            measurement = self._measure[key]
            taken = self._taken[key]
            if taken >= 1 and measurement.half_width < self._ci_width:
                reason = REASON_CONFIDENCE
            elif taken >= len(self._pools[key]):
                reason = REASON_EXHAUSTED
            else:
                continue
            record = RetiredTarget(
                module=key[0],
                signal=key[1],
                n_trials=taken,
                half_width=measurement.half_width,
                reason=reason,
                round_index=self._round_index,
            )
            self._retired[key] = record
            retirees.append(record)
        return retirees
