"""Content fingerprints for incremental campaigns (docs/INCREMENTAL.md).

The unit of cacheable work is one *target row*: the injection runs of
one ``(test case, module, input signal)`` triple across the campaign's
``injection_times x error_models`` grid, any subset of which a stored
row may hold.  A row's outcomes are fully determined by

* the static system interface (module specs, signal specs — this pins
  the signal graph and the trace layout),
* the constructed runtime: slot schedule, initial store values, trace
  configuration and the environment driving the simulation — the run
  factory itself is *not* hashed, because everything it decides is
  visible in the runner it returns (the repo already relies on
  factories being deterministic: parallel workers rebuild runners from
  the factory and serial/parallel byte-identity is a verified
  contract, so hashing the factory's source would only smear one
  module's edit over every row),
* the workload case,
* the campaign grid subset that shapes the row (duration, instants,
  error models, master seed, fast-forward recording), and
* the *behaviour* of every module the injected error can reach.

That last point needs care.  An error injected at module ``M`` can
only ever *reach* modules in ``M``'s dependency cone (the transitive
consumers of its outputs — any other module reads bit-identical inputs
in the Golden Run and the injection run, so it can never diverge).
But a row's outcomes can still depend on modules *outside* the cone:
they produce the values the error meets on its way, and for a general
module whether a corrupted bit propagates depends on those values
(think of a clamp, or a data-dependent branch).  Hashing only the cone
is therefore sound **iff** the IR-minus-GR delta evolves independently
of the base trajectory, which this builder certifies per target from
four existing repo contracts:

* every module in the cone advertises ``vector_plan()`` — stateless
  ``out = XOR_i (in_i & mask)``, so the delta propagates as
  ``delta & mask`` regardless of the carrier values;
* every error model advertises ``vector_xor_mask(width)`` — the
  injected delta is a constant flip mask, not a function of the value
  it corrupts (stuck-at and offset models are value-dependent);
* the runtime has no data-driven slot dispatch
  (``runner.slot_signal is None``) — the schedule, and hence every
  read/write instant, is value-independent;
* the environment does not couple signals (below).

When any condition fails for a target, its cone silently widens to the
*whole* module set: still sound, still gives full warm-run reuse, but
any module edit dirties the row.  Narrow per-module invalidation is
exactly as precise as the repo's static flow analysis can prove it.

The cone argument assumes errors travel through *signals*.  An
environment that couples signals (reads outputs and feeds them back
into inputs, like the arrestment physics) is an invisible edge between
every pair of modules, so its presence widens every cone to the whole
module set.  Environments whose writes are independent of the store's
contents declare ``SIGNAL_COUPLING = False`` to opt into narrow cones
(see :class:`repro.verify.generators.LcgEnvironment`).

Fingerprints are canonical-JSON digests.  Anything that cannot be
canonicalised deterministically (an attribute holding an arbitrary
object) marks the unit *uncacheable* — the safe direction: it is
re-executed every campaign instead of risking a stale hit.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from typing import Any, Callable, Mapping

from repro.model.system import SystemModel

__all__ = [
    "STORE_SCHEMA_VERSION",
    "UnitKey",
    "UnitKeyBuilder",
    "canonical_json",
    "content_digest",
    "dependency_cone",
    "environment_couples_signals",
]

#: Version of the on-disk artifact schema *and* a component of every
#: unit key: bumping it invalidates every existing store wholesale.
STORE_SCHEMA_VERSION = 1

#: Sentinel returned for values that have no deterministic canonical
#: form; its presence anywhere in a fingerprint poisons the unit.
_OPAQUE = "<opaque>"


def canonical_json(value: Any) -> str:
    """The canonical (sorted-key, compact) JSON text of a value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_digest(value: Any) -> str:
    """SHA-256 hex digest of a value's canonical JSON form."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Canonicalisation of Python state
# ---------------------------------------------------------------------------


#: Recursion bound for nested object state; beyond it a value is opaque.
_MAX_DEPTH = 10


def _stable_value(
    value: Any,
    poisoned: list,
    _seen: frozenset = frozenset(),
    _depth: int = 0,
) -> Any:
    """JSON-able, deterministic form of a piece of instance state.

    Plain data (numbers, strings, containers thereof) canonicalises
    exactly; ordinary objects are recursed through their ``__dict__``
    (tagged with the class qualname, cycle-guarded, depth-bounded) —
    that covers nested plain-state helpers like the arrestment plant's
    :class:`PlantConfig`.  Anything else — a callable, an open handle, a
    ``__slots__`` object — appends to ``poisoned`` and collapses to
    :data:`_OPAQUE`, rendering the enclosing unit uncacheable rather
    than under-fingerprinted.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr round-trips floats exactly and avoids JSON float quirks.
        return ["f", repr(value)]
    if isinstance(value, bytes):
        return ["b", value.hex()]
    if _depth >= _MAX_DEPTH or id(value) in _seen:
        poisoned.append(type(value).__qualname__)
        return _OPAQUE
    seen = _seen | {id(value)}
    if isinstance(value, (list, tuple)):
        return [
            _stable_value(item, poisoned, seen, _depth + 1) for item in value
        ]
    if isinstance(value, (set, frozenset)):
        items = [
            _stable_value(item, poisoned, seen, _depth + 1) for item in value
        ]
        return ["s", sorted(items, key=canonical_json)]
    if isinstance(value, Mapping):
        items = [
            [
                _stable_value(key, poisoned, seen, _depth + 1),
                _stable_value(item, poisoned, seen, _depth + 1),
            ]
            for key, item in value.items()
        ]
        return ["m", sorted(items, key=canonical_json)]
    if isinstance(value, type):
        # A class reference (an Enum, a module class held in state):
        # identity plus source text pins its behaviour.
        return ["t", value.__qualname__, _source_of(value)]
    if callable(value):
        poisoned.append(type(value).__qualname__)
        return _OPAQUE
    try:
        attributes = vars(value)
    except TypeError:  # __slots__ or builtins: no __dict__
        poisoned.append(type(value).__qualname__)
        return _OPAQUE
    return [
        "o",
        type(value).__qualname__,
        {
            name: _stable_value(item, poisoned, seen, _depth + 1)
            for name, item in attributes.items()
        },
    ]


def _instance_state(instance: Any, poisoned: list) -> Any:
    """Stable snapshot of an instance's attributes (``_spec`` excluded)."""
    try:
        attributes = vars(instance)
    except TypeError:  # __slots__ or builtins: no __dict__
        poisoned.append(type(instance).__qualname__)
        return _OPAQUE
    return {
        name: _stable_value(value, poisoned, frozenset({id(instance)}))
        for name, value in attributes.items()
        if name != "_spec"
    }


def _source_of(obj: Any) -> str:
    """Source text of a class/callable, or a stable identity fallback."""
    try:
        return inspect.getsource(obj)
    except (OSError, TypeError):
        return f"{getattr(obj, '__module__', '?')}.{getattr(obj, '__qualname__', repr(obj))}"


# ---------------------------------------------------------------------------
# System topology and reachability
# ---------------------------------------------------------------------------


def _system_fingerprint(system: SystemModel) -> dict:
    """Interface fingerprint: module specs, signal specs, wiring."""
    return {
        "name": system.name,
        "modules": {
            name: {
                "inputs": list(system.module(name).inputs),
                "outputs": list(system.module(name).outputs),
                "period_ms": system.module(name).period_ms,
            }
            for name in system.module_names()
        },
        "signals": {
            name: {
                "width": system.signal(name).width,
                "kind": str(system.signal(name).kind),
                "initial": system.signal(name).initial,
            }
            for name in system.signal_names()
        },
        "system_inputs": list(system.system_inputs),
        "system_outputs": list(system.system_outputs),
    }


def dependency_cone(system: SystemModel, module_name: str) -> tuple[str, ...]:
    """Modules an error injected at ``module_name`` can ever reach.

    The injected module itself plus the transitive consumers of its
    outputs through the signal graph, in system order.  Modules outside
    the cone read bit-identical inputs in GR and IR, so they never
    diverge — but they do shape the values the error meets, so keying
    a row on its cone alone is valid only under the value-independence
    conditions documented in the module docstring (XOR-linear cone,
    pure-XOR error models, static schedule, non-coupling environment).
    """
    cone = {module_name}
    frontier = list(system.module(module_name).outputs)
    seen: set[str] = set()
    while frontier:
        signal = frontier.pop()
        if signal in seen:
            continue
        seen.add(signal)
        for port in system.consumers_of(signal):
            if port.module not in cone:
                cone.add(port.module)
                frontier.extend(system.module(port.module).outputs)
    return tuple(name for name in system.module_names() if name in cone)


def environment_couples_signals(environment: Any) -> bool:
    """Whether the environment can carry errors between signals.

    ``True`` (the conservative default) unless the environment's class
    declares ``SIGNAL_COUPLING = False``, asserting its writes are
    independent of anything it reads from the store — then the signal
    graph alone bounds propagation and dependency cones stay narrow.
    """
    return bool(getattr(type(environment), "SIGNAL_COUPLING", True))


def _is_xor_linear(instance: Any) -> bool:
    """Whether a behavioural instance certifies the ``vector_plan``
    contract (stateless positionwise XOR transfer) — same probe as the
    batched kernel and :func:`repro.flow.analysis.derive_module_flows`.
    """
    plan_fn = getattr(instance, "vector_plan", None)
    if not callable(plan_fn):
        return False
    try:
        return plan_fn() is not None
    except Exception:
        return False


# ---------------------------------------------------------------------------
# The unit key builder
# ---------------------------------------------------------------------------


class UnitKey:
    """One computed unit key: the digest plus its cacheability verdict."""

    __slots__ = ("digest", "opaque")

    def __init__(self, digest: str, opaque: tuple[str, ...] = ()) -> None:
        self.digest = digest
        self.opaque = opaque

    @property
    def cacheable(self) -> bool:
        """``False`` when opaque state poisoned the fingerprint."""
        return not self.opaque


class UnitKeyBuilder:
    """Computes unit keys for one campaign's grid.

    Campaign-wide components (system interface, error models, config
    subset) are fingerprinted once; per-case components (case state,
    schedule, module implementations, environment, trace layout) are
    fingerprinted from one probe runtime per case — built by the
    factory but never run, so a fully-cached campaign costs factory
    calls, not simulation.  The probe runner stands in for the factory
    itself (see the module docstring), which assumes the factory is
    deterministic — the same assumption the parallel executor already
    makes when workers rebuild runners from it.

    The config subset deliberately *excludes* ``backend`` and
    ``reuse_golden_prefix``: byte-identity across execution strategies
    and simulation backends is the repo's verified contract
    (``repro verify``'s ``strategy-identity`` oracle), so results
    recorded under one strategy are valid under all.  ``fast_forward``
    *is* included because it changes what the outcome records contain
    (reconvergence instants and spliced-frame counts).
    """

    def __init__(self, system: SystemModel, run_factory: Callable, config) -> None:
        from repro import __version__

        self._system = system
        self._run_factory = run_factory
        self._models = tuple(config.error_models)
        poisoned_base: list = []
        self._base = {
            "store_schema": STORE_SCHEMA_VERSION,
            "package": __version__,
            "system": _system_fingerprint(system),
            "config": {
                "duration_ms": config.duration_ms,
                "injection_times_ms": list(config.injection_times_ms),
                "error_models": [
                    {
                        "name": model.name,
                        "source": _source_of(type(model)),
                        "state": _instance_state(model, poisoned_base),
                    }
                    for model in self._models
                ],
                "seed": config.seed,
                "fast_forward": config.fast_forward,
            },
        }
        self._base_opaque = tuple(sorted(set(poisoned_base)))
        self._cones: dict[str, tuple[str, ...]] = {}
        self._pure_xor_widths: dict[int, bool] = {}

    def _cone(self, module_name: str) -> tuple[str, ...]:
        cone = self._cones.get(module_name)
        if cone is None:
            cone = dependency_cone(self._system, module_name)
            self._cones[module_name] = cone
        return cone

    def _models_pure_xor(self, width: int) -> bool:
        """Whether every error model injects a constant flip mask.

        Same probe as the batched kernel and the flow analysis: only
        models advertising a non-``None`` ``vector_xor_mask`` corrupt
        independently of the value they hit.
        """
        known = self._pure_xor_widths.get(width)
        if known is None:
            known = all(
                callable(getattr(model, "vector_xor_mask", None))
                and model.vector_xor_mask(width) is not None
                for model in self._models
            )
            self._pure_xor_widths[width] = known
        return known

    def keys_for_case(
        self,
        case_id: str,
        case: Any,
        targets: tuple[tuple[str, str], ...],
    ) -> dict[tuple[str, str], UnitKey]:
        """Unit keys of every target row of one test case.

        Builds (but never runs) one probe runtime to fingerprint the
        case's behavioural module instances and environment.
        """
        runner = self._run_factory(case)
        poisoned_case: list = []
        case_part = {
            "id": case_id,
            "type": type(case).__qualname__ if case is not None else None,
            "state": _stable_value(case, poisoned_case)
            if case is None or isinstance(case, (bool, int, float, str, bytes))
            else _instance_state(case, poisoned_case),
            "initials": dict(runner.store.initial_values()),
            "trace_signals": list(runner.trace_signals),
            "slot_signal": runner.slot_signal,
            "schedule": _stable_value(runner.schedule, poisoned_case),
        }
        environment = runner.environment
        poisoned_env: list = []
        env_part = {
            "type": type(environment).__qualname__,
            "source": _source_of(type(environment)),
            "couples": environment_couples_signals(environment),
            "state": _instance_state(environment, poisoned_env),
        }
        couples = environment_couples_signals(environment)
        static_schedule = runner.slot_signal is None
        module_parts: dict[str, tuple[Any, tuple[str, ...]]] = {}
        xor_linear: dict[str, bool] = {}
        for name, instance in runner.modules.items():
            poisoned_mod: list = []
            part = {
                "type": type(instance).__qualname__,
                "source": _source_of(type(instance)),
                "state": _instance_state(instance, poisoned_mod),
            }
            module_parts[name] = (part, tuple(sorted(set(poisoned_mod))))
            xor_linear[name] = _is_xor_linear(instance)
        keys: dict[tuple[str, str], UnitKey] = {}
        shared_opaque = tuple(
            sorted({*self._base_opaque, *poisoned_case, *poisoned_env})
        )
        all_modules = self._system.module_names()
        for module, signal in targets:
            cone = self._cone(module)
            # Narrow cones are sound only when the delta's journey is
            # value-independent (module docstring); otherwise modules
            # outside the cone shape the outcomes and must be keyed.
            narrow = (
                not couples
                and static_schedule
                and self._models_pure_xor(self._system.signal(signal).width)
                and all(xor_linear[name] for name in cone)
            )
            if not narrow:
                cone = all_modules
            opaque = set(shared_opaque)
            cone_fp = {}
            for name in cone:
                part, poisoned = module_parts[name]
                cone_fp[name] = part
                opaque.update(poisoned)
            digest = content_digest(
                {
                    **self._base,
                    "case": case_part,
                    "environment": env_part,
                    "target": {"module": module, "signal": signal},
                    "cone": cone_fp,
                }
            )
            keys[(module, signal)] = UnitKey(digest, tuple(sorted(opaque)))
        return keys
