"""Checkpoint state capture: the ``Snapshotable`` protocol.

Every injection run of a campaign is bit-identical to its Golden Run up
to the injection instant (exactly one one-shot trap fires at a known
time, and everything executes in simulated time).  The campaign engine
therefore records the complete runtime state at each injection instant
during the Golden Run and replays only the *suffix* of every injection
run — the compositional-reuse idea of FastFlip applied to this
simulator.

For that to be sound, state capture must be *complete*: signal store,
simulated clock, environment/plant physics and every module's internal
state.  Objects participate through two small methods:

* ``state_dict()`` returns a picklable snapshot of all mutable state;
* ``load_state_dict(state)`` restores exactly that state without
  aliasing mutable containers into the snapshot (the same snapshot is
  restored once per injection run).

Objects that do not implement the protocol fall back to a ``deepcopy``
of their instance ``__dict__`` — always correct for plain Python
state, just slower and potentially larger than an explicit snapshot.

Beyond full checkpoints, the module also provides compact per-frame
*state digests* (:func:`state_digest`, :class:`FrameDigests`): a short
cryptographic fingerprint of the complete runtime state at a frame
boundary.  The Golden Run records one digest per simulated millisecond;
an injection run that believes its error has died out proves it by
matching its own digest against the Golden Run's at the same instant —
the reconvergence test of the fast-forward optimisation (see
:meth:`repro.simulation.runtime.SimulationRun.run_from`).  Digests are
computed by pickling the state payload with a pinned protocol and no
memo, so two processes holding equal state produce bit-identical
digests however that state's objects are shared.
"""

from __future__ import annotations

import copy
import hashlib
import io
import pickle
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

__all__ = [
    "Snapshotable",
    "snapshot_state",
    "restore_state",
    "digest_payload",
    "state_digest",
    "FrameDigests",
    "DIGEST_SIZE",
]

#: Bytes per state digest (blake2b is tunable; 16 bytes keep a full
#: 8-second Golden Run's digest track at 128 KiB).
DIGEST_SIZE = 16

#: Pickle protocol pinned for digest computation.  The digest of a
#: state must be stable across processes (parent records, workers
#: verify), so the serialisation format cannot float with the
#: interpreter's default.
_DIGEST_PICKLE_PROTOCOL = 4


@runtime_checkable
class Snapshotable(Protocol):
    """State capture/restore protocol for checkpointable objects."""

    def state_dict(self) -> dict[str, Any]:
        """A picklable snapshot of all mutable state."""

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore the state captured by :meth:`state_dict`.

        Must not alias mutable containers out of ``state``: the same
        snapshot may be restored many times.
        """


def snapshot_state(obj: Any) -> dict[str, Any]:
    """Capture ``obj``'s state via the protocol or the deepcopy fallback."""
    method = getattr(obj, "state_dict", None)
    if callable(method):
        return method()
    return copy.deepcopy(vars(obj))


def restore_state(obj: Any, state: dict[str, Any]) -> None:
    """Restore state captured by :func:`snapshot_state`."""
    method = getattr(obj, "load_state_dict", None)
    if callable(method):
        method(state)
        return
    obj.__dict__.clear()
    obj.__dict__.update(copy.deepcopy(state))


def digest_payload(obj: Any) -> Any:
    """``obj``'s state for digestion, *without* defensive copies.

    Unlike :func:`snapshot_state` the result is consumed immediately
    (pickled into a digest) and never stored, so the deepcopy fallback
    is unnecessary — the live ``__dict__`` is pickled as-is.
    """
    method = getattr(obj, "state_dict", None)
    if callable(method):
        return method()
    return vars(obj)


def state_digest(payload: Any) -> bytes:
    """A :data:`DIGEST_SIZE`-byte fingerprint of a state payload.

    Determinism contract: equal payloads (same values, same dict
    insertion orders — which checkpoint restore preserves) digest to
    equal bytes in any process, because the pickle protocol is pinned.
    The payload must be acyclic: without a memo, pickle refuses cycles.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=_DIGEST_PICKLE_PROTOCOL)
    # No memo: with it, two references to one object pickle differently
    # from two equal objects, so a state restored from a pickled
    # checkpoint would never digest equal to the Golden Run's.
    pickler.fast = True
    pickler.dump(payload)
    return hashlib.blake2b(
        buffer.getbuffer(), digest_size=DIGEST_SIZE
    ).digest()


@dataclass(frozen=True)
class FrameDigests:
    """Per-frame state digests of one run, packed into a single buffer.

    ``at(t)`` is the digest of the complete runtime state at the end of
    millisecond ``t`` (i.e. after frame ``t`` executed).  The packed
    ``bytes`` form is cheap to pickle once per campaign and to ship to
    worker processes.
    """

    data: bytes
    size: int = DIGEST_SIZE

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"digest size must be >= 1, got {self.size}")
        if len(self.data) % self.size:
            raise ValueError(
                f"digest buffer of {len(self.data)} bytes is not a "
                f"multiple of the digest size {self.size}"
            )

    def __len__(self) -> int:
        """Number of frames with a recorded digest."""
        return len(self.data) // self.size

    def at(self, frame: int) -> bytes:
        """The digest of frame ``frame`` (0-based)."""
        if not 0 <= frame < len(self):
            raise IndexError(
                f"no digest for frame {frame} (have {len(self)})"
            )
        start = frame * self.size
        return self.data[start : start + self.size]

    @classmethod
    def join(cls, digests: list[bytes], size: int = DIGEST_SIZE) -> "FrameDigests":
        """Pack per-frame digests (in frame order) into one buffer."""
        return cls(data=b"".join(digests), size=size)
