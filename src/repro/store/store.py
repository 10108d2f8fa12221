"""Content-addressed on-disk store for campaign result artifacts.

One artifact per unit key (see :mod:`repro.store.fingerprints`), laid
out ``<root>/units/<key[:2]>/<key>.json`` so directories stay small.
Each file wraps its payload with the schema version, the key it claims
to answer, and a SHA-256 digest of the payload's canonical JSON:

.. code-block:: json

    {"schema": 1, "key": "ab12…", "digest": "…", "payload": {…}}

Reads are *tolerant*: a missing, truncated, unparseable or
wrong-schema file is simply a miss (the unit re-runs), in the same
spirit as ``tail_lines`` skipping a torn trailing line.  A file that
parses but whose digest or key does not match what it claims is
actively *rejected* — reported through ``on_reject`` so the observer
can emit a warning event — because it means corruption survived the
JSON parse and silence would be indistinguishable from a clean miss.

Writes are atomic: payloads land in a same-directory temp file first
and are published with :func:`os.replace`, so concurrent writers of
the same key cannot interleave bytes — last writer wins with a
complete artifact, and readers never observe a partial file.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.store.fingerprints import STORE_SCHEMA_VERSION, canonical_json, content_digest

__all__ = ["ArtifactRecord", "ResultStore", "StoreStats"]


@dataclass
class StoreStats:
    """Counters for one campaign's store traffic."""

    hits: int = 0
    misses: int = 0
    rejected: int = 0
    runs_reused: int = 0
    runs_executed: int = 0
    uncacheable: int = 0

    def to_jsonable(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rejected": self.rejected,
            "runs_reused": self.runs_reused,
            "runs_executed": self.runs_executed,
            "uncacheable": self.uncacheable,
        }


@dataclass(frozen=True)
class ArtifactRecord:
    """One artifact as seen by ``repro store ls|gc|verify``."""

    path: Path
    key: str | None
    ok: bool
    reason: str | None
    payload: dict | None
    mtime: float


class ResultStore:
    """Content-addressed JSON artifact store under one root directory."""

    _tmp_serial = itertools.count()

    def __init__(
        self,
        root: str | os.PathLike,
        on_reject: Callable[[str, str, str], None] | None = None,
    ) -> None:
        self._root = Path(root)
        self._on_reject = on_reject

    @property
    def root(self) -> Path:
        return self._root

    def path_for(self, key: str) -> Path:
        return self._root / "units" / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def fetch(self, key: str) -> dict | None:
        """The payload stored under ``key``, or ``None`` on any miss.

        Corruption that survives the JSON parse (digest or key
        mismatch, wrong schema shape) is rejected through the
        ``on_reject`` callback and still returns ``None`` — the caller
        re-runs the unit either way.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            wrapper = json.loads(text)
        except ValueError:
            # Torn or truncated write from a pre-atomic tool: a miss.
            return None
        reason = self._validate(key, wrapper)
        if reason is not None:
            if self._on_reject is not None:
                self._on_reject(key, str(path), reason)
            return None
        return wrapper["payload"]

    @staticmethod
    def _validate(key: str, wrapper: Any) -> str | None:
        """Why a parsed wrapper cannot answer ``key`` (None when it can)."""
        if not isinstance(wrapper, dict):
            return "artifact root is not an object"
        if wrapper.get("schema") != STORE_SCHEMA_VERSION:
            return f"schema {wrapper.get('schema')!r} != {STORE_SCHEMA_VERSION}"
        if wrapper.get("key") != key:
            return "stored key does not match requested key"
        payload = wrapper.get("payload")
        if not isinstance(payload, dict):
            return "payload is not an object"
        if wrapper.get("digest") != content_digest(payload):
            return "payload digest mismatch"
        return None

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def put(self, key: str, payload: dict) -> Path:
        """Atomically publish ``payload`` under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        wrapper = {
            "schema": STORE_SCHEMA_VERSION,
            "key": key,
            "digest": content_digest(payload),
            "payload": payload,
        }
        # The temp name must be unique per *call*, not per process:
        # concurrent threads publishing the same key would otherwise
        # rename each other's temp file out from underneath os.replace.
        tmp = path.parent / (
            f".{key}.{os.getpid()}.{threading.get_ident()}"
            f".{next(self._tmp_serial)}.tmp"
        )
        tmp.write_text(canonical_json(wrapper), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def contains(self, key: str) -> bool:
        """Whether a *valid* artifact for ``key`` is present (silent)."""
        path = self.path_for(key)
        try:
            wrapper = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return False
        return self._validate(key, wrapper) is None

    # ------------------------------------------------------------------
    # Maintenance (repro store ls|gc|verify)
    # ------------------------------------------------------------------

    def iter_artifacts(self) -> Iterator[ArtifactRecord]:
        """Every ``*.json`` file under the store, validated in place."""
        units = self._root / "units"
        if not units.is_dir():
            return
        for path in sorted(units.glob("*/*.json")):
            try:
                mtime = path.stat().st_mtime
                wrapper = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                yield ArtifactRecord(path, None, False, f"unreadable: {exc}", None, 0.0)
                continue
            key = wrapper.get("key") if isinstance(wrapper, dict) else None
            claimed = key if isinstance(key, str) else path.stem
            reason = self._validate(claimed, wrapper)
            if reason is None and path.stem != claimed:
                reason = "filename does not match stored key"
            yield ArtifactRecord(
                path=path,
                key=claimed if isinstance(claimed, str) else None,
                ok=reason is None,
                reason=reason,
                payload=wrapper.get("payload") if isinstance(wrapper, dict) else None,
                mtime=mtime,
            )

    def gc(self, max_age_days: float | None = None, now: float | None = None) -> list[Path]:
        """Delete invalid and dead artifacts, plus live ones older than the cap.

        An artifact is dead when its payload ``kind`` is not ``"unit"``,
        the one kind campaigns read: the retired ``"adaptive-unit"`` and
        ``"pruned"`` records of older stores.  Returns the deleted
        paths.  Leftover temp files from crashed writers are always
        collected.
        """
        if now is None:
            now = time.time()
        removed: list[Path] = []
        units = self._root / "units"
        if units.is_dir():
            for tmp in units.glob("*/.*.tmp"):
                tmp.unlink(missing_ok=True)
                removed.append(tmp)
        for record in self.iter_artifacts():
            expired = (
                max_age_days is not None
                and now - record.mtime > max_age_days * 86400.0
            )
            dead = record.ok and record.payload.get("kind") != "unit"
            if not record.ok or dead or expired:
                record.path.unlink(missing_ok=True)
                removed.append(record.path)
        return removed
