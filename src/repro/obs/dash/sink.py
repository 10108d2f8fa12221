"""DashboardSink: serve one event fold and tee the stream to subscribers.

A :class:`DashboardSink` plugs into a
:class:`~repro.obs.observer.CampaignObserver`'s sink chain (next to the
``JsonlSink`` writing ``events.jsonl``).  It serves a
:class:`~repro.obs.dash.reducer.CampaignStateReducer`'s snapshot
(``GET /api/snapshot``) and fans every envelope out to any number of
SSE subscriber queues (``GET /api/events``).

Live, the fold it serves is the observer's own
(:attr:`~repro.obs.observer.CampaignObserver.state`):
:meth:`CampaignObserver.to_files
<repro.obs.observer.CampaignObserver.to_files>` hands it to
:meth:`DashboardSink.serve`, and the observer folds each typed event
once, under the sink's lock.  A sink that serves no one else's fold
folds the envelopes itself, which is how ``repro dash --events``
replays a recorded file.  Both the serial and the parallel campaign
path are covered for free: every event goes through
:meth:`~repro.obs.observer.CampaignObserver.emit` in the campaign's
own process (pool workers emit nothing; the parent narrates their
runs), so a sink attached to that observer sees every event.

Everything is guarded by one lock — the campaign thread emits and
folds while HTTP server threads snapshot and subscribe concurrently.
"""

from __future__ import annotations

import json
import queue
import threading

from repro.obs.dash.reducer import CampaignStateReducer

__all__ = ["DashboardSink"]

#: Sentinel put on subscriber queues when the sink closes.
_CLOSED = None


class DashboardSink:
    """Event sink feeding a state reducer and live SSE subscribers."""

    def __init__(self, reducer: CampaignStateReducer | None = None) -> None:
        self._reducer = reducer if reducer is not None else CampaignStateReducer()
        #: Whether :meth:`emit` folds envelopes (off once :meth:`serve`
        #: hands the sink a fold its owner feeds).
        self._folds = True
        self._lock = threading.Lock()
        self._history: list[dict] = []
        self._subscribers: list[queue.SimpleQueue] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Sink protocol
    # ------------------------------------------------------------------

    def serve(self, reducer: CampaignStateReducer) -> threading.Lock:
        """Serve ``reducer``, which its owner folds, instead of folding.

        Returns the sink's lock: the owner holds it while folding, so
        a snapshot never sees half an event.
        """
        with self._lock:
            self._reducer = reducer
            self._folds = False
        return self._lock

    def emit(self, record: dict) -> None:
        with self._lock:
            if self._folds:
                try:
                    self._reducer.feed(record)
                except (ValueError, KeyError):
                    # A malformed envelope must not kill the campaign;
                    # the reducer tracks the damage for the snapshot.
                    self._reducer.skipped_lines += 1
            self._history.append(record)
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber.put(record)

    def emit_line(self, line: str) -> None:
        """Emit one raw JSONL line (the ``repro dash`` replay path).

        Undecodable lines — a torn tail from a crashed campaign, or a
        write caught mid-flush while tailing — are counted as damage on
        the reducer and otherwise ignored.
        """
        line = line.strip()
        if not line:
            return
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            with self._lock:
                self._reducer.skipped_lines += 1
            return
        if not isinstance(record, dict):
            with self._lock:
                self._reducer.skipped_lines += 1
            return
        self.emit(record)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber.put(_CLOSED)

    # ------------------------------------------------------------------
    # Server-side access
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def snapshot(self) -> dict:
        """The reducer's current snapshot (thread-safe)."""
        with self._lock:
            return self._reducer.snapshot()

    def subscribe(self) -> tuple[list[dict], "queue.SimpleQueue"]:
        """Register an SSE consumer: replay history, then tail.

        Returns ``(history, live_queue)`` atomically: every envelope is
        either in the returned history list or will arrive on the
        queue, never both, never neither.  The queue yields envelope
        dicts and a ``None`` sentinel once the sink closes.
        """
        subscriber: queue.SimpleQueue = queue.SimpleQueue()
        with self._lock:
            history = list(self._history)
            if self._closed:
                subscriber.put(_CLOSED)
            else:
                self._subscribers.append(subscriber)
        return history, subscriber

    def unsubscribe(self, subscriber: "queue.SimpleQueue") -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass
