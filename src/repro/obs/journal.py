"""Bounded journal of structured operational events — the flight recorder.

Counters say *how often* something happened; the journal says *what happened,
in what order, right before the incident*: shard respawns, reshard phase
transitions, webhook circuit-breaker trips, WAL segment rotations, worker
timeout kills, slow-flush threshold breaches.  Events live in a bounded
in-memory ring (queryable via the server's ``events`` wire op) and can be
mirrored to a JSON-lines file so the record survives the process.

:meth:`EventJournal.record` is thread-safe — the webhook sink's delivery
thread trips its breaker off the hub's event loop — and never raises: a
failed JSONL mirror write is counted (``n_mirror_failures``), not allowed to
take down the operational path that was being journaled.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Union

from repro.exceptions import ConfigurationError

__all__ = ["EventJournal", "check_limit"]


def check_limit(limit: Optional[int]) -> None:
    """Reject a result ``limit`` below 1 (``None`` means no limit).

    ``events[-0:]`` is the whole list, so a zero limit would silently
    return everything instead of nothing.
    """
    if limit is not None and limit < 1:
        raise ConfigurationError(f"limit must be >= 1, got {limit}")


class EventJournal:
    """Thread-safe bounded ring of ``{"ts", "kind", ...}`` event dicts.

    Parameters
    ----------
    capacity:
        Maximum retained events; older ones fall off (the JSONL mirror, if
        any, keeps the full history).
    jsonl_path:
        Optional JSON-lines mirror file, opened in append mode and flushed
        per event so a ``kill -9`` loses at most the OS buffer.
    """

    def __init__(
        self,
        capacity: int = 512,
        jsonl_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._counts: Dict[str, int] = {}
        self._n_recorded = 0
        self._n_mirror_failures = 0
        self._jsonl_path = Path(jsonl_path) if jsonl_path else None
        self._fh: Optional[Any] = None
        if self._jsonl_path is not None:
            self._jsonl_path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self._jsonl_path, "a", encoding="utf-8")

    def record(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the recorded dict.

        ``ts`` is a wall-clock timestamp by contract: journal events are
        operator-facing forensics ("what happened at 14:03"), correlated
        with logs and external monitoring, and are never replayed into
        detector state.
        """
        event: Dict[str, Any] = {"ts": time.time(), "kind": str(kind)}
        event.update(fields)
        with self._lock:
            self._events.append(event)
            self._counts[event["kind"]] = self._counts.get(event["kind"], 0) + 1
            self._n_recorded += 1
            if self._fh is not None:
                try:
                    self._fh.write(
                        json.dumps(event, separators=(",", ":"), default=str)
                        + "\n"
                    )
                    self._fh.flush()
                except Exception:
                    # A full disk or closed mirror must not take down the
                    # operational path being journaled; the ring still has
                    # the event.
                    self._n_mirror_failures += 1
        return event

    def events(
        self, limit: Optional[int] = None, kind: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """The retained events, oldest first, optionally filtered by kind.

        ``limit`` keeps the newest ``limit`` matches and must be positive.
        """
        check_limit(limit)
        with self._lock:
            selected = [
                dict(event)
                for event in self._events
                if kind is None or event["kind"] == kind
            ]
        if limit is not None:
            selected = selected[-limit:]
        return selected

    def counts(self) -> Dict[str, int]:
        """Lifetime event counts per kind (feeds the Prometheus exposition)."""
        with self._lock:
            return dict(self._counts)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "n_journal_events": self._n_recorded,
                "n_journal_retained": len(self._events),
                "n_mirror_failures": self._n_mirror_failures,
            }

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None
