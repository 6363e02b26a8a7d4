"""Lightweight operational telemetry for the serving layer.

Two small instruments back the hub's ``metrics`` wire op — both O(1) per
observation, allocation-free on the hot path, and cheap enough to run inside
every ingest flush:

* :class:`LatencyWindow` — a bounded ring of the most recent durations
  (flush latency, WAL fsync latency) summarised as percentiles on demand;
* :class:`RateMeter` — a sliding-window event counter reporting a rate in
  events/second (per-shard ingest rate).

Neither instrument is thread-safe by itself; the hub mutates them only from
its own (single-threaded) flush path, matching the rest of the hub's
concurrency model.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

__all__ = ["LatencyWindow", "RateMeter", "percentile"]


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty sequence."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in [0, 1], got {fraction}")
    if not sorted_values:
        raise ConfigurationError("percentile of an empty sequence is undefined")
    index = round(fraction * (len(sorted_values) - 1))
    return float(sorted_values[index])


class LatencyWindow:
    """Rolling window of the most recent durations, in seconds.

    ``summary_ms()`` reports count/mean/p50/p95/p99/max in milliseconds over
    the retained window (an empty window reports zeros with ``count=0``),
    plus the lifetime ``n_total`` — the shape the ``metrics`` op serialises
    directly.  ``count`` is the number of samples the percentiles actually
    cover; ``n_total`` keeps counting after old samples fall out of the ring.
    """

    def __init__(self, maxlen: int = 512) -> None:
        if maxlen < 1:
            raise ConfigurationError(f"maxlen must be >= 1, got {maxlen}")
        self._durations: Deque[float] = deque(maxlen=maxlen)
        self._n_total = 0

    def add(self, seconds: float) -> None:
        """Record one duration."""
        self._durations.append(float(seconds))
        self._n_total += 1

    def __len__(self) -> int:
        return len(self._durations)

    @property
    def n_total(self) -> int:
        """Lifetime number of recorded durations (window evictions included)."""
        return self._n_total

    def summary_ms(self) -> Dict[str, Any]:
        """Percentile summary of the retained window, in milliseconds."""
        if not self._durations:
            return {
                "count": 0,
                "n_total": self._n_total,
                "mean": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
                "max": 0.0,
            }
        ordered = sorted(self._durations)
        scale = 1000.0
        return {
            "count": len(ordered),
            "n_total": self._n_total,
            "mean": round(scale * sum(ordered) / len(ordered), 4),
            "p50": round(scale * percentile(ordered, 0.50), 4),
            "p95": round(scale * percentile(ordered, 0.95), 4),
            "p99": round(scale * percentile(ordered, 0.99), 4),
            "max": round(scale * ordered[-1], 4),
        }


class RateMeter:
    """Sliding-window event counter reporting events/second.

    Counts are merged into one ``(second, n)`` bucket per clock second, so
    at most ``window + 1`` buckets exist whatever the event rate;
    :meth:`rate` sums the buckets not older than ``window`` seconds and
    divides by the *covered* time span (so a meter that has only been
    running for two seconds reports a two-second rate, not a sixty-second
    average diluted by silence).  The window's edge moves in whole seconds.
    """

    def __init__(
        self, window: float = 60.0, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        self._window = float(window)
        self._clock = clock
        self._buckets: Deque[Tuple[int, int]] = deque()
        self._n_total = 0
        self._started = clock()

    def add(self, n: int = 1, now: Optional[float] = None) -> None:
        """Record ``n`` events at ``now`` (defaults to the meter's clock)."""
        if n <= 0:
            return
        stamp = self._clock() if now is None else float(now)
        second = math.floor(stamp)
        buckets = self._buckets
        if buckets and buckets[-1][0] >= second:
            buckets[-1] = (buckets[-1][0], buckets[-1][1] + int(n))
        else:
            buckets.append((second, int(n)))
        self._n_total += int(n)
        self._evict(stamp)

    def _evict(self, now: float) -> None:
        horizon = now - self._window
        while self._buckets and self._buckets[0][0] < horizon:
            self._buckets.popleft()

    @property
    def n_total(self) -> int:
        """Lifetime event count."""
        return self._n_total

    def rate(self, now: Optional[float] = None) -> float:
        """Events/second over the (covered part of the) sliding window."""
        stamp = self._clock() if now is None else float(now)
        self._evict(stamp)
        if not self._buckets:
            return 0.0
        count = sum(n for _, n in self._buckets)
        covered = min(self._window, max(stamp - self._started, 1e-9))
        return count / covered
