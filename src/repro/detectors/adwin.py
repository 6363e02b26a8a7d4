"""ADWIN — ADaptive WINdowing drift detector (Bifet & Gavaldà 2007).

ADWIN keeps a variable-length window ``W`` of the most recent values and flags
a drift whenever two adjacent sub-windows have means whose difference exceeds
a threshold ``epsilon_cut`` derived from the Hoeffding/normal bound at
confidence ``delta``.  To stay sub-linear in memory it stores the window as an
exponential histogram: buckets of exponentially growing size, at most
``max_buckets`` per size level, so memory is O(``max_buckets`` * log |W|) and
the cut check is O(log |W|) per element.

This is a from-scratch re-implementation following the original paper and the
behaviour of the MOA/River versions (normal-approximation ``epsilon_cut``,
check clock, bucket compression), which is what the OPTWIN paper used as its
main baseline.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.core.base import DetectionResult, DriftDetector, DriftType
from repro.exceptions import ConfigurationError

__all__ = ["Adwin"]


class _Bucket:
    """One exponential-histogram bucket: a summary of ``2**level`` elements."""

    __slots__ = ("total", "variance")

    def __init__(self, total: float = 0.0, variance: float = 0.0) -> None:
        self.total = total
        self.variance = variance


class _BucketRow:
    """All buckets of one size level, newest last."""

    __slots__ = ("buckets",)

    def __init__(self) -> None:
        self.buckets: List[_Bucket] = []


class Adwin(DriftDetector):
    """Adaptive-windowing drift detector.

    Parameters
    ----------
    delta:
        Confidence parameter of the cut test; smaller values make the detector
        more conservative.  The MOA default (used by the OPTWIN paper's
        baselines) is ``0.002``.
    clock:
        The cut check runs every ``clock`` elements (32 in MOA); set to 1 to
        check at every element.
    max_buckets:
        Maximum number of buckets per size level before compression.
    min_window_length:
        Minimum number of elements in each sub-window for a cut to be allowed.
    min_n_for_check:
        Minimum total window size before any cut check runs.
    """

    _CONFIG = (
        "delta",
        "clock",
        "max_buckets",
        "min_window_length",
        "min_n_for_check",
    )
    _STATE = ("width", "total", "variance", "ticks")

    def __init__(
        self,
        delta: float = 0.002,
        clock: int = 32,
        max_buckets: int = 5,
        min_window_length: int = 5,
        min_n_for_check: int = 10,
    ) -> None:
        super().__init__()
        if not 0.0 < delta < 1.0:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        if clock < 1:
            raise ConfigurationError(f"clock must be >= 1, got {clock}")
        if max_buckets < 1:
            raise ConfigurationError(f"max_buckets must be >= 1, got {max_buckets}")
        self._delta = delta
        self._clock = clock
        self._max_buckets = max_buckets
        self._min_window_length = min_window_length
        self._min_n_for_check = min_n_for_check
        self._init_state()

    def _init_state(self) -> None:
        self._rows: List[_BucketRow] = [_BucketRow()]
        self._width = 0
        self._total = 0.0
        self._variance = 0.0
        self._ticks = 0

    # ----------------------------------------------------------- properties

    @property
    def delta(self) -> float:
        """Confidence parameter of the cut test."""
        return self._delta

    @property
    def width(self) -> int:
        """Current number of elements summarised by the window."""
        return self._width

    @property
    def estimation(self) -> float:
        """Current estimate of the stream mean (mean of the window)."""
        return self._total / self._width if self._width else 0.0

    @property
    def variance_estimate(self) -> float:
        """Current estimate of the stream variance."""
        return self._variance / self._width if self._width else 0.0

    # ------------------------------------------------------------- updates

    def _update_one(self, value: float) -> DetectionResult:
        self._insert_element(value)
        self._compress_buckets()
        self._ticks += 1

        drift = False
        if self._ticks % self._clock == 0 and self._width >= self._min_n_for_check:
            drift = self._detect_and_shrink()

        statistics = {
            "window_size": float(self._width),
            "estimation": self.estimation,
        }
        if drift:
            return DetectionResult(
                drift_detected=True,
                warning_detected=True,
                drift_type=DriftType.MEAN,
                statistics=statistics,
            )
        return DetectionResult(statistics=statistics)

    # ------------------------------------------------------- batched updates

    def _batch_kernel(
        self,
        values: np.ndarray,
        position: int,
        limit: int,
        drifts: List[int],
        warnings: List[int],
    ) -> Tuple[int, int, DriftType]:
        """Update with the rest of the chunk, bit-identical to the scalar loop.

        ADWIN's exponential histogram is inherently sequential (every insert
        can cascade compressions and every cut shrinks the window), so the
        batch cannot be expressed in closed form.  Instead the per-element
        work is run in a tight loop that keeps the running ``width`` /
        ``total`` / ``variance`` in locals, inlines the level-0 insert,
        invokes bucket compression only when level 0 actually overflows, and
        synchronises with the instance state only at check-clock ticks —
        eliminating the per-element ``DetectionResult``/statistics-dict
        allocations and attribute traffic of the scalar path while driving
        the bucket structure through exactly the same sequence of states.
        """
        chunk = values[position:].tolist()
        rows = self._rows
        row0_buckets = rows[0].buckets
        compress_trigger = self._max_buckets + 1
        clock = self._clock
        min_check = self._min_n_for_check
        ticks = self._ticks
        width = self._width
        total = self._total
        variance = self._variance

        for index, value in enumerate(chunk, position):
            # Inline _insert_element on the local running aggregates.
            row0_buckets.insert(0, _Bucket(total=value, variance=0.0))
            if width > 0:
                mean = total / width
                variance += (width * (value - mean) ** 2) / (width + 1)
            width += 1
            total += value
            if len(row0_buckets) > compress_trigger:
                # Inline the level-0 merge (the overwhelmingly common case:
                # two single-element buckets, size 1, variance 0) and cascade
                # into _compress_buckets only when level 1 overflows too.
                # _compress_buckets never touches the running aggregates, so
                # they stay in locals.
                if len(rows) < 2:
                    rows.append(_BucketRow())
                next_buckets = rows[1].buckets
                older = row0_buckets.pop()
                newer = row0_buckets.pop()
                merged_variance = (
                    older.variance
                    + newer.variance
                    + 0.5 * (older.total - newer.total) ** 2
                )
                next_buckets.insert(
                    0,
                    _Bucket(
                        total=older.total + newer.total, variance=merged_variance
                    ),
                )
                if len(next_buckets) > compress_trigger:
                    self._compress_buckets(level=1)
            ticks += 1
            if ticks % clock == 0 and width >= min_check:
                self._width = width
                self._total = total
                self._variance = variance
                if self._detect_and_shrink():
                    drifts.append(index)
                    warnings.append(index)
                width = self._width
                total = self._total
                variance = self._variance

        self._width = width
        self._total = total
        self._variance = variance
        self._ticks = ticks
        return len(chunk), limit, DriftType.MEAN

    # ---------------------------------------------------- snapshot / restore

    def _state_dict(self) -> dict:
        # The exponential histogram, level by level (newest bucket first
        # within a level, mirroring the in-memory order).
        rows = [
            [[bucket.total, bucket.variance] for bucket in row.buckets]
            for row in self._rows
        ]
        return {"rows": rows, **super()._state_dict()}

    def _load_state(self, state: dict) -> None:
        super()._load_state(state)
        rows: List[_BucketRow] = []
        for row_payload in state["rows"]:
            row = _BucketRow()
            row.buckets = [
                _Bucket(total=float(total), variance=float(variance))
                for total, variance in row_payload
            ]
            rows.append(row)
        if rows:
            self._rows = rows

    # ----------------------------------------------------------- internals

    def _insert_element(self, value: float) -> None:
        row0 = self._rows[0]
        row0.buckets.insert(0, _Bucket(total=value, variance=0.0))
        if self._width > 0:
            mean = self._total / self._width
            self._variance += (self._width * (value - mean) ** 2) / (self._width + 1)
        self._width += 1
        self._total += value

    def _compress_buckets(self, level: int = 0) -> None:
        while level < len(self._rows):
            row = self._rows[level]
            if len(row.buckets) <= self._max_buckets + 1:
                break
            if level + 1 >= len(self._rows):
                self._rows.append(_BucketRow())
            next_row = self._rows[level + 1]
            # Merge the two oldest buckets of this level into one of the next.
            older = row.buckets.pop()
            newer = row.buckets.pop()
            size = float(2 ** level)
            mean_older = older.total / size
            mean_newer = newer.total / size
            merged_variance = (
                older.variance
                + newer.variance
                + size * size / (2.0 * size) * (mean_older - mean_newer) ** 2
            )
            next_row.buckets.insert(
                0, _Bucket(total=older.total + newer.total, variance=merged_variance)
            )
            level += 1

    def _iter_buckets_oldest_first(self):
        """Yield ``(size, bucket)`` pairs from the oldest to the newest."""
        for level in range(len(self._rows) - 1, -1, -1):
            size = 2 ** level
            for bucket in reversed(self._rows[level].buckets):
                yield size, bucket

    def _detect_and_shrink(self) -> bool:
        """Run the adjacent-sub-window cut test; shrink the window on drift."""
        drift_detected = False
        keep_checking = True
        while keep_checking:
            keep_checking = False
            n0 = 0.0
            sum0 = 0.0
            n1 = float(self._width)
            sum1 = self._total
            buckets = list(self._iter_buckets_oldest_first())
            # The newest bucket can never be the whole right-hand window.
            for size, bucket in buckets[:-1]:
                n0 += size
                sum0 += bucket.total
                n1 -= size
                sum1 -= bucket.total
                if n0 < self._min_window_length or n1 < self._min_window_length:
                    continue
                mean0 = sum0 / n0
                mean1 = sum1 / n1
                if abs(mean0 - mean1) > self._epsilon_cut(n0, n1):
                    drift_detected = True
                    keep_checking = True
                    self._drop_oldest_bucket()
                    break
        return drift_detected

    def _epsilon_cut(self, n0: float, n1: float) -> float:
        """Normal-approximation threshold from the ADWIN paper (Section 4)."""
        harmonic = 1.0 / (1.0 / n0 + 1.0 / n1)
        delta_prime = self._delta / math.log(max(self._width, 2))
        log_term = math.log(2.0 / delta_prime)
        variance = self.variance_estimate
        return math.sqrt((2.0 / harmonic) * variance * log_term) + (
            2.0 / (3.0 * harmonic)
        ) * log_term

    def _drop_oldest_bucket(self) -> None:
        """Remove the oldest bucket (the window's left edge) after a cut."""
        for level in range(len(self._rows) - 1, -1, -1):
            row = self._rows[level]
            if not row.buckets:
                continue
            bucket = row.buckets.pop()
            size = 2 ** level
            if self._width > size:
                mean_bucket = bucket.total / size
                mean_rest = (self._total - bucket.total) / (self._width - size)
                self._variance -= bucket.variance + (
                    size * (self._width - size) / self._width
                ) * (mean_bucket - mean_rest) ** 2
                self._variance = max(self._variance, 0.0)
            else:
                self._variance = 0.0
            self._width -= size
            self._total -= bucket.total
            if self._width <= 0:
                self._width = 0
                self._total = 0.0
                self._variance = 0.0
            return
