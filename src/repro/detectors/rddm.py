"""RDDM — Reactive Drift Detection Method (Barros et al. 2017).

RDDM is the DDM variant cited by the OPTWIN paper (reference [4]).  DDM's
statistics keep growing between drifts, which makes it sluggish on long stable
periods; RDDM bounds the number of instances that contribute to the error-rate
estimate and, when a warning lasts too long or the stable period exceeds
``max_concept_size``, it *reactively* recomputes the statistics from the most
recent predictions stored in a small buffer.

Included as an extension baseline (it is not part of the paper's evaluation
line-up but is the natural "modernised DDM" to compare against).
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from typing import Deque, List, Tuple

import numpy as np

from repro.core.base import (
    DetectionResult,
    DriftDetector,
    DriftType,
    seeded_running_argmin,
)
from repro.exceptions import ConfigurationError
from repro.stats.incremental import seeded_segment_means

__all__ = ["Rddm"]


class Rddm(DriftDetector):
    """Reactive Drift Detection Method for binary error streams.

    Parameters
    ----------
    min_num_instances:
        Observations required before warnings/drifts can be flagged.
    warning_level, drift_level:
        Multiples of the minimum standard deviation above the minimum error
        rate at which the warning / drift zones start (as in DDM).
    max_concept_size:
        Maximum number of instances folded into the statistics before RDDM
        recomputes them from the recent-prediction buffer.
    min_stable_size:
        Number of recent predictions replayed when the statistics are rebuilt.
    warning_limit:
        Maximum number of consecutive warning instances before RDDM forces a
        drift (a long warning usually means a slow gradual drift).
    """

    _CONFIG = (
        "min_num_instances",
        "warning_level",
        "drift_level",
        "max_concept_size",
        "min_stable_size",
        "warning_limit",
    )
    _STATE = (
        "n",
        "error_sum",
        "error_rate",
        "p_min",
        "s_min",
        "ps_min",
        "recent",
        "warning_count",
    )

    def __init__(
        self,
        min_num_instances: int = 129,
        warning_level: float = 1.773,
        drift_level: float = 2.258,
        max_concept_size: int = 40_000,
        min_stable_size: int = 7_000,
        warning_limit: int = 1_400,
    ) -> None:
        super().__init__()
        if min_num_instances < 1:
            raise ConfigurationError(
                f"min_num_instances must be >= 1, got {min_num_instances}"
            )
        if not 0 < warning_level < drift_level:
            raise ConfigurationError(
                "need 0 < warning_level < drift_level, got "
                f"{warning_level} / {drift_level}"
            )
        if min_stable_size < 1 or max_concept_size <= min_stable_size:
            raise ConfigurationError(
                "need max_concept_size > min_stable_size >= 1, got "
                f"{max_concept_size} / {min_stable_size}"
            )
        if warning_limit < 1:
            raise ConfigurationError(f"warning_limit must be >= 1, got {warning_limit}")
        self._min_num_instances = min_num_instances
        self._warning_level = warning_level
        self._drift_level = drift_level
        self._max_concept_size = max_concept_size
        self._min_stable_size = min_stable_size
        self._warning_limit = warning_limit
        self._init_state()

    def _init_state(self) -> None:
        self._recent: Deque[float] = deque(maxlen=self._min_stable_size)
        self._init_statistics()
        self._warning_count = 0

    def _init_statistics(self) -> None:
        self._n = 0
        self._error_sum = 0.0
        self._error_rate = 0.0
        self._p_min = math.inf
        self._s_min = math.inf
        self._ps_min = math.inf

    # ------------------------------------------------------------- helpers

    def _fold(self, error: float) -> float:
        """Fold one 0/1 error into the statistics; return the current std."""
        self._n += 1
        # Sum-based mean: the error sum over 0/1 indicators is an exact
        # integer, so the rate equals the batched cumulative-sum formulation
        # bit for bit (an incremental mean would drift by rounding ulps).
        self._error_sum += error
        self._error_rate = self._error_sum / self._n
        std = math.sqrt(max(self._error_rate * (1.0 - self._error_rate), 0.0) / self._n)
        if self._n >= self._min_num_instances and self._error_rate + std <= self._ps_min:
            self._p_min = self._error_rate
            self._s_min = std
            self._ps_min = self._error_rate + std
        return std

    def _rebuild_from_recent(self) -> None:
        """Reactive step: recompute the statistics from the recent buffer."""
        self._init_statistics()
        for error in self._recent:
            self._fold(error)

    # ------------------------------------------------------------- updates

    def _update_one(self, value: float) -> DetectionResult:
        error = 1.0 if value > 0.5 else 0.0
        self._recent.append(error)
        std = self._fold(error)

        statistics = {
            "n": float(self._n),
            "error_rate": self._error_rate,
            "std": std,
            "warning_count": float(self._warning_count),
        }

        if self._n < self._min_num_instances:
            return DetectionResult(statistics=statistics)

        level = self._error_rate + std
        drift = level >= self._p_min + self._drift_level * self._s_min
        warning = level >= self._p_min + self._warning_level * self._s_min

        if warning and not drift:
            self._warning_count += 1
            if self._warning_count >= self._warning_limit:
                drift = True
        elif not warning:
            self._warning_count = 0

        if not drift and self._n >= self._max_concept_size:
            # Long stable concept: refresh the statistics reactively so the
            # detector stays sensitive to future changes.
            self._rebuild_from_recent()
            statistics["rebuilt"] = 1.0
            return DetectionResult(warning_detected=warning, statistics=statistics)

        if drift:
            self._warning_count = 0
            self._init_statistics()
            # Re-seed the statistics with the recent (post-drift) behaviour so
            # detection can resume immediately — the "reactive" idea.  The
            # tail is taken through the reverse iterator so a drift costs
            # O(min_num_instances), not a copy of the whole recent buffer.
            tail = list(islice(reversed(self._recent), self._min_num_instances))
            for recent_error in reversed(tail):
                self._fold(recent_error)
            return DetectionResult(
                drift_detected=True,
                warning_detected=True,
                drift_type=DriftType.MEAN,
                statistics=statistics,
            )
        return DetectionResult(warning_detected=warning, statistics=statistics)

    # ------------------------------------------------------- batched updates

    #: Elements run through the plain scalar path after each boundary event
    #: before vectorisation resumes.  On drift-dense streams (a detector
    #: firing every few elements) the fixed numpy setup of a vectorised
    #: segment costs more than it saves, so the batch degrades gracefully to
    #: scalar speed instead of re-paying the setup per event; another drift
    #: inside the burst extends it.
    _SCALAR_BURST = 24

    def _batch_kernel(
        self,
        values: np.ndarray,
        position: int,
        limit: int,
        drifts: List[int],
        warnings: List[int],
    ) -> Tuple[int, int, DriftType]:
        """Closed-form segment update (bit-identical to the scalar loop).

        Between boundary events every RDDM quantity has a closed form in the
        cumulative error count: the error rate is an exact integer sum divided
        by ``n``, the ``p_min``/``s_min`` tracking is a running minimum served
        by ``np.minimum.accumulate``, and the consecutive-warning counter is a
        vectorised run length.  The events that end a vectorised segment —
        a drift (natural or warning-limit forced) and the reactive rebuild at
        ``max_concept_size`` — are each executed through the scalar
        ``_update_one`` for that single element, so the refold/rebuild
        behaviour is the scalar code itself; the scalar burst that follows
        is part of the same call.
        """
        segment = np.where(values[position : position + limit] > 0.5, 1.0, 0.0)
        count = segment.shape[0]
        sums, counts, rates = seeded_segment_means(
            self._error_sum, self._n, segment
        )
        stds = np.sqrt(np.maximum(rates * (1.0 - rates), 0.0) / counts)

        start_valid = max(0, self._min_num_instances - self._n - 1)
        if start_valid >= count:
            self._n += count
            self._error_sum = float(sums[-1])
            self._error_rate = float(rates[-1])
            self._recent.extend(segment.tolist())
            return count, self._segment_limit(limit * 4), DriftType.MEAN

        rates_v = rates[start_valid:]
        stds_v = stds[start_valid:]
        levels_v = rates_v + stds_v
        m = levels_v.shape[0]

        # The min update uses <= so ties move the (p_min, s_min) pair
        # forward, exactly like the scalar ``_fold``.
        change_index = seeded_running_argmin(levels_v, self._ps_min)
        gather = np.maximum(change_index, 0)
        p_min = np.where(change_index >= 0, rates_v[gather], self._p_min)
        s_min = np.where(change_index >= 0, stds_v[gather], self._s_min)

        natural = levels_v >= p_min + self._drift_level * s_min
        warning = levels_v >= p_min + self._warning_level * s_min

        # Consecutive-warning run length, seeded with the current counter:
        # a non-warning element resets the run, warnings extend it.
        pos_v = np.arange(m)
        last_block = np.where(~warning, pos_v, -1)
        np.maximum.accumulate(last_block, out=last_block)
        runs = np.where(
            last_block >= 0,
            pos_v - last_block,
            pos_v + 1 + self._warning_count,
        )
        forced = warning & ~natural & (runs >= self._warning_limit)
        drift = natural | forced
        rebuild = (counts[start_valid:] >= self._max_concept_size) & ~drift

        base = position + start_valid
        event_positions = np.flatnonzero(drift | rebuild)
        if event_positions.size == 0:
            warnings.extend((np.flatnonzero(warning) + base).tolist())
            self._n += count
            self._error_sum = float(sums[-1])
            self._error_rate = float(rates[-1])
            final_change = int(change_index[-1])
            if final_change >= 0:
                self._p_min = float(rates_v[final_change])
                self._s_min = float(stds_v[final_change])
                self._ps_min = float(levels_v[final_change])
            self._warning_count = int(runs[-1]) if warning[-1] else 0
            self._recent.extend(segment.tolist())
            return count, self._segment_limit(limit * 4), DriftType.MEAN

        # Commit the closed-form state up to (excluding) the event element,
        # then run that element through the scalar path so the refold /
        # rebuild logic is executed verbatim.
        event_rel = int(event_positions[0])
        consumed = start_valid + event_rel
        warnings.extend(
            (np.flatnonzero(warning[:event_rel]) + base).tolist()
        )
        if consumed > 0:
            self._n += consumed
            self._error_sum = float(sums[consumed - 1])
            self._error_rate = float(rates[consumed - 1])
        if event_rel > 0:
            prior_change = int(change_index[event_rel - 1])
            if prior_change >= 0:
                self._p_min = float(rates_v[prior_change])
                self._s_min = float(stds_v[prior_change])
                self._ps_min = float(levels_v[prior_change])
            self._warning_count = (
                int(runs[event_rel - 1]) if warning[event_rel - 1] else 0
            )
        self._recent.extend(segment[:consumed].tolist())
        index = position + consumed
        stretch = self._n + 1
        burst_remaining = 1
        while burst_remaining > 0 and index < values.shape[0]:
            folded = self._n
            outcome = self._update_one(float(values[index]))
            if outcome.drift_detected:
                drifts.append(index)
                warnings.append(index)
                burst_remaining = self._SCALAR_BURST
                stretch = folded + 1
            else:
                if outcome.warning_detected:
                    warnings.append(index)
                burst_remaining -= 1
            index += 1
        return index - position, self._segment_limit(stretch), DriftType.MEAN
