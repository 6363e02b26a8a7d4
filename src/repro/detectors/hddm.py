"""HDDM_A — drift detection with Hoeffding's inequality (Frías-Blanco et al. 2015).

HDDM_A monitors the running average of the values seen since the last reset
and compares, for every prefix, the average *before* a candidate cut point
with the overall average using Hoeffding's bound: if the recent data is worse
than the best historical prefix by more than the bound allows, a drift is
flagged.  The implementation below follows the moving-average (A_test) variant
with the standard one-sided bounds; it is an extension baseline (not part of
the paper's line-up) that, like OPTWIN, works for arbitrary bounded inputs.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.core.base import (
    DetectionResult,
    DriftDetector,
    DriftType,
    seeded_running_argmin,
)
from repro.exceptions import ConfigurationError
from repro.stats.incremental import seeded_segment_means

__all__ = ["HddmA"]


class HddmA(DriftDetector):
    """Hoeffding-bound drift detector (average variant, increases only).

    Parameters
    ----------
    drift_confidence:
        Confidence for the drift bound (smaller = more conservative).
    warning_confidence:
        Confidence for the warning bound; must be larger than
        ``drift_confidence``.
    value_range:
        Width of the input range (1.0 for error indicators or normalised
        losses); required by Hoeffding's inequality.
    """

    _CONFIG = ("drift_confidence", "warning_confidence", "value_range")
    _STATE = ("total_count", "total_sum", "best_count", "best_sum", "best_bound")

    def __init__(
        self,
        drift_confidence: float = 0.001,
        warning_confidence: float = 0.005,
        value_range: float = 1.0,
    ) -> None:
        super().__init__()
        if not 0.0 < drift_confidence < warning_confidence < 1.0:
            raise ConfigurationError(
                "need 0 < drift_confidence < warning_confidence < 1, got "
                f"{drift_confidence} / {warning_confidence}"
            )
        if value_range <= 0.0:
            raise ConfigurationError(f"value_range must be > 0, got {value_range}")
        self._drift_confidence = drift_confidence
        self._warning_confidence = warning_confidence
        self._value_range = value_range
        self._init_state()

    def _init_state(self) -> None:
        self._total_count = 0
        self._total_sum = 0.0
        self._best_count = 0
        self._best_sum = 0.0
        self._best_bound = math.inf

    # ------------------------------------------------------------- helpers

    def _hoeffding_bound(self, n: float, confidence: float) -> float:
        return self._value_range * math.sqrt(math.log(1.0 / confidence) / (2.0 * n))

    def _update_best_prefix(self) -> None:
        """Keep the prefix whose upper confidence bound on the mean is lowest."""
        mean = self._total_sum / self._total_count
        bound = mean + self._hoeffding_bound(self._total_count, self._drift_confidence)
        if bound < self._best_bound:
            self._best_bound = bound
            self._best_count = self._total_count
            self._best_sum = self._total_sum

    def _exceeds(self, confidence: float) -> bool:
        """Whether the post-prefix data is worse than the best prefix allows."""
        recent_count = self._total_count - self._best_count
        if recent_count < 1 or self._best_count < 1:
            return False
        recent_mean = (self._total_sum - self._best_sum) / recent_count
        best_mean = self._best_sum / self._best_count
        harmonic = 1.0 / (1.0 / recent_count + 1.0 / self._best_count)
        epsilon = self._value_range * math.sqrt(
            math.log(1.0 / confidence) / (2.0 * harmonic)
        )
        return recent_mean - best_mean > epsilon

    # ------------------------------------------------------------- updates

    def _update_one(self, value: float) -> DetectionResult:
        self._total_count += 1
        self._total_sum += value
        self._update_best_prefix()

        statistics = {
            "n": float(self._total_count),
            "mean": self._total_sum / self._total_count,
            "best_prefix_n": float(self._best_count),
        }

        if self._exceeds(self._drift_confidence):
            self._init_state()
            return DetectionResult(
                drift_detected=True,
                warning_detected=True,
                drift_type=DriftType.MEAN,
                statistics=statistics,
            )
        if self._exceeds(self._warning_confidence):
            return DetectionResult(warning_detected=True, statistics=statistics)
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
        """Vectorised prefix-bound evaluation (bit-identical to the scalar loop).

        Between resets every HDDM_A quantity has a closed form in the
        cumulative sum: the prefix means come from one seeded cumulative sum,
        the best-prefix tracking is a running strict minimum of the Hoeffding
        upper bounds served by ``np.minimum.accumulate`` plus an index gather,
        and both ``_exceeds`` tests are plain vector comparisons.  Only a
        drift (which resets the statistics) ends a segment early.
        """
        value_range = self._value_range
        drift_log = math.log(1.0 / self._drift_confidence)
        warning_log = math.log(1.0 / self._warning_confidence)
        segment = values[position : position + limit]
        count = segment.shape[0]
        sums, counts, means = seeded_segment_means(
            self._total_sum, self._total_count, segment
        )
        bounds = means + value_range * np.sqrt(drift_log / (2.0 * counts))

        # The best-prefix update uses strict <, so ties keep the earlier
        # prefix, exactly like the scalar code.
        change_index = seeded_running_argmin(
            bounds, self._best_bound, strict=True
        )
        gather = np.maximum(change_index, 0)
        best_count = np.where(
            change_index >= 0, counts[gather], float(self._best_count)
        )
        best_sum = np.where(change_index >= 0, sums[gather], self._best_sum)

        recent_count = counts - best_count
        valid = (recent_count >= 1.0) & (best_count >= 1.0)
        safe_recent = np.where(valid, recent_count, 1.0)
        safe_best = np.where(valid, best_count, 1.0)
        recent_mean = (sums - best_sum) / safe_recent
        best_mean = best_sum / safe_best
        harmonic = 1.0 / (1.0 / safe_recent + 1.0 / safe_best)
        difference = recent_mean - best_mean
        drift = valid & (
            difference
            > value_range * np.sqrt(drift_log / (2.0 * harmonic))
        )
        warning = (
            valid
            & ~drift
            & (
                difference
                > value_range * np.sqrt(warning_log / (2.0 * harmonic))
            )
        )

        drift_positions = np.flatnonzero(drift)
        if drift_positions.size == 0:
            warnings.extend((np.flatnonzero(warning) + position).tolist())
            self._total_count += count
            self._total_sum = float(sums[-1])
            final_change = int(change_index[-1])
            if final_change >= 0:
                self._best_count = int(counts[final_change])
                self._best_sum = float(sums[final_change])
                self._best_bound = float(bounds[final_change])
            return count, self._segment_limit(limit * 4), DriftType.MEAN

        drift_rel = int(drift_positions[0])
        warnings.extend(
            (np.flatnonzero(warning[:drift_rel]) + position).tolist()
        )
        drifts.append(position + drift_rel)
        warnings.append(position + drift_rel)
        next_limit = self._segment_limit(self._total_count + drift_rel + 1)
        self._init_state()
        return drift_rel + 1, next_limit, DriftType.MEAN
