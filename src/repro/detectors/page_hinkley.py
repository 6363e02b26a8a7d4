"""Page–Hinkley test for change detection (extension baseline).

The Page–Hinkley (PH) test is a sequential analysis technique that accumulates
the difference between the observed values and their running mean, minus a
tolerance ``delta``, and flags a change when the accumulated sum drifts more
than ``threshold`` away from its minimum.  It is a common additional baseline
in the drift-detection literature (and available in MOA/River), so it is
included here as an extension beyond the paper's baseline set.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.base import DetectionResult, DriftDetector, DriftType
from repro.exceptions import ConfigurationError
from repro.stats.incremental import seeded_segment_means

__all__ = ["PageHinkley"]


class PageHinkley(DriftDetector):
    """Page–Hinkley change detector for increases in the monitored value.

    Parameters
    ----------
    delta:
        Tolerance subtracted from each deviation; small values make the test
        more sensitive.
    threshold:
        Detection threshold ``lambda`` on the accumulated statistic.
    alpha:
        Forgetting factor applied to the cumulative sum (1.0 disables
        forgetting).
    min_num_instances:
        Number of observations before a drift can be flagged.
    """

    _CONFIG = ("delta", "threshold", "alpha", "min_num_instances")
    _STATE = ("n", "sum", "mean", "cumulative", "minimum")

    def __init__(
        self,
        delta: float = 0.005,
        threshold: float = 50.0,
        alpha: float = 0.9999,
        min_num_instances: int = 30,
    ) -> None:
        super().__init__()
        if delta < 0:
            raise ConfigurationError(f"delta must be >= 0, got {delta}")
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be > 0, got {threshold}")
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        if min_num_instances < 1:
            raise ConfigurationError(
                f"min_num_instances must be >= 1, got {min_num_instances}"
            )
        self._delta = delta
        self._threshold = threshold
        self._alpha = alpha
        self._min_num_instances = min_num_instances
        self._init_state()

    def _init_state(self) -> None:
        self._n = 0
        self._sum = 0.0
        self._mean = 0.0
        self._cumulative = 0.0
        self._minimum = 0.0

    # ------------------------------------------------------------- updates

    def _update_one(self, value: float) -> DetectionResult:
        self._n += 1
        # Sum-based mean: ``np.add.accumulate`` performs the same left-to-right
        # additions, so the batched path reproduces this value bit for bit.
        self._sum += value
        self._mean = self._sum / self._n
        self._cumulative = self._alpha * self._cumulative + (
            value - self._mean - self._delta
        )
        self._minimum = min(self._minimum, self._cumulative)
        statistic = self._cumulative - self._minimum

        statistics = {
            "n": float(self._n),
            "mean": self._mean,
            "statistic": statistic,
            "threshold": self._threshold,
        }

        if self._n < self._min_num_instances:
            return DetectionResult(statistics=statistics)

        if statistic > self._threshold:
            self._init_state()
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
        """Segment update, bit-identical to the scalar loop.

        The running means of a whole between-drift segment are produced by one
        exact cumulative sum; the forgetting recurrence of the PH statistic is
        sequential, so it runs in a tight local-variable loop over the
        pre-computed deviations without any per-element allocations.
        """
        alpha = self._alpha
        threshold = self._threshold
        min_n = self._min_num_instances
        segment = values[position : position + limit]
        count = segment.shape[0]
        sums, _, means = seeded_segment_means(self._sum, self._n, segment)
        deviations = ((segment - means) - self._delta).tolist()

        cumulative = self._cumulative
        minimum = self._minimum
        n_before = self._n
        for rel, deviation in enumerate(deviations):
            cumulative = alpha * cumulative + deviation
            minimum = min(minimum, cumulative)
            if n_before + rel + 1 < min_n:
                continue
            if cumulative - minimum > threshold:
                drifts.append(position + rel)
                warnings.append(position + rel)
                self._init_state()
                return rel + 1, self._segment_limit(n_before + rel + 1), DriftType.MEAN
        self._n += count
        self._sum = float(sums[-1])
        self._mean = float(means[-1])
        self._cumulative = cumulative
        self._minimum = minimum
        return count, self._segment_limit(limit * 4), DriftType.MEAN
