"""STEPD — Statistical Test of Equal Proportions Detector (Nishida & Yamauchi 2007).

STEPD assumes that a learner's accuracy over a *recent* window of ``window_size``
predictions should be statistically indistinguishable from its accuracy over
all *earlier* predictions.  At every element it runs the classic two-sample
test of equal proportions (with continuity correction) between the two
segments and flags a warning at significance ``alpha_warning`` and a drift at
``alpha_drift``, after which it resets.  Defaults follow the original paper
(window of 30, ``alpha_drift = 0.003``, ``alpha_warning = 0.05``).

STEPD consumes *correctness* information; like the MOA baseline it accepts an
error indicator and internally converts it (values ``> 0.5`` count as errors).
Real-valued inputs are thresholded the same way, which is how the OPTWIN paper
could run STEPD on its non-binary streams.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

import numpy as np

from repro.core.base import DetectionResult, DriftDetector, DriftType
from repro.exceptions import ConfigurationError
from repro.stats.distributions import normal_cdf, normal_ppf
from repro.stats.proportions import (
    equal_proportions_statistics,
    equal_proportions_test,
)

__all__ = ["Stepd"]


class Stepd(DriftDetector):
    """Statistical-test-of-equal-proportions drift detector.

    Parameters
    ----------
    window_size:
        Size of the recent window (30 in the original paper).
    alpha_drift:
        Significance level at which a drift is flagged.
    alpha_warning:
        Significance level at which a warning is flagged (must be larger than
        ``alpha_drift``).
    """

    _CONFIG = ("window_size", "alpha_drift", "alpha_warning")
    _STATE = ("recent", "recent_correct", "older_count", "older_correct")

    def __init__(
        self,
        window_size: int = 30,
        alpha_drift: float = 0.003,
        alpha_warning: float = 0.05,
    ) -> None:
        super().__init__()
        if window_size < 2:
            raise ConfigurationError(f"window_size must be >= 2, got {window_size}")
        if not 0.0 < alpha_drift < alpha_warning < 1.0:
            raise ConfigurationError(
                "need 0 < alpha_drift < alpha_warning < 1, got "
                f"alpha_drift={alpha_drift}, alpha_warning={alpha_warning}"
            )
        self._window_size = window_size
        self._alpha_drift = alpha_drift
        self._alpha_warning = alpha_warning
        # Conservative screen for the batched path: any statistic whose exact
        # one-sided p-value could fall below ``alpha_warning`` exceeds this
        # (Acklam's ppf is accurate to ~1e-9; the margin is orders of
        # magnitude wider), so the exact ``normal_cdf`` is only evaluated for
        # the rare candidates near or past the warning threshold.
        self._screen_statistic = normal_ppf(1.0 - alpha_warning) - 1e-6
        self._init_state()

    def _init_state(self) -> None:
        self._recent: Deque[float] = deque(maxlen=self._window_size)
        self._recent_correct = 0.0
        self._older_count = 0
        self._older_correct = 0.0

    # ----------------------------------------------------------- properties

    @property
    def window_size(self) -> int:
        """Size of the recent window."""
        return self._window_size

    @property
    def overall_accuracy(self) -> float:
        """Accuracy over everything seen since the last reset."""
        total = self._older_count + len(self._recent)
        if total == 0:
            return 0.0
        return (self._older_correct + self._recent_correct) / total

    # ------------------------------------------------------------- updates

    def _update_one(self, value: float) -> DetectionResult:
        correct = 0.0 if value > 0.5 else 1.0

        if len(self._recent) == self._window_size:
            oldest = self._recent.popleft()
            self._recent_correct -= oldest
            self._older_count += 1
            self._older_correct += oldest
        self._recent.append(correct)
        self._recent_correct += correct

        statistics = {
            "recent_count": float(len(self._recent)),
            "older_count": float(self._older_count),
        }

        if self._older_count < self._window_size or len(self._recent) < self._window_size:
            return DetectionResult(statistics=statistics)

        outcome = equal_proportions_test(
            successes_recent=self._recent_correct,
            n_recent=len(self._recent),
            successes_older=self._older_correct,
            n_older=self._older_count,
        )
        statistics["statistic"] = outcome.statistic
        statistics["p_value"] = outcome.p_value

        if outcome.p_value < self._alpha_drift:
            self._init_state()
            return DetectionResult(
                drift_detected=True,
                warning_detected=True,
                drift_type=DriftType.MEAN,
                statistics=statistics,
            )
        if outcome.p_value < self._alpha_warning:
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
        """Closed-form segment update (bit-identical to the scalar loop).

        Between resets STEPD's two segment summaries have closed forms in the
        cumulative correct count: one prefix sum over the retained recent
        window plus the segment yields every per-element
        ``(recent_correct, older_count, older_correct)`` triple at once (the
        0/1 sums are exact integers, so they equal the scalar deque
        bookkeeping bit for bit), and the two-proportion z statistics for the
        whole segment are one call to
        :func:`repro.stats.proportions.equal_proportions_statistics`.  The
        exact scalar p-value is evaluated only for the few candidates that
        pass a conservative statistic screen; a drift (which resets the
        state) ends the segment early.
        """
        window = self._window_size
        segment = np.where(values[position : position + limit] > 0.5, 0.0, 1.0)
        count = segment.shape[0]
        retained = len(self._recent)
        combined = np.empty(retained + count, dtype=np.float64)
        combined[:retained] = self._recent
        combined[retained:] = segment
        prefix = np.empty(retained + count + 1, dtype=np.float64)
        prefix[0] = 0.0
        np.cumsum(combined, out=prefix[1:])

        totals = retained + 1 + np.arange(count)
        popped = np.maximum(totals - window, 0)
        recent_count = np.minimum(totals, window)
        recent_correct = prefix[totals] - prefix[popped]
        older_count = self._older_count + popped
        older_correct = self._older_correct + prefix[popped]
        testable = (recent_count == window) & (older_count >= window)

        statistics = equal_proportions_statistics(
            recent_correct,
            recent_count,
            older_correct,
            np.maximum(older_count, 1),
        )
        candidates = np.flatnonzero(testable & (statistics > self._screen_statistic))

        for rel in candidates.tolist():
            p_value = 1.0 - normal_cdf(float(statistics[rel]))
            if p_value < self._alpha_drift:
                drifts.append(position + rel)
                warnings.append(position + rel)
                next_limit = self._segment_limit(
                    self._older_count + retained + rel + 1
                )
                self._init_state()
                return rel + 1, next_limit, DriftType.MEAN
            if p_value < self._alpha_warning:
                warnings.append(position + rel)

        final_total = retained + count
        keep = min(final_total, window)
        self._recent = deque(
            combined[final_total - keep :].tolist(), maxlen=window
        )
        self._recent_correct = float(recent_correct[-1])
        self._older_count = int(older_count[-1])
        self._older_correct = float(older_correct[-1])
        return count, self._segment_limit(limit * 4), DriftType.MEAN
