"""A detector that never flags anything.

Table 2 of the OPTWIN paper includes a "No drift detector" row: the learner is
never reset, which provides the lower baseline for the accuracy comparison.
Having it implement the common :class:`~repro.core.base.DriftDetector`
interface keeps the evaluation code free of special cases.
"""

from __future__ import annotations

from repro.core.base import DetectionResult, DriftDetector

__all__ = ["NoDriftDetector"]


class NoDriftDetector(DriftDetector):
    """Null detector: consumes values and never reports a drift or warning."""

    def _update_one(self, value: float) -> DetectionResult:
        return DetectionResult()
