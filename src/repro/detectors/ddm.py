"""DDM — Drift Detection Method (Gama et al. 2004).

DDM monitors the error rate ``p_i`` of a classifier over a Bernoulli error
stream together with its standard deviation ``s_i = sqrt(p_i (1 - p_i) / i)``.
It remembers the minimum of ``p + s`` seen so far (``p_min``, ``s_min``) and
flags:

* a *warning* when ``p_i + s_i >= p_min + warning_level * s_min``,
* a *drift*  when ``p_i + s_i >= p_min + drift_level * s_min``,

after which the statistics are reset.  The default levels (2 and 3) are the
ones from the original paper and the MOA implementation used as a baseline in
the OPTWIN evaluation.
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

__all__ = ["Ddm"]


class Ddm(DriftDetector):
    """Drift Detection Method for binary error streams.

    Parameters
    ----------
    min_num_instances:
        Number of observations before any warning/drift can be flagged.
    warning_level:
        Number of minimum standard deviations above the minimum error rate at
        which the warning zone starts.
    drift_level:
        Number of minimum standard deviations above the minimum error rate at
        which a drift is flagged.
    """

    _CONFIG = ("min_num_instances", "warning_level", "drift_level")
    _STATE = ("n", "error_sum", "error_rate", "p_min", "s_min", "ps_min")

    def __init__(
        self,
        min_num_instances: int = 30,
        warning_level: float = 2.0,
        drift_level: float = 3.0,
    ) -> None:
        super().__init__()
        if min_num_instances < 1:
            raise ConfigurationError(
                f"min_num_instances must be >= 1, got {min_num_instances}"
            )
        if warning_level <= 0 or drift_level <= 0:
            raise ConfigurationError("warning_level and drift_level must be > 0")
        if warning_level >= drift_level:
            raise ConfigurationError(
                "warning_level must be smaller than drift_level "
                f"(got {warning_level} >= {drift_level})"
            )
        self._min_num_instances = min_num_instances
        self._warning_level = warning_level
        self._drift_level = drift_level
        self._init_state()

    def _init_state(self) -> None:
        self._n = 0
        self._error_sum = 0.0
        self._error_rate = 0.0
        self._p_min = math.inf
        self._s_min = math.inf
        self._ps_min = math.inf

    # ----------------------------------------------------------- properties

    @property
    def error_rate(self) -> float:
        """Current estimate of the error probability."""
        return self._error_rate

    @property
    def p_min(self) -> float:
        """Minimum error rate recorded since the last reset."""
        return self._p_min

    @property
    def s_min(self) -> float:
        """Standard deviation recorded together with :attr:`p_min`."""
        return self._s_min

    # ------------------------------------------------------------- updates

    def _update_one(self, value: float) -> DetectionResult:
        error = 1.0 if value > 0.5 else 0.0
        self._n += 1
        # Sum-based mean: the error sum over 0/1 indicators is an exact
        # integer, so the rate equals the batched cumulative-sum formulation
        # bit for bit (an incremental mean would drift by rounding ulps).
        self._error_sum += error
        self._error_rate = self._error_sum / self._n
        std = math.sqrt(max(self._error_rate * (1.0 - self._error_rate), 0.0) / self._n)

        statistics = {
            "n": float(self._n),
            "error_rate": self._error_rate,
            "std": std,
        }

        if self._n < self._min_num_instances:
            return DetectionResult(statistics=statistics)

        if self._error_rate + std <= self._ps_min:
            self._p_min = self._error_rate
            self._s_min = std
            self._ps_min = self._error_rate + std

        level = self._error_rate + std
        statistics["p_min"] = self._p_min
        statistics["s_min"] = self._s_min

        if level >= self._p_min + self._drift_level * self._s_min:
            self._init_state()
            return DetectionResult(
                drift_detected=True,
                warning_detected=True,
                drift_type=DriftType.MEAN,
                statistics=statistics,
            )
        if level >= self._p_min + self._warning_level * self._s_min:
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

        Between resets every DDM quantity has a closed form in the cumulative
        error count: the error rate is an exact integer sum divided by ``n``,
        the ``p_min``/``s_min`` pair is a running minimum served by
        ``np.minimum.accumulate``, and the drift/warning comparisons are plain
        vector comparisons.  Only a drift (which resets the statistics) ends a
        segment early.
        """
        segment = (values[position : position + limit] > 0.5).astype(np.float64)
        count = segment.shape[0]
        sums, counts, rates = seeded_segment_means(
            self._error_sum, self._n, segment
        )
        stds = np.sqrt(np.maximum(rates * (1.0 - rates), 0.0) / counts)
        levels = rates + stds

        start_valid = max(0, self._min_num_instances - self._n - 1)
        if start_valid >= count:
            self._n += count
            self._error_sum = float(sums[-1])
            self._error_rate = float(rates[-1])
            return count, self._segment_limit(limit * 4), DriftType.MEAN

        rates_v = rates[start_valid:]
        stds_v = stds[start_valid:]
        levels_v = levels[start_valid:]

        # The min update uses <= so ties move the (p_min, s_min) pair
        # forward, exactly like the scalar code.
        change_index = seeded_running_argmin(levels_v, self._ps_min)
        gather = np.maximum(change_index, 0)
        p_min = np.where(change_index >= 0, rates_v[gather], self._p_min)
        s_min = np.where(change_index >= 0, stds_v[gather], self._s_min)

        drift = levels_v >= p_min + self._drift_level * s_min
        warning = (~drift) & (
            levels_v >= p_min + self._warning_level * s_min
        )

        base = position + start_valid
        drift_positions = np.flatnonzero(drift)
        if drift_positions.size == 0:
            warnings.extend((np.flatnonzero(warning) + base).tolist())
            self._n += count
            self._error_sum = float(sums[-1])
            self._error_rate = float(rates[-1])
            final_change = int(change_index[-1])
            if final_change >= 0:
                self._p_min = float(rates_v[final_change])
                self._s_min = float(stds_v[final_change])
                self._ps_min = float(levels_v[final_change])
            return count, self._segment_limit(limit * 4), DriftType.MEAN

        drift_rel = int(drift_positions[0])
        warnings.extend(
            (np.flatnonzero(warning[:drift_rel]) + base).tolist()
        )
        drifts.append(base + drift_rel)
        warnings.append(base + drift_rel)
        next_limit = self._segment_limit(self._n + start_valid + drift_rel + 1)
        self._init_state()
        return start_valid + drift_rel + 1, next_limit, DriftType.MEAN
