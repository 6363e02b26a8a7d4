"""EDDM — Early Drift Detection Method (Baena-García et al. 2006).

EDDM monitors the *distance between consecutive errors* rather than the error
rate itself: as a classifier improves, errors become rarer and the average
distance between them grows.  EDDM tracks the running mean ``p'`` and standard
deviation ``s'`` of that distance, remembers the maximum of ``p' + 2 s'``, and
flags:

* a *warning* when ``(p' + 2 s') / (p'_max + 2 s'_max) < alpha``,
* a *drift*  when ``(p' + 2 s') / (p'_max + 2 s'_max) < beta``,

after at least ``min_num_errors`` errors have been observed.  Defaults
(``alpha = 0.95``, ``beta = 0.9``, 30 errors) follow the original paper and
the MOA implementation.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.core.base import DetectionResult, DriftDetector, DriftType
from repro.exceptions import ConfigurationError

__all__ = ["Eddm"]


class Eddm(DriftDetector):
    """Early Drift Detection Method for binary error streams.

    Parameters
    ----------
    alpha:
        Warning threshold on the normalised distance statistic.
    beta:
        Drift threshold on the normalised distance statistic (must be smaller
        than ``alpha``).
    min_num_errors:
        Number of observed errors before warnings/drifts can be flagged.
    min_num_instances:
        Number of observed instances before warnings/drifts can be flagged.
    """

    _CONFIG = ("alpha", "beta", "min_num_errors", "min_num_instances")
    _STATE = (
        "n",
        "n_errors",
        "last_error_index",
        "distance_mean",
        "distance_m2",
        "max_level",
    )

    def __init__(
        self,
        alpha: float = 0.95,
        beta: float = 0.9,
        min_num_errors: int = 30,
        min_num_instances: int = 30,
    ) -> None:
        super().__init__()
        if not 0.0 < beta < alpha < 1.0:
            raise ConfigurationError(
                f"need 0 < beta < alpha < 1, got alpha={alpha}, beta={beta}"
            )
        if min_num_errors < 1 or min_num_instances < 1:
            raise ConfigurationError("minimum counts must be >= 1")
        self._alpha = alpha
        self._beta = beta
        self._min_num_errors = min_num_errors
        self._min_num_instances = min_num_instances
        self._init_state()

    def _init_state(self) -> None:
        self._n = 0
        self._n_errors = 0
        self._last_error_index = 0
        self._distance_mean = 0.0
        self._distance_m2 = 0.0
        self._max_level = 0.0

    # ----------------------------------------------------------- properties

    @property
    def n_errors(self) -> int:
        """Number of errors observed since the last reset."""
        return self._n_errors

    @property
    def mean_distance(self) -> float:
        """Running mean of the distance between consecutive errors."""
        return self._distance_mean

    # ------------------------------------------------------------- updates

    def _update_one(self, value: float) -> DetectionResult:
        error = value > 0.5
        self._n += 1

        statistics = {"n": float(self._n), "n_errors": float(self._n_errors)}
        if not error:
            return DetectionResult(statistics=statistics)

        distance = float(self._n - self._last_error_index)
        self._last_error_index = self._n
        self._n_errors += 1

        delta = distance - self._distance_mean
        self._distance_mean += delta / self._n_errors
        self._distance_m2 += delta * (distance - self._distance_mean)
        variance = (
            self._distance_m2 / (self._n_errors - 1) if self._n_errors > 1 else 0.0
        )
        std = math.sqrt(max(variance, 0.0))
        level = self._distance_mean + 2.0 * std

        statistics.update(
            {
                "distance": distance,
                "mean_distance": self._distance_mean,
                "std_distance": std,
                "level": level,
                "max_level": self._max_level,
            }
        )

        if self._n < self._min_num_instances or self._n_errors < self._min_num_errors:
            if level > self._max_level:
                self._max_level = level
            return DetectionResult(statistics=statistics)

        if level > self._max_level:
            self._max_level = level
            return DetectionResult(statistics=statistics)

        ratio = level / self._max_level if self._max_level > 0 else 1.0
        statistics["ratio"] = ratio

        if ratio < self._beta:
            self._init_state()
            return DetectionResult(
                drift_detected=True,
                warning_detected=True,
                drift_type=DriftType.MEAN,
                statistics=statistics,
            )
        if ratio < self._alpha:
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
        """Update with the rest of the chunk, bit-identical to the scalar loop.

        EDDM's state only changes at *error* elements, so the batch extracts
        the error positions with one vectorised comparison (the cumulative
        error count in numpy form) and runs the Welford distance recurrence —
        which is inherently sequential, like ECDD's EWMA — in a tight
        local-variable loop over just those positions.  Correct predictions,
        typically the large majority of a stream, cost one vectorised
        comparison instead of a ``DetectionResult`` allocation each.
        """
        chunk = values[position:]
        error_positions = np.flatnonzero(chunk > 0.5).tolist()

        alpha = self._alpha
        beta = self._beta
        min_instances = self._min_num_instances
        min_errors = self._min_num_errors
        sqrt = math.sqrt

        # ``n_offset`` maps chunk positions to the scalar instance counter:
        # scalar ``self._n`` after element ``pos`` equals ``n_offset + pos``
        # (a drift zeroes the counter, i.e. rebases the offset).
        n_offset = self._n + 1
        n_errors = self._n_errors
        last_error = self._last_error_index
        mean = self._distance_mean
        m2 = self._distance_m2
        max_level = self._max_level

        # The distance stays a Python int: mixed int/float arithmetic
        # converts it exactly, so every float operation is the scalar one.
        for pos in error_positions:
            n_now = n_offset + pos
            distance = n_now - last_error
            last_error = n_now
            n_errors += 1
            delta = distance - mean
            mean += delta / n_errors
            m2 += delta * (distance - mean)
            variance = m2 / (n_errors - 1) if n_errors > 1 else 0.0
            # max() as in the scalar code, but only where it can change the
            # value: a variance that is not positive.
            level = mean + 2.0 * sqrt(
                variance if variance > 0.0 else max(variance, 0.0)
            )
            # A new maximum is recorded during warm-up and after it alike.
            if level > max_level:
                max_level = level
                continue
            if n_now < min_instances or n_errors < min_errors:
                continue
            ratio = level / max_level if max_level > 0 else 1.0
            if ratio < beta:
                drifts.append(position + pos)
                warnings.append(position + pos)
                n_offset = -pos
                n_errors = 0
                last_error = 0
                mean = 0.0
                m2 = 0.0
                max_level = 0.0
            elif ratio < alpha:
                warnings.append(position + pos)

        self._n = n_offset + chunk.shape[0] - 1
        self._n_errors = n_errors
        self._last_error_index = last_error
        self._distance_mean = mean
        self._distance_m2 = m2
        self._max_level = max_level
        return chunk.shape[0], limit, DriftType.MEAN
