"""ECDD — EWMA Charts for Concept Drift Detection (Ross et al. 2012).

ECDD treats the misclassification indicators of a learner as a Bernoulli
stream and monitors them with an exponentially weighted moving average (EWMA)
chart.  The chart's control limit is ``p_estimate + L * sigma_z`` where ``L``
is chosen (via pre-computed polynomials in ``p_estimate``) so that the
expected time between false alarms equals the requested average run length
``ARL0``.  A warning zone at half the control limit is used, matching the MOA
baseline configuration of the OPTWIN paper.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.core.base import DetectionResult, DriftDetector, DriftType
from repro.exceptions import ConfigurationError
from repro.stats.ewma import EwmaEstimator, ecdd_base_limit, ecdd_control_limit

__all__ = ["Ecdd"]


class Ecdd(DriftDetector):
    """EWMA-chart drift detector for Bernoulli error streams.

    Parameters
    ----------
    arl0:
        Desired average run length between false positives (100, 400, or
        1000; 400 is the MOA default).
    lambda_:
        EWMA weight of the newest observation (0.2 in Ross et al.).
    warning_fraction:
        Fraction of the control limit at which the warning zone starts.
    min_num_instances:
        Number of observations before warnings/drifts can be flagged.
    """

    _CONFIG = ("arl0", "lambda_", "warning_fraction", "min_num_instances")

    def __init__(
        self,
        arl0: int = 400,
        lambda_: float = 0.2,
        warning_fraction: float = 0.5,
        min_num_instances: int = 30,
    ) -> None:
        super().__init__()
        if not 0.0 < warning_fraction < 1.0:
            raise ConfigurationError(
                f"warning_fraction must be in (0, 1), got {warning_fraction}"
            )
        if min_num_instances < 1:
            raise ConfigurationError(
                f"min_num_instances must be >= 1, got {min_num_instances}"
            )
        # Validate arl0/lambda eagerly through the helpers.
        ecdd_control_limit(0.1, arl0, lambda_)
        self._arl0 = arl0
        self._warning_fraction = warning_fraction
        self._min_num_instances = min_num_instances
        self._lambda_ = lambda_
        self._init_state()

    def _init_state(self) -> None:
        self._estimator = EwmaEstimator(lambda_=self._lambda_)

    # ----------------------------------------------------------- properties

    @property
    def arl0(self) -> int:
        """Configured average run length between false alarms."""
        return self._arl0

    @property
    def p_estimate(self) -> float:
        """Current estimate of the pre-change error probability."""
        return self._estimator.p_estimate

    @property
    def z(self) -> float:
        """Current EWMA statistic."""
        return self._estimator.z

    # ------------------------------------------------------------- updates

    def _update_one(self, value: float) -> DetectionResult:
        error = 1.0 if value > 0.5 else 0.0
        self._estimator.update(error)

        p_estimate = self._estimator.p_estimate
        sigma_z = self._estimator.z_std
        limit_factor = ecdd_control_limit(p_estimate, self._arl0, self._lambda_)
        control_limit = p_estimate + limit_factor * sigma_z
        warning_limit = p_estimate + self._warning_fraction * limit_factor * sigma_z

        statistics = {
            "z": self._estimator.z,
            "p_estimate": p_estimate,
            "sigma_z": sigma_z,
            "control_limit": control_limit,
            "warning_limit": warning_limit,
        }

        if self._estimator.count < self._min_num_instances:
            return DetectionResult(statistics=statistics)

        if self._estimator.z > control_limit:
            self._estimator.reset()
            return DetectionResult(
                drift_detected=True,
                warning_detected=True,
                drift_type=DriftType.MEAN,
                statistics=statistics,
            )
        if self._estimator.z > warning_limit:
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

        The EWMA recurrence is inherently sequential, so it runs in a tight
        local-variable loop that performs exactly the scalar arithmetic — but
        with the error binarisation vectorised, the constant part of the
        control limit hoisted out, and none of the per-element
        ``DetectionResult``/statistics-dict allocations of the scalar path.
        """
        errors = np.where(values[position:] > 0.5, 1.0, 0.0).tolist()

        lambda_ = self._lambda_
        one_minus = 1.0 - lambda_
        half = lambda_ / (2.0 - lambda_)
        min_n = self._min_num_instances
        warning_fraction = self._warning_fraction
        # Constant factor of ecdd_control_limit(): only the p-dependent
        # skewness adjustment varies per element.
        base_limit = ecdd_base_limit(self._arl0, lambda_)

        count, p_estimate, z, variance_factor = self._estimator.state()
        sqrt = math.sqrt
        for index, error in enumerate(errors, position):
            count += 1
            p_estimate += (error - p_estimate) / count
            if count == 1:
                z = error
            else:
                z = one_minus * z + lambda_ * error
            decay = one_minus ** (2 * count)
            variance_factor = half * (1.0 - decay)
            if count < min_n:
                continue
            bernoulli_var = p_estimate * (1.0 - p_estimate)
            sigma_z = sqrt(max(bernoulli_var * variance_factor, 0.0))
            p_clamped = min(max(p_estimate, 0.0), 0.5)
            limit_factor = base_limit * (0.7 + 0.6 * min(p_clamped, 0.5))
            if z > p_estimate + limit_factor * sigma_z:
                drifts.append(index)
                warnings.append(index)
                count = 0
                p_estimate = 0.0
                z = 0.0
                variance_factor = 0.0
            elif z > p_estimate + warning_fraction * limit_factor * sigma_z:
                warnings.append(index)
        self._estimator.set_state(count, p_estimate, z, variance_factor)
        return len(errors), limit, DriftType.MEAN

    # ---------------------------------------------------- snapshot / restore

    def _state_dict(self) -> dict:
        count, p_estimate, z, variance_factor = self._estimator.state()
        return {
            "count": count,
            "p_estimate": p_estimate,
            "z": z,
            "variance_factor": variance_factor,
        }

    def _load_state(self, state: dict) -> None:
        self._estimator.set_state(
            int(state["count"]),
            float(state["p_estimate"]),
            float(state["z"]),
            float(state["variance_factor"]),
        )
