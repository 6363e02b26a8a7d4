"""Configuration object for the OPTWIN detector, and the stable config hash.

Keeping the parameters in a frozen dataclass gives a single place for
validation, sensible defaults matching the paper's experimental setup
(``delta = 0.99``, ``w_max = 25000``, ``rho = 0.5``), and hashability so that
pre-computed cut tables can be cached per configuration.

:func:`grid_config_hash` (exported by :mod:`repro.experiments.orchestrator`)
keys the orchestrator's persisted records and the serving layer's
checkpoint manifests; it lives here, below both, so that a hub computing
one does not import :mod:`repro.experiments`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.exceptions import ConfigurationError

__all__ = ["OptwinConfig"]

#: Minimum window size used throughout the paper (Section 3.1).
DEFAULT_W_MIN = 30
#: Maximum window size used in the paper's experiments (Section 3.4).
DEFAULT_W_MAX = 25_000
#: Division-by-zero guard added to standard deviations (Algorithm 1).
DEFAULT_ETA = 1e-5


@dataclass(frozen=True)
class OptwinConfig:
    """Validated parameter set for :class:`repro.core.optwin.Optwin`.

    Attributes
    ----------
    delta:
        Overall confidence level of the drift detection, in ``(0, 1)``.  Each
        of the four statistical tests is run at ``delta ** (1/4)`` so the
        union bound yields ``delta`` overall (Theorem 3.1, part 1).
    rho:
        Robustness: the minimum ratio by which the mean of ``W_new`` must move
        (in units of ``sigma_hist``) to count as a drift.
    w_min:
        Minimum number of elements before any drift can be flagged.
    w_max:
        Maximum sliding-window size; the oldest element is evicted beyond it.
    eta:
        Stabiliser added to standard deviations in the F-test.
    one_sided:
        When ``True`` (the paper's OL setting, Section 3.4) drifts are only
        flagged when the new mean is at least the historical mean, i.e. the
        learner got *worse*.
    warning_delta:
        Confidence level of the relaxed tests used for the warning zone.
        Must satisfy ``0 < warning_delta < delta`` to be meaningful; set to
        ``0.0`` to disable warning detection, or leave it as ``None`` to use
        ``0.96 * delta`` (0.95 for the paper's ``delta = 0.99``).
    require_magnitude:
        When ``True`` a mean drift is only flagged if, in addition to the
        t-test rejecting, the observed mean shift is at least
        ``rho * sigma_hist`` — the paper's definition of the robustness
        parameter ("the minimum ratio by which mu_new has to vary in relation
        to sigma_hist in order to count as a concept drift", Section 3.2).
        Disabling it recovers a pure significance test (used by the ablation
        benchmarks).
    skip_variance_on_binary:
        When ``True`` (default) the F-test is not applied while every value
        observed so far is 0/1.  For Bernoulli error indicators the variance
        is a deterministic function of the mean, so the F-test carries no
        information beyond the t-test but — because sample variances of
        rare-error streams are far from F-distributed — it would dominate the
        false-positive count.  Disabling the flag restores the literal
        Algorithm 1 behaviour (both tests on every input).
    """

    delta: float = 0.99
    rho: float = 0.5
    w_min: int = DEFAULT_W_MIN
    w_max: int = DEFAULT_W_MAX
    eta: float = DEFAULT_ETA
    one_sided: bool = True
    warning_delta: Optional[float] = None
    require_magnitude: bool = True
    skip_variance_on_binary: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must be in (0, 1), got {self.delta}")
        if self.warning_delta is None:
            object.__setattr__(self, "warning_delta", 0.96 * self.delta)
        if self.rho <= 0.0:
            raise ConfigurationError(f"rho must be > 0, got {self.rho}")
        if self.w_min < 4:
            raise ConfigurationError(f"w_min must be >= 4, got {self.w_min}")
        if self.w_max < self.w_min:
            raise ConfigurationError(
                f"w_max ({self.w_max}) must be >= w_min ({self.w_min})"
            )
        if self.eta < 0.0:
            raise ConfigurationError(f"eta must be >= 0, got {self.eta}")
        if self.warning_delta < 0.0 or self.warning_delta >= 1.0:
            raise ConfigurationError(
                f"warning_delta must be in [0, 1), got {self.warning_delta}"
            )
        if 0.0 < self.warning_delta and self.warning_delta >= self.delta:
            raise ConfigurationError(
                "warning_delta must be strictly smaller than delta "
                f"(got warning_delta={self.warning_delta}, delta={self.delta})"
            )

    @property
    def delta_prime(self) -> float:
        """Per-test confidence ``delta ** (1/4)`` (Section 3.3)."""
        return self.delta ** 0.25

    @property
    def warning_delta_prime(self) -> float:
        """Per-test confidence used by the warning zone (0.0 when disabled)."""
        if self.warning_delta <= 0.0:
            return 0.0
        return self.warning_delta ** 0.25

    @property
    def warning_enabled(self) -> bool:
        """Whether warning detection is active."""
        return self.warning_delta > 0.0


def grid_config_hash(payload: Mapping[str, object]) -> str:
    """Stable hash of a configuration payload (its canonical JSON, SHA-256)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
