"""KSWIN — Kolmogorov–Smirnov windowing drift detector (extension baseline).

KSWIN keeps a sliding window of the last ``window_size`` values and compares
the most recent ``stat_size`` of them against a uniform random sample of the
older part using the two-sample Kolmogorov–Smirnov test.  Because the KS test
is distribution-free it reacts to changes in *any* aspect of the value
distribution, which makes it a useful extra point of comparison for OPTWIN's
variance-sensitive behaviour.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Deque, List, Sequence, Tuple

import numpy as np

from repro.core.base import DetectionResult, DriftDetector, DriftType
from repro.exceptions import ConfigurationError

__all__ = ["Kswin"]


def _ks_statistic(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (maximum ECDF distance).

    Ties are handled by evaluating both empirical CDFs at every distinct value
    (using right-continuous counts), so heavily discrete inputs such as 0/1
    error indicators are measured correctly.  Implemented as a sorted-merge:
    both samples are sorted once and the two ECDFs are evaluated at every
    distinct value with vectorised ``np.searchsorted`` rank lookups — the
    counts and divisions are exactly those of a per-value ``bisect`` loop, so
    the statistic is bit-identical to the naive formulation.
    """
    sorted_a = np.sort(np.asarray(sample_a, dtype=np.float64))
    sorted_b = np.sort(np.asarray(sample_b, dtype=np.float64))
    # Evaluating at every sample value (duplicates included) reaches the same
    # maximum as evaluating at the distinct values only, and skips a
    # uniquifying pass.
    points = np.concatenate((sorted_a, sorted_b))
    cdf_a = np.searchsorted(sorted_a, points, side="right") / sorted_a.shape[0]
    cdf_b = np.searchsorted(sorted_b, points, side="right") / sorted_b.shape[0]
    return float(np.max(np.abs(cdf_a - cdf_b)))


class Kswin(DriftDetector):
    """Kolmogorov–Smirnov windowing drift detector.

    Parameters
    ----------
    alpha:
        Significance level of the KS test.
    window_size:
        Total number of recent values retained.
    stat_size:
        Size of the "recent" sample compared against the older data.
    seed:
        Seed of the internal random sampler (KSWIN subsamples the older part
        of its window).
    """

    _CONFIG = ("alpha", "window_size", "stat_size", "seed")
    _STATE = ("window",)

    def __init__(
        self,
        alpha: float = 0.005,
        window_size: int = 100,
        stat_size: int = 30,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        if stat_size >= window_size:
            raise ConfigurationError(
                f"stat_size ({stat_size}) must be smaller than window_size "
                f"({window_size})"
            )
        if window_size < 2 * stat_size:
            # The older part of a full window holds window_size - stat_size
            # values and is subsampled down to stat_size of them, so anything
            # between stat_size and 2 * stat_size would pass construction and
            # then crash in random.Random.sample at element window_size.
            raise ConfigurationError(
                f"window_size ({window_size}) must be at least 2 * stat_size "
                f"({2 * stat_size}) so the older window segment can supply a "
                f"sample of {stat_size} values"
            )
        if stat_size < 2:
            raise ConfigurationError(f"stat_size must be >= 2, got {stat_size}")
        self._alpha = alpha
        self._window_size = window_size
        self._stat_size = stat_size
        self._seed = seed
        # Two-sample KS critical value at significance alpha; constant in the
        # configuration, shared by the scalar and batched paths.
        self._critical = math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt(
            2.0 / stat_size
        )
        self._init_state()

    def _init_state(self) -> None:
        self._rng = random.Random(self._seed)
        self._window: Deque[float] = deque(maxlen=self._window_size)

    # ------------------------------------------------------------- updates

    def _update_one(self, value: float) -> DetectionResult:
        self._window.append(value)
        statistics = {"window_size": float(len(self._window))}

        if len(self._window) < self._window_size:
            return DetectionResult(statistics=statistics)

        values: List[float] = list(self._window)
        recent = values[-self._stat_size:]
        older = values[: -self._stat_size]
        sample_older = self._rng.sample(older, self._stat_size)

        d_stat = _ks_statistic(recent, sample_older)
        critical = self._critical
        statistics.update({"ks_statistic": d_stat, "critical": critical})

        if d_stat > critical:
            # Keep only the recent sample as the new history.
            self._window = deque(recent, maxlen=self._window_size)
            return DetectionResult(
                drift_detected=True,
                warning_detected=True,
                drift_type=DriftType.DISTRIBUTION,
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

        The sliding window is maintained as a plain list for the duration of
        the batch (no per-element ``list(deque)`` copy), partially filled
        windows — after construction and after every drift, when the window
        was shrunk to the recent sample — are bulk-extended without any test,
        and the KS statistic itself is the vectorised sorted-merge of
        :func:`_ks_statistic`.  The RNG subsample of the older segment is
        drawn per tested element exactly as in scalar mode, so the random
        state (and therefore every subsequent detection) stays identical.
        """
        data = values.tolist()
        n = len(data)
        window = list(self._window)
        window_size = self._window_size
        stat_size = self._stat_size
        rng_sample = self._rng.sample
        critical = self._critical

        index = position
        while index < n:
            if len(window) < window_size - 1:
                # Elements that leave the window still short of full never
                # run a test; append them in one slice.
                take = min(window_size - 1 - len(window), n - index)
                window.extend(data[index : index + take])
                index += take
                if index >= n:
                    break
            window.append(data[index])
            if len(window) > window_size:
                del window[0]
            recent = window[-stat_size:]
            sample_older = rng_sample(window[:-stat_size], stat_size)
            if _ks_statistic(recent, sample_older) > critical:
                drifts.append(index)
                warnings.append(index)
                window = recent
            index += 1

        self._window = deque(window, maxlen=window_size)
        return n - position, limit, DriftType.DISTRIBUTION

    # ---------------------------------------------------- snapshot / restore

    def _state_dict(self) -> dict:
        # random.Random.getstate() is (version, 625-int internal state,
        # gauss_next); the tuple layers are flattened to lists for JSON.
        version, internal, gauss_next = self._rng.getstate()
        state = super()._state_dict()
        state["rng"] = {
            "version": version,
            "internal": list(internal),
            "gauss_next": gauss_next,
        }
        return state

    def _load_state(self, state: dict) -> None:
        super()._load_state(state)
        rng_state = state["rng"]
        self._rng.setstate(
            (
                int(rng_state["version"]),
                tuple(int(word) for word in rng_state["internal"]),
                rng_state["gauss_next"],
            )
        )
