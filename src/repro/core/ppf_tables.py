"""Per-window-length cut tables (Section 3.4 of the OPTWIN paper).

The optimal split ``nu`` and the F/t thresholds depend only on the window
length, the robustness ``rho`` and the per-test confidences — never on the
data.  The paper therefore pre-computes them once and stores them in lists
indexed by ``|W|``.

:class:`CutTable` is that store for one configuration: five arrays indexed by
the window length, filled in length order up to the longest window asked for
so far, each length's search starting from the previous length's split.  The
scalar and the batched OPTWIN paths read the same arrays.  Tables are shared
process-wide through :func:`get_cut_table`, so thirty repetitions of an
experiment (or many detector instances inside a pipeline) fill them once.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.optimal_cut import SplitSpec, optimal_split
from repro.exceptions import ConfigurationError
from repro.stats.distributions import f_ppf, t_ppf

__all__ = ["CutTable", "get_cut_table"]

#: Shortest window :func:`optimal_split` accepts; shorter entries stay zero.
_MIN_LENGTH = 4
_ARRAYS = ("n_hist", "f_critical", "t_critical", "f_warning", "t_warning")


class CutTable:
    """Split size and F/t thresholds of one configuration, indexed by ``|W|``.

    Parameters
    ----------
    rho:
        Robustness parameter.
    confidence:
        Per-test confidence ``delta'`` of the drift tests.
    warning_confidence:
        Per-test confidence of the warning tests, or ``None`` when warnings
        are off (the warning arrays then stay zero).

    Attributes
    ----------
    max_length:
        Longest window length filled so far.  Entries up to it never change,
        so a reader may index them without the lock.
    n_hist:
        ``int64``; ``n_hist[L]`` is the historical sub-window size at
        ``|W| = L``.
    f_critical, t_critical:
        ``float64`` drift thresholds of that split.
    f_warning, t_warning:
        ``float64`` warning thresholds of that split.
    """

    def __init__(
        self, rho: float, confidence: float, warning_confidence: Optional[float]
    ) -> None:
        self.rho = rho
        self.confidence = confidence
        self.warning_confidence = warning_confidence
        self.max_length = _MIN_LENGTH - 1
        self.n_hist = np.zeros(_MIN_LENGTH, dtype=np.int64)
        self.f_critical = np.zeros(_MIN_LENGTH)
        self.t_critical = np.zeros(_MIN_LENGTH)
        self.f_warning = np.zeros(_MIN_LENGTH)
        self.t_warning = np.zeros(_MIN_LENGTH)
        self._last: Optional[SplitSpec] = None
        self._lock = threading.Lock()

    def grow(self, max_length: int) -> None:
        """Fill the table for every window length up to ``max_length``."""
        if max_length < _MIN_LENGTH:
            raise ConfigurationError(
                f"window length must be >= {_MIN_LENGTH}, got {max_length}"
            )
        if max_length <= self.max_length:
            return
        with self._lock:
            start = self.max_length + 1
            if max_length < start:
                return
            if max_length >= self.n_hist.shape[0]:
                # Double the capacity, so a window growing one element at a
                # time copies each entry a bounded number of times.
                size = max(max_length + 1, 2 * self.n_hist.shape[0])
                for name in _ARRAYS:
                    grown = np.zeros(size, dtype=getattr(self, name).dtype)
                    grown[:start] = getattr(self, name)[:start]
                    setattr(self, name, grown)
            warning_confidence = self.warning_confidence
            spec = self._last
            for length in range(start, max_length + 1):
                spec = self._split(length, spec)
                self.n_hist[length] = spec.nu_split
                self.f_critical[length] = spec.f_critical
                self.t_critical[length] = spec.t_critical
                if warning_confidence is not None:
                    self.f_warning[length] = f_ppf(
                        warning_confidence, spec.n_new - 1, spec.n_hist - 1
                    )
                    self.t_warning[length] = t_ppf(
                        warning_confidence, spec.degrees_of_freedom
                    )
            self._last = spec
            self.max_length = max_length

    def _split(self, length: int, previous: Optional[SplitSpec]) -> SplitSpec:
        """The split at ``length``, given the split at ``length - 1``."""
        hint = previous.nu_split if previous is not None and previous.solved else None
        return optimal_split(length, self.rho, self.confidence, hint=hint)


_TABLES: Dict[Tuple[float, float, Optional[float]], CutTable] = {}


def get_cut_table(
    rho: float, confidence: float, warning_confidence: Optional[float]
) -> CutTable:
    """Return the process-wide :class:`CutTable` of this configuration."""
    key = (rho, confidence, warning_confidence)
    table = _TABLES.get(key)
    if table is None:
        # setdefault is atomic, so racing callers share the first table.
        table = _TABLES.setdefault(key, CutTable(rho, confidence, warning_confidence))
    return table
