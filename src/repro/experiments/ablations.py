"""Ablation studies of OPTWIN's design choices.

DESIGN.md calls out three design decisions worth isolating:

* **F-test on variances** (A1) — the paper's motivating example is a drift
  where only the variance changes; without the F-test OPTWIN degenerates to a
  mean-only detector and misses those drifts entirely.
* **Optimal cut vs 50/50 split** (A2) — the optimal cut maximises the
  historical window while guaranteeing detection of a ``rho``-sized drift;
  forcing ``nu = 0.5`` changes the delay/FP trade-off.
* **Robustness rho** (A3) — the sensitivity sweep over ``rho`` values, the
  paper's own Section 4.1 discussion.

Each driver returns per-variant summaries over repeated runs so the
benchmarks can print comparable rows.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.config import OptwinConfig
from repro.core.optimal_cut import SplitSpec, _spec_for_split
from repro.core.optwin import Optwin
from repro.core.ppf_tables import CutTable
from repro.evaluation.experiment import DetectorSummary, ExperimentRunner
from repro.streams.base import ValueStream
from repro.streams.error_streams import (
    BinarySegment,
    GaussianSegment,
    binary_error_stream,
    gaussian_error_stream,
)

__all__ = [
    "run_ftest_ablation",
    "run_optimal_cut_ablation",
    "run_rho_sensitivity",
    "run_magnitude_gate_ablation",
]


class _HalfSplitTable(CutTable):
    """Cut table whose split is always ``nu = 0.5``, with that split's thresholds."""

    def _split(self, length: int, previous: Optional[SplitSpec]) -> SplitSpec:
        return _spec_for_split(length, length // 2, self.confidence, solved=False)


class _FixedSplitOptwin(Optwin):
    """OPTWIN variant that always splits the window 50/50 (ablation A2).

    It owns a private 50/50 table instead of the shared optimal one, so its
    scalar and batched paths both read the fixed split.
    """

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        table = self._cut_table
        self._cut_table = _HalfSplitTable(
            table.rho, table.confidence, table.warning_confidence
        )


def _variance_only_stream(seed: int, segment_length: int = 3_000) -> ValueStream:
    """A stream whose drift changes only the standard deviation of the errors."""
    segments = [
        GaussianSegment(segment_length, mean=0.5, std=0.05),
        GaussianSegment(segment_length, mean=0.5, std=0.30),
    ]
    return gaussian_error_stream(segments, width=1, seed=seed)


def _mean_shift_binary_stream(seed: int, segment_length: int = 3_000) -> ValueStream:
    segments = [BinarySegment(segment_length, 0.2), BinarySegment(segment_length, 0.6)]
    return binary_error_stream(segments, width=1, seed=seed)


def run_ftest_ablation(
    n_repetitions: int = 10,
    segment_length: int = 3_000,
    base_seed: int = 1,
) -> Dict[str, DetectorSummary]:
    """A1: OPTWIN with and without the variance (F) test on a variance-only drift.

    The "without F-test" variant is emulated by an OPTWIN whose one-sided mean
    gate blocks the variance path: we instantiate OPTWIN with ``one_sided``
    mean checks but replace the variance branch by configuring an effectively
    unreachable F threshold through a two-sided mean-only detector built from
    the same machinery.
    """
    runner = ExperimentRunner(n_repetitions=n_repetitions, base_seed=base_seed)

    def stream_factory(seed: int) -> ValueStream:
        return _variance_only_stream(seed, segment_length)

    factories: Dict[str, Callable[[], Optwin]] = {
        "OPTWIN (t + F tests)": lambda: Optwin(rho=0.5, one_sided=False),
        "OPTWIN (t test only)": lambda: _MeanOnlyOptwin(rho=0.5, one_sided=False),
    }
    return runner.run_value_experiment(factories, stream_factory)


class _MeanOnlyOptwin(Optwin):
    """OPTWIN variant whose F-test never fires (ablation A1)."""

    def _update_one(self, value):  # type: ignore[override]
        result = super()._update_one(value)
        if result.drift_detected and result.drift_type is not None:
            if result.drift_type.value == "variance":
                # Suppress the variance detection: rebuild the window as if
                # nothing had happened by replaying nothing (the window was
                # already reset); simply report "no drift".
                from repro.core.base import DetectionResult

                return DetectionResult(
                    warning_detected=result.warning_detected,
                    statistics=result.statistics,
                )
        return result


def run_optimal_cut_ablation(
    n_repetitions: int = 10,
    segment_length: int = 3_000,
    base_seed: int = 1,
) -> Dict[str, DetectorSummary]:
    """A2: optimal cut vs a fixed 50/50 split on a sudden binary drift."""
    runner = ExperimentRunner(n_repetitions=n_repetitions, base_seed=base_seed)

    def stream_factory(seed: int) -> ValueStream:
        return _mean_shift_binary_stream(seed, segment_length)

    factories: Dict[str, Callable[[], Optwin]] = {
        "OPTWIN (optimal cut)": lambda: Optwin(rho=0.5),
        "OPTWIN (fixed 50/50 cut)": lambda: _FixedSplitOptwin(rho=0.5),
    }
    return runner.run_value_experiment(factories, stream_factory)


def run_rho_sensitivity(
    rhos: Optional[List[float]] = None,
    n_repetitions: int = 10,
    segment_length: int = 3_000,
    base_seed: int = 1,
) -> Dict[str, DetectorSummary]:
    """A3: sensitivity of delay/FP/F1 to the robustness parameter rho."""
    rhos = rhos or [0.1, 0.25, 0.5, 1.0, 2.0]
    runner = ExperimentRunner(n_repetitions=n_repetitions, base_seed=base_seed)

    def stream_factory(seed: int) -> ValueStream:
        return _mean_shift_binary_stream(seed, segment_length)

    factories: Dict[str, Callable[[], Optwin]] = {
        f"OPTWIN rho={rho}": (lambda rho=rho: Optwin(rho=rho)) for rho in rhos
    }
    return runner.run_value_experiment(factories, stream_factory)


def run_magnitude_gate_ablation(
    n_repetitions: int = 10,
    segment_length: int = 5_000,
    base_seed: int = 1,
) -> Dict[str, DetectorSummary]:
    """A4: effect of the rho-magnitude gate on the false-positive rate.

    The gate is the implementation detail that enforces the paper's definition
    of the robustness parameter (a mean shift below ``rho * sigma_hist`` is
    not a drift); disabling it recovers a pure significance test and shows why
    the gate matters for OPTWIN's low FP rates.
    """
    runner = ExperimentRunner(n_repetitions=n_repetitions, base_seed=base_seed)

    def stream_factory(seed: int) -> ValueStream:
        return _mean_shift_binary_stream(seed, segment_length)

    factories: Dict[str, Callable[[], Optwin]] = {
        "OPTWIN (with magnitude gate)": lambda: Optwin(
            config=OptwinConfig(rho=0.5, require_magnitude=True)
        ),
        "OPTWIN (significance only)": lambda: Optwin(
            config=OptwinConfig(rho=0.5, require_magnitude=False)
        ),
    }
    return runner.run_value_experiment(factories, stream_factory)
