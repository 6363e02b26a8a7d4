"""Runtime experiment — per-element update cost of OPTWIN vs the baselines.

Section 3.4 of the paper argues that OPTWIN's ``AddElement`` is O(1) per
element (thanks to the pre-computed cut tables and incremental statistics)
whereas ADWIN needs O(log |W|) bucket checks.  This driver measures the mean
wall-clock cost per element for a range of window sizes and returns the raw
numbers, from which the benchmark prints the comparison; it also reports
OPTWIN's estimated memory footprint (the paper quotes ~390 KB at
``w_max = 25,000``).

Two execution modes are measured for every detector that implements a
vectorised ``update_batch`` fast path:

* ``scalar`` — the classic one-``update``-call-per-element loop, exactly as a
  River-style consumer would drive the detector;
* ``batch`` — the stream is fed in fixed-size chunks through
  ``update_batch``, which amortises the Python interpreter overhead across a
  whole chunk while reporting bit-identical drift indices.

For the batch mode the cut tables are pre-computed before timing starts,
matching the paper's offline pre-computation setting (the scalar mode keeps
the seed behaviour of building its memoised specs lazily during the run).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import DriftDetector
from repro.core.optwin import Optwin
from repro.detectors.adwin import Adwin
from repro.detectors.ddm import Ddm
from repro.detectors.ecdd import Ecdd
from repro.detectors.eddm import Eddm
from repro.detectors.hddm import HddmA
from repro.detectors.kswin import Kswin
from repro.detectors.page_hinkley import PageHinkley
from repro.detectors.rddm import Rddm
from repro.detectors.stepd import Stepd

__all__ = [
    "RuntimeMeasurement",
    "measure_update_cost",
    "measure_batch_cost",
    "run_runtime_comparison",
]

#: Default chunk size used by the batched measurements.
DEFAULT_BATCH_CHUNK = 4096


@dataclass(frozen=True)
class RuntimeMeasurement:
    """Per-element update cost of one detector at one stream length.

    Attributes
    ----------
    detector_name:
        Display name of the detector.
    n_elements:
        Number of elements fed during the measurement.
    seconds_per_element:
        Mean wall-clock seconds per element.
    mode:
        ``"scalar"`` for the per-element ``update`` loop, ``"batch"`` for the
        chunked ``update_batch`` execution path.
    """

    detector_name: str
    n_elements: int
    seconds_per_element: float
    mode: str = "scalar"


def measure_update_cost(
    detector: DriftDetector,
    values: Sequence[float],
) -> float:
    """Mean seconds per ``update`` call over ``values``."""
    start = time.perf_counter()
    for value in values:
        detector.update(value)
    elapsed = time.perf_counter() - start
    return elapsed / max(len(values), 1)


def measure_batch_cost(
    detector: DriftDetector,
    values: Sequence[float],
    chunk_size: int = DEFAULT_BATCH_CHUNK,
) -> float:
    """Mean seconds per element when feeding ``values`` in batched chunks."""
    array = np.ascontiguousarray(values, dtype=np.float64)
    start = time.perf_counter()
    for low in range(0, array.shape[0], chunk_size):
        detector.update_batch(array[low : low + chunk_size])
    elapsed = time.perf_counter() - start
    return elapsed / max(array.shape[0], 1)


def _has_batch_fast_path(detector: DriftDetector) -> bool:
    # The same per-class decision ``DriftDetector.update_batch`` makes.
    return type(detector)._runs_kernel


def run_runtime_comparison(
    stream_lengths: Sequence[int] = (2_000, 8_000, 20_000),
    seed: int = 1,
    detectors: Optional[Dict[str, Callable[[], DriftDetector]]] = None,
    include_batch: bool = True,
    batch_chunk_size: int = DEFAULT_BATCH_CHUNK,
) -> List[RuntimeMeasurement]:
    """Measure per-element cost for every detector at every stream length.

    A drift-free Bernoulli stream is used so windows grow to their maximum and
    the steady-state cost is what gets measured.  When ``include_batch`` is
    set, every detector with a vectorised ``update_batch`` fast path is
    measured a second time in chunked batch mode (on a fresh instance, with
    its pre-computable tables built before the clock starts).
    """
    if detectors is None:
        detectors = {
            "OPTWIN rho=0.5": lambda: Optwin(rho=0.5, w_max=25_000),
            "ADWIN": Adwin,
            "DDM": Ddm,
            "EDDM": Eddm,
            "STEPD": Stepd,
            "ECDD": Ecdd,
            "Page-Hinkley": PageHinkley,
            "KSWIN": Kswin,
            "RDDM": Rddm,
            "HDDM-A": HddmA,
        }
    rng = np.random.default_rng(seed)
    measurements: List[RuntimeMeasurement] = []
    for length in stream_lengths:
        values = (rng.random(length) < 0.3).astype(np.float64)
        for name, factory in detectors.items():
            detector = factory()
            cost = measure_update_cost(detector, values)
            measurements.append(
                RuntimeMeasurement(
                    detector_name=name,
                    n_elements=length,
                    seconds_per_element=cost,
                    mode="scalar",
                )
            )
            if not include_batch:
                continue
            batch_detector = factory()
            if not _has_batch_fast_path(batch_detector):
                continue
            precompute = getattr(batch_detector, "precompute_tables", None)
            if precompute is not None:
                precompute(length)
            batch_cost = measure_batch_cost(
                batch_detector, values, chunk_size=batch_chunk_size
            )
            measurements.append(
                RuntimeMeasurement(
                    detector_name=name,
                    n_elements=length,
                    seconds_per_element=batch_cost,
                    mode="batch",
                )
            )
    return measurements
