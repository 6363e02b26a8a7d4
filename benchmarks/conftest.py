"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  By default the
workloads are scaled down so the whole suite finishes on a laptop in a few
minutes while preserving the shape of each comparison; set the environment
variable ``REPRO_BENCH_SCALE=paper`` to run the paper-sized configurations
(100,000-instance streams, 30 repetitions — this takes hours).

Results are printed to stdout (visible with ``pytest -s``) and also appended to
``benchmarks/results/`` so they survive pytest's output capture.
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def _paper_scale() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "small").lower() == "paper"


@pytest.fixture(scope="session")
def scale():
    """Workload sizes used by the benchmark drivers."""
    if _paper_scale():
        return {
            "n_repetitions": 30,
            "segment_length": 10_000,
            "gradual_width": 1_000,
            "n_instances": 100_000,
            "drift_every": 20_000,
            "w_max": 25_000,
            "nn_batches": 2_000,
            "nn_fine_tune": 200,
            "table2_instances": 100_000,
            "table2_drift_every": 20_000,
        }
    return {
        "n_repetitions": 3,
        "segment_length": 2_500,
        "gradual_width": 600,
        "n_instances": 12_000,
        "drift_every": 3_000,
        "w_max": 25_000,
        "nn_batches": 400,
        "nn_fine_tune": 40,
        "table2_instances": 4_000,
        "table2_drift_every": 2_000,
    }


@pytest.fixture(scope="session")
def report():
    """Print a result block and persist it under ``benchmarks/results/``.

    With ``scratch=True`` the block goes to the gitignored
    ``benchmarks/scratch/`` instead: for a run whose scale differs from the
    one the committed table was measured at.
    """

    def _report(name: str, text: str, scratch: bool = False) -> None:
        print(f"\n{text}\n")
        directory = RESULTS_DIR.parent / "scratch" if scratch else RESULTS_DIR
        directory.mkdir(exist_ok=True)
        output_path = directory / f"{name}.txt"
        output_path.write_text(text + "\n", encoding="utf-8")

    return _report


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
