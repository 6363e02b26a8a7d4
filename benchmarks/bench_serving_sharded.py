"""Sharded serving throughput: multi-process ShardedHub vs one MonitorHub.

The workload is the serving benchmark's 1000-monitor multi-tenant fleet
(same detector mix, same flush sizes).  The single-process hub already runs
every flush through the vectorised ``update_batch`` fast paths, so the only
ceiling left is the GIL-bound event loop — which is exactly what
:class:`~repro.serving.sharded.ShardedHub` removes by fanning each ingest
batch out to N shared-nothing worker processes.

Detections are asserted bit-identical between the two hubs, so the
comparison is pure execution-engine overhead: shared-memory fan-out +
parallel flush vs in-process flush.  The sharded-vs-single speedup is
bounded by the machine's core count; on a single-core container the sharded
hub *pays* the IPC cost without the parallelism (the result file records
the core count for that reason), so that hard assertion only applies on
multi-core hosts.
"""

from __future__ import annotations

import os
import time

from conftest import run_once

from repro.evaluation.reporting import format_table
from repro.serving.hub import MonitorHub
from repro.serving.sharded import ShardedHub
from repro.streams.error_streams import BinarySegment, binary_error_stream

#: Same fleet shape as ``bench_serving_throughput.py``.
_DETECTOR_MIX = [
    ("DDM", None),
    ("HddmA", None),
    ("STEPD", None),
    ("EDDM", None),
    ("OPTWIN", {"w_max": 5_000}),
]

_N_MONITORS = 1_000
_VALUES_PER_MONITOR = 2_048
_FLUSH_SIZE = 1_024
_N_SHARDS = max(2, min(4, os.cpu_count() or 1))


def _fleet_spec():
    for index in range(_N_MONITORS):
        name, params = _DETECTOR_MIX[index % len(_DETECTOR_MIX)]
        yield f"tenant-{index % 20}", f"monitor-{index:04d}", name, params


def _register_fleet(hub):
    for tenant, monitor_id, name, params in _fleet_spec():
        hub.register(tenant, monitor_id, name, params)


def _stream_values():
    """Distinct per-monitor streams (same drift shape, rotated), so every
    monitor's detections are its own."""
    base = binary_error_stream(
        [BinarySegment(1_024, 0.1), BinarySegment(1_024, 0.55)], seed=13
    ).values
    import numpy as np

    return {
        (tenant, monitor_id): np.roll(base, index % 97)
        for index, (tenant, monitor_id, _, _) in enumerate(_fleet_spec())
    }


def _run_hub(hub, values) -> dict:
    detections = {}
    for start in range(0, _VALUES_PER_MONITOR, _FLUSH_SIZE):
        events = [
            (tenant, monitor_id, values[(tenant, monitor_id)][start : start + _FLUSH_SIZE])
            for tenant, monitor_id, _, _ in _fleet_spec()
        ]
        for outcome in hub.ingest(events):
            detections.setdefault(
                (outcome.tenant, outcome.monitor_id), []
            ).extend(outcome.drift_positions)
    return detections


def _run_sharded(values) -> "tuple[dict, float]":
    hub = ShardedHub(_N_SHARDS)
    try:
        _register_fleet(hub)
        start = time.perf_counter()
        detections = _run_hub(hub, values)
        seconds = time.perf_counter() - start
    finally:
        hub.close()
    return detections, seconds


def test_sharded_hub_vs_single_process_hub(benchmark, report):
    values = _stream_values()
    n_events = _N_MONITORS * _VALUES_PER_MONITOR
    n_cores = os.cpu_count() or 1

    single_hub = MonitorHub()
    _register_fleet(single_hub)
    start = time.perf_counter()
    single_detections = _run_hub(single_hub, values)
    single_seconds = time.perf_counter() - start

    sharded_detections, sharded_seconds = run_once(
        benchmark, lambda: _run_sharded(values)
    )

    # Same events, same per-monitor order: detections must be bit-identical
    # across the process boundary.
    assert sharded_detections == single_detections
    assert sum(len(v) for v in sharded_detections.values()) > 0

    speedup = single_seconds / max(sharded_seconds, 1e-9)
    rows = [
        ["path", "wall-clock", "monitors x events/sec"],
        [
            "single-process hub ingest",
            f"{single_seconds:.2f} s",
            f"{n_events / single_seconds:,.0f}",
        ],
        [
            f"sharded ingest ({_N_SHARDS} shards)",
            f"{sharded_seconds:.2f} s",
            f"{n_events / sharded_seconds:,.0f}",
        ],
        ["sharded vs single-process", f"{speedup:.2f}x", ""],
    ]
    report(
        "serving_sharded",
        f"Sharded vs single-process hub, {_N_MONITORS} monitors x "
        f"{_VALUES_PER_MONITOR} values (flushes of {_FLUSH_SIZE}), "
        f"{_N_SHARDS} shards on {n_cores} core(s), detector mix "
        f"{[name for name, _ in _DETECTOR_MIX]}\n"
        + format_table(rows[0], rows[1:]),
    )
    # Parallel scaling needs cores; on a single-core host the sharded hub
    # pays IPC + context switches with nothing to parallelise onto.
    if n_cores >= 2:
        assert speedup >= 1.2, (
            f"sharded hub only {speedup:.2f}x over single-process on "
            f"{n_cores} cores"
        )
