"""A 2-shard cluster under each ``multiprocessing`` start method.

``ShardedHub`` starts its workers through the default context, which is
``fork`` on Linux up to Python 3.13 and ``forkserver`` from 3.14 on.  Under
``spawn`` and ``forkserver`` a worker inherits neither the parent's memory
(its cut tables) nor, unless the start method hands it over, the parent's
resource tracker.  Each case runs in a fresh interpreter that sets the
start method first, then drives a 2-shard hub through register (OPTWIN and
DDM monitors on both shards), ingest, checkpoint and close, and resumes it
cold from the checkpoints to feed the rest of the stream.

Detections of every monitor must equal a scalar ``update()`` run, stderr
must carry no ``resource_tracker`` warning, and every shared-memory segment
the hub staged values in must be gone after each close.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Optwin
from repro.detectors import Ddm

SRC = Path(__file__).resolve().parents[2] / "src"

MONITORS = {
    "optwin-a": ("OPTWIN", {"w_max": 500}),
    "optwin-b": ("OPTWIN", {"w_max": 500}),
    "ddm-a": ("DDM", None),
    "ddm-b": ("DDM", None),
}

SCRIPT = r"""
import json
import multiprocessing
import sys
from multiprocessing import shared_memory

import numpy as np

method, checkpoint_dir, monitors = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
multiprocessing.set_start_method(method)

from repro.serving import ShardedHub

rates = np.repeat([0.15, 0.6, 0.15, 0.6], 1_000)
values = (np.random.default_rng(11).random(rates.size) < rates).astype(float)
report = {"drifts": {name: [] for name in monitors}, "segments_left": []}


def run(stream, register):
    hub = ShardedHub(2, checkpoint_dir=checkpoint_dir)
    try:
        if register:
            for name, (detector, params) in monitors.items():
                hub.register("t", name, detector, params)
        report["shards"] = sorted({hub.shard_of("t", name) for name in monitors})
        for start in range(0, stream.size, 250):
            piece = stream[start : start + 250]
            for outcome in hub.ingest([("t", name, piece) for name in monitors]):
                report["drifts"][outcome.monitor_id].extend(outcome.drift_positions)
        hub.checkpoint()
        segments = [block.name for block in hub._shm_blocks.values()]
    finally:
        hub.close()
    for name in segments:
        try:
            shared_memory.SharedMemory(name=name).close()
        except FileNotFoundError:
            continue
        report["segments_left"].append(name)


run(values[:2_000], register=True)
run(values[2_000:], register=False)
print(json.dumps(report))
"""


def _scalar_drifts() -> dict:
    rates = np.repeat([0.15, 0.6, 0.15, 0.6], 1_000)
    values = (np.random.default_rng(11).random(rates.size) < rates).astype(float)
    drifts = {}
    for name, (detector_name, params) in MONITORS.items():
        detector = Optwin(**params) if detector_name == "OPTWIN" else Ddm()
        drifts[name] = [
            i for i, value in enumerate(values) if detector.update(value).drift_detected
        ]
    return drifts


@pytest.mark.parametrize(
    "method",
    [
        pytest.param(
            method,
            marks=pytest.mark.skipif(
                method not in multiprocessing.get_all_start_methods(),
                reason=f"no {method} start method on this platform",
            ),
        )
        for method in ("fork", "spawn", "forkserver")
    ],
)
def test_sharded_hub_resumes_under_start_method(tmp_path, method):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, method, str(tmp_path), json.dumps(MONITORS)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "resource_tracker" not in completed.stderr, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["shards"] == [0, 1]
    assert report["segments_left"] == []
    expected = _scalar_drifts()
    assert all(expected.values()), "every monitor must drift on the stream"
    assert report["drifts"] == expected
