"""Serving processes never load scipy.

The hubs build OPTWIN's cut tables in a forked child, so neither the hub
process nor a shard worker imports :mod:`scipy` or maps its shared objects.
Each phase runs in a fresh interpreter, where nothing else has imported
scipy, and prints what it found as one JSON line:

* ``serve`` registers and feeds OPTWIN monitors through a
  :class:`~repro.serving.MonitorHub` and a 2-shard
  :class:`~repro.serving.ShardedHub`, then checkpoints the sharded hub;
* ``restart`` resumes that hub cold from its checkpoints in another fresh
  interpreter.  The parent builds the table the cluster manifest lists, in
  a child, before it forks the workers, which inherit it; registering the
  restored configuration again builds nothing.  Then it feeds the rest of
  the stream.

Detections of every monitor must equal a scalar ``Optwin.update()`` run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Optwin

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and os.path.isdir("/proc/self")),
    reason="needs os.fork and /proc",
)

SRC = Path(__file__).resolve().parents[2] / "src"
PARAMS = {"w_max": 500}
SPLIT = 2_000

SCRIPT = r"""
import json
import os
import sys

import numpy as np

from repro import Optwin
from repro.core import ppf_tables
from repro.serving import MonitorHub, ShardedHub

phase, checkpoint_dir = sys.argv[1], sys.argv[2]
params = json.loads(sys.argv[3])
split = int(sys.argv[4])
rates = np.repeat([0.15, 0.6, 0.15, 0.6], 1_000)
values = (np.random.default_rng(11).random(rates.size) < rates).astype(float)
report = {"builds": [], "table_length_at_spawn": []}


def table_length():
    return Optwin(**params)._cut_table.max_length


def counted_build(table, max_length, build=ppf_tables._image_from_child):
    report["builds"].append(max_length)
    return build(table, max_length)


def recording_spawn(hub, index, resume, spawn=ShardedHub._spawn):
    report["table_length_at_spawn"].append(table_length())
    spawn(hub, index, resume)


# Only this process's builds are counted: forked workers count in their own
# copies of the list.
ppf_tables._image_from_child = counted_build
ShardedHub._spawn = recording_spawn


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


def scipy_mappings(pid):
    # numpy's bundled libscipy_openblas lives under numpy.libs, not scipy.
    found = set()
    with open(f"/proc/{pid}/maps") as handle:
        for line in handle:
            fields = line.split()
            parts = fields[-1].split("/") if len(fields) >= 6 else []
            if "scipy" in parts or "scipy.libs" in parts:
                found.add(fields[-1])
    return sorted(found)


# In the serve phase the workers fork before any table exists in this
# process; a cold restart first builds the table the manifest lists.
sharded = ShardedHub(2, checkpoint_dir=checkpoint_dir)
if phase == "serve":
    hub = MonitorHub()
    hub.register("t", "single", "OPTWIN", params)
    report["single"] = hub.observe("t", "single", values).drift_positions
    hub.close()
else:
    report["parent_table_length"] = table_length()
    report["restart_builds"] = list(report["builds"])
    sharded.register("t", "m0", "OPTWIN", params, exist_ok=True)
    sharded.register("t", "extra", "OPTWIN", params)
with sharded:
    keys = [("t", f"m{index}") for index in range(6)]
    assert {sharded.shard_of(*key) for key in keys} == {0, 1}
    chunk = values[:split] if phase == "serve" else values[split:]
    if phase == "serve":
        for key in keys:
            sharded.register(*key, "OPTWIN", params)
    report["sharded"] = {
        key[1]: sharded.observe(*key, chunk).drift_positions for key in keys
    }
    report["worker_maps"] = [scipy_mappings(sharded.worker_pid(i)) for i in range(2)]
    if phase == "serve":
        sharded.checkpoint()
report["modules"] = scipy_modules()
report["hub_maps"] = scipy_mappings(os.getpid())
print(json.dumps(report))
"""


def _run(phase: str, checkpoint_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT,
            phase,
            str(checkpoint_dir),
            json.dumps(PARAMS),
            str(SPLIT),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _scalar_drifts() -> list:
    rates = np.repeat([0.15, 0.6, 0.15, 0.6], 1_000)
    values = (np.random.default_rng(11).random(rates.size) < rates).astype(float)
    detector = Optwin(**PARAMS)
    return [i for i, value in enumerate(values) if detector.update(value).drift_detected]


def test_no_serving_process_loads_scipy(tmp_path):
    served = _run("serve", tmp_path)
    restarted = _run("restart", tmp_path)
    for report in (served, restarted):
        assert report["modules"] == []
        assert report["hub_maps"] == []
        assert report["worker_maps"] == [[], []]
    assert served["table_length_at_spawn"] == [3, 3]
    assert served["builds"] == [PARAMS["w_max"]]
    # The cold restart built the manifest's table once, in the parent,
    # before either worker forked, and the registers built nothing more.
    assert restarted["table_length_at_spawn"] == [PARAMS["w_max"]] * 2
    assert restarted["parent_table_length"] == PARAMS["w_max"]
    assert restarted["restart_builds"] == [PARAMS["w_max"]]
    assert restarted["builds"] == [PARAMS["w_max"]]

    expected = _scalar_drifts()
    assert expected, "the stream must drift for the comparison to mean anything"
    assert served["single"] == expected
    # Positions count from the monitor's first value, across the restart.
    for monitor, before in served["sharded"].items():
        assert before + restarted["sharded"][monitor] == expected, monitor
