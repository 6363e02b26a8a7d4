"""Shard workers outlive no parent killed without ``close()``.

A fresh interpreter hosts a 2-shard ``ShardedHub``, registers and feeds a
monitor on each shard, reports its worker pids and staging-segment names,
and is then sent ``SIGKILL``: no ``close()``, no ``atexit``.  Each worker
must read EOF on its pipe and exit within 10 s (a zombie left for its new
parent to reap counts as gone), and with the workers gone the resource
tracker unlinks the segments, so none of them may remain in ``/dev/shm``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import json
import sys

import numpy as np

from repro.serving import ShardedHub

hub = ShardedHub(2)
names = {}
for i in range(16):
    names.setdefault(hub.shard_of("t", f"m{i}"), f"m{i}")
values = (np.random.default_rng(3).random(2_000) < 0.3).astype(float)
for shard, name in sorted(names.items()):
    hub.register("t", name, "DDM")
hub.ingest([("t", name, values) for name in names.values()])
print(json.dumps({
    "workers": [hub.worker_pid(i) for i in range(2)],
    "segments": [block.name for block in hub._shm_blocks.values()],
}), flush=True)
sys.stdin.read()
"""

DEADLINE_S = 10.0


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc and /dev/shm")
def test_sigkilled_parent_leaves_no_worker_and_no_segment():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    host = subprocess.Popen(
        [sys.executable, "-c", SCRIPT],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    workers, segments = [], []
    try:
        report = json.loads(host.stdout.readline())
        workers, segments = report["workers"], report["segments"]
        assert len(workers) == 2 and all(_running(pid) for pid in workers)
        assert len(segments) == 2
        host.send_signal(signal.SIGKILL)
        host.wait(timeout=10)
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            left = [pid for pid in workers if _running(pid)]
            shm = [name for name in segments if os.path.exists(f"/dev/shm/{name}")]
            if not left and not shm:
                break
            time.sleep(0.1)
        assert left == [], f"workers {left} still running {DEADLINE_S} s after the parent died"
        assert shm == [], f"segments {shm} still in /dev/shm {DEADLINE_S} s after the parent died"
    finally:
        if host.poll() is None:
            host.kill()
            host.wait(timeout=10)
        host.stdin.close()
        host.stdout.close()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        for name in segments:
            try:
                os.unlink(f"/dev/shm/{name}")
            except FileNotFoundError:
                pass
