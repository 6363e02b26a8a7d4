"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

* every workload, at reduced scale and in both modes, reports exactly the
  metrics ``BENCHMARK.json`` declares, with their units;
* a doctored reference makes the run fail;
* a run interrupted mid-workload — SIGTERM or SIGINT to the benchmark, or
  SIGKILL to a sharded server whose workers then outlive it — leaves no
  process of the server's session alive and no CPU meter, and so does an
  interrupt that lands while a server is being started;
* the server starts with no signal blocked;
* outside a repository checkout the command fails without a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import procs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = ["--seed", "7", "--seconds", "2", "--scale", "0.1"]


def _declared() -> Dict[str, Dict[str, str]]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _bench(args: List[str], cwd: Path = REPO) -> subprocess.Popen:
    """The benchmark command, run from ``cwd`` as from a checkout root."""
    return subprocess.Popen(
        [sys.executable, f"{HERE.name}/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _live_in_session(sid: int) -> Dict[int, str]:
    return {pid: state for pid, state in procs.session_members(sid).items() if state != "Z"}


def _live_copies(bench: subprocess.Popen) -> List[int]:
    """Live processes running the benchmark's command line (its meters)."""
    wanted = "\0".join(bench.args).encode()
    found = []
    for pid in procs._all_pids():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read().rstrip(b"\0")
        except OSError:
            continue
        fields = procs._stat_fields(pid)
        if cmdline == wanted and fields and fields[0] != "Z":
            found.append(pid)
    return found


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_run_reports_every_declared_metric(workload: str, trace: str) -> None:
    bench = _bench(["--workload", workload, "--trace", trace, *SMALL])
    out, err = bench.communicate(timeout=300)
    assert bench.returncode == 0, err.decode()
    result = json.loads(out.decode().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared()[trace]
    if trace == "1":
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["hub.calls"] > 0
        assert (REPO / run.OUT_DIR / f"{workload}-seed7.trace.json").is_file()
        if workload == "mixed-sharded":
            assert metrics["sharded.worker_busy_s.shard-00"] > 0
            assert metrics["sharded.worker_busy_s.shard-01"] > 0
            assert metrics["wal.commits"] > 0
        else:
            assert metrics["sharded.calls"] == 0 and metrics["wal.commits"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_doctored_reference_fails_the_run(monkeypatch, capsys) -> None:
    honest = workloads.reference_drifts

    def doctored(monitor, values):
        return [p + 1 for p in honest(monitor, values)] or [0]

    monkeypatch.setattr(workloads, "reference_drifts", doctored)
    monkeypatch.chdir(REPO)
    previous = signal.getsignal(signal.SIGTERM)
    try:
        code = run.main(["--workload", "bulk-ingest", "--trace", "0", *SMALL])
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def _start_mid_workload() -> "tuple[subprocess.Popen, int]":
    """A long sharded run, returned once its server's workers are up."""
    bench = _bench(["--workload", "mixed-sharded", "--seed", "3", "--seconds", "60", "--trace", "1", "--scale", "0.1"])
    assert bench.stderr is not None
    line = bench.stderr.readline().decode()
    match = re.search(r"server pid=(\d+) session=(\d+)", line)
    assert match, line
    server = int(match.group(1))
    deadline = time.monotonic() + 60
    while len(procs.children(server)) < 2:
        assert time.monotonic() < deadline, "shard workers never started"
        time.sleep(0.05)
    time.sleep(2.0)  # registration and warm-up are done: the window runs
    return bench, int(match.group(2))


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_interrupted_run_leaves_no_process(signum: int) -> None:
    bench, sid = _start_mid_workload()
    bench.send_signal(signum)
    out, _ = bench.communicate(timeout=120)
    assert bench.returncode not in (0, None)
    assert b'"correct"' not in out
    assert _live_in_session(sid) == {}
    assert _live_copies(bench) == []


def test_killed_sharded_server_leaves_no_worker() -> None:
    bench, sid = _start_mid_workload()
    workers = procs.children(sid)
    os.kill(sid, signal.SIGKILL)
    out, _ = bench.communicate(timeout=120)
    assert bench.returncode not in (0, None)
    assert b'"correct"' not in out
    assert _live_in_session(sid) == {}
    assert _live_copies(bench) == []
    assert all(procs.cpu_seconds(pid) == 0.0 for pid in workers)


def test_interrupt_while_the_server_starts_leaves_no_process(monkeypatch) -> None:
    """An interrupt that lands between the fork and ``__enter__`` returning."""
    started: List[int] = []
    real_popen = subprocess.Popen

    def popen_then_interrupt(*args, **kwargs):
        proc = real_popen(*args, **kwargs)
        started.append(proc.pid)
        os.kill(os.getpid(), signal.SIGINT)  # held back until the server is owned
        return proc

    monkeypatch.setattr(procs.subprocess, "Popen", popen_then_interrupt)
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    with pytest.raises(KeyboardInterrupt):
        with procs.ServerProcess(sleeper, dict(os.environ), str(REPO)):
            pytest.fail("the block ran although the start was interrupted")
    assert started and _live_in_session(started[0]) == {}


def test_server_starts_with_no_signal_blocked() -> None:
    # The child reports the size of its blocked-signal set as its "port".
    child = (
        "import signal, time\n"
        "print('READY port=%d' % len(signal.pthread_sigmask(signal.SIG_BLOCK, [])), flush=True)\n"
        "time.sleep(60)\n"
    )
    with procs.ServerProcess([sys.executable, "-c", child], dict(os.environ), str(REPO)) as server:
        assert server.wait_ready() == 0


def test_outside_a_checkout_fails_without_result(tmp_path: Path) -> None:
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    bench = _bench(["--workload", "bulk-ingest", "--trace", "0", *SMALL], cwd=tmp_path)
    out, _ = bench.communicate(timeout=180)
    assert bench.returncode not in (0, None)
    assert out.strip() == b""
