"""Crash-point matrix for the durable alert bus (WAL + replay).

Exactly-once delivery is exercised at both crash points, for a single hub
and for a 2-shard cluster:

* **after WAL append, before sink emit** — injected with the
  ``REPRO_WAL_FAILPOINT=kill-after-alert:N`` failpoint, which fsyncs the Nth
  alert append and then SIGKILLs the process from inside the WAL, so the
  alert is durable but no sink ever saw it;
* **after emit, before checkpoint** — an external SIGKILL between a
  checkpoint and the next one, so alerts were delivered live but the
  checkpoint does not yet cover them.

In every cell the client stitches the pre-crash and post-restart alert
streams, deduplicates by the per-monitor sequence number, and must recover
*exactly* the alert stream of an uninterrupted run: nothing lost, duplicates
only as ``redelivered``-flagged WAL replays.

Also here: the cluster-manifest/WAL mis-assembly regression — resuming a
sharded cluster against WAL directories whose identity or segment sequence
disagrees with the manifest must refuse with ``SnapshotError`` instead of
replaying another cluster's alerts.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ShardError, SnapshotError
from repro.serving import (
    MonitorHub,
    QueueSink,
    ShardedHub,
    default_slot_assignment,
    route_slot,
)
from repro.serving.wal import FAILPOINT_ENV, WAL_META_FILENAME

REPO_ROOT = Path(__file__).resolve().parents[2]

_DETECTOR = "DDM"


def _error_values():
    """A 1000-element binary error stream with a mid-stream error-rate jump.

    DDM over it fires 6 alerts (warnings at 196/205/209/509/764, a drift at
    522) — enough structure to land alerts on both sides of every crash
    point in the matrix.
    """
    rng = np.random.default_rng(7)
    return np.concatenate(
        [(rng.random(500) < 0.1), (rng.random(500) < 0.65)]
    ).astype(float)


def _reference_alerts(values):
    """``seq -> (kind, position)`` of an uninterrupted run of one monitor."""
    queue = QueueSink()
    hub = MonitorHub(sinks=[queue])
    hub.register("t", "m", _DETECTOR)
    hub.observe("t", "m", values)
    hub.close()
    return {alert.seq: (alert.kind, alert.position) for alert in queue.drain()}


def _assert_exactly_once(received, reference, monitor_key=None):
    """Dedup ``received`` alert dicts by seq; must equal ``reference``.

    Duplicates are tolerated only when at least one copy is a flagged WAL
    redelivery, and every copy of a seq must describe the same event.
    """
    by_seq = {}
    duplicates = set()
    for alert in received:
        if monitor_key is not None and (
            alert["tenant"],
            alert["monitor_id"],
        ) != monitor_key:
            continue
        seq = alert["seq"]
        event = (alert["kind"], alert["position"])
        if seq in by_seq:
            duplicates.add(seq)
            previous, any_redelivered = by_seq[seq]
            assert event == previous, f"seq {seq} delivered two different events"
            by_seq[seq] = (previous, any_redelivered or alert["redelivered"])
        else:
            by_seq[seq] = (event, alert["redelivered"])
    assert {seq: event for seq, (event, _) in by_seq.items()} == reference
    for seq in duplicates:
        assert by_seq[seq][1], f"seq {seq} duplicated without a WAL redelivery"


# ----------------------------------------------------------- subprocess rig


class _Client:
    """Blocking JSON-lines client that reports a died server as ``None``."""

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self._file = self._sock.makefile("rwb")

    def rpc(self, request: dict):
        try:
            self._file.write((json.dumps(request) + "\n").encode())
            self._file.flush()
            line = self._file.readline()
        except OSError:
            return None
        if not line:
            return None
        return json.loads(line)

    def close(self) -> None:
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass


def _start_server(checkpoint_dir: Path, wal_dir: Path, failpoint=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env.pop(FAILPOINT_ENV, None)
    if failpoint is not None:
        env[FAILPOINT_ENV] = failpoint
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serving",
            "--port",
            "0",
            "--checkpoint-dir",
            str(checkpoint_dir),
            "--wal-dir",
            str(wal_dir),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    ready = process.stdout.readline()
    assert ready.startswith("READY "), f"unexpected startup line: {ready!r}"
    fields = dict(part.split("=") for part in ready.split()[1:])
    return process, int(fields["port"])


def _drain(client, received):
    response = client.rpc({"op": "alerts"})
    if response is None:
        return False
    received.extend(response["alerts"])
    return True


def _register(client, exist_ok=False):
    return client.rpc(
        {
            "op": "register",
            "tenant": "t",
            "monitor": "m",
            "detector": _DETECTOR,
            "exist_ok": exist_ok,
        }
    )


def _finish_stream_and_verify(client, values, received, reference):
    """Post-restart half of every single-hub cell: replay + verify."""
    # The WAL tail past the last checkpoint comes back as flagged replays.
    response = client.rpc({"op": "alerts"})
    assert response is not None and response["ok"]
    assert all(alert["redelivered"] for alert in response["alerts"])
    assert response["alerts"], "restart re-delivered nothing from the WAL"
    received.extend(response["alerts"])

    # The producer resumes from the restored position and replays the rest;
    # re-fires of replayed alerts are suppressed, new alerts keep flowing.
    registered = _register(client, exist_ok=True)
    assert registered["ok"], registered
    position = registered["n_seen"]
    for start in range(position, len(values), 100):
        response = client.rpc(
            {
                "op": "observe",
                "tenant": "t",
                "monitor": "m",
                "values": values[start : start + 100].tolist(),
            }
        )
        assert response is not None and response["ok"]
        assert _drain(client, received)

    # The durable history op serves the stitched stream too.
    history = client.rpc({"op": "alerts_history", "tenant": "t"})
    assert history["ok"]
    history_seqs = {alert["seq"] for alert in history["alerts"]}
    assert set(reference) <= history_seqs

    metrics = client.rpc({"op": "metrics"})["metrics"]
    assert metrics["n_wal_replayed"] >= 1
    assert metrics["wal"]["n_alerts"] >= 1

    _assert_exactly_once(received, reference)


def test_single_hub_sigkill_after_wal_append_before_emit(tmp_path):
    """Failpoint cell: the dying process logged an alert no sink ever saw."""
    values = _error_values()
    reference = _reference_alerts(values)
    ckpt, wal = tmp_path / "ckpt", tmp_path / "wal"

    process, port = _start_server(ckpt, wal, failpoint="kill-after-alert:4")
    received = []
    try:
        client = _Client(port)
        assert _register(client)["ok"]
        died = False
        for start in range(0, len(values), 100):
            response = client.rpc(
                {
                    "op": "observe",
                    "tenant": "t",
                    "monitor": "m",
                    "values": values[start : start + 100].tolist(),
                }
            )
            if response is None or not _drain(client, received):
                died = True
                break
        assert died, "failpoint never fired"
        assert process.wait(timeout=30) == -signal.SIGKILL
        client.close()
    finally:
        if process.poll() is None:  # pragma: no cover - defensive
            process.kill()

    # Alert 4 is durable in the WAL but was never emitted; alerts 1-3 were
    # delivered live before the kill.
    assert {alert["seq"] for alert in received} == {1, 2, 3}

    process, port = _start_server(ckpt, wal)
    try:
        client = _Client(port)
        _finish_stream_and_verify(client, values, received, reference)
        client.close()
    finally:
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)


def test_single_hub_sigkill_after_emit_before_checkpoint(tmp_path):
    """External-SIGKILL cell: delivered alerts the checkpoint doesn't cover."""
    values = _error_values()
    reference = _reference_alerts(values)
    ckpt, wal = tmp_path / "ckpt", tmp_path / "wal"

    process, port = _start_server(ckpt, wal)
    received = []
    try:
        client = _Client(port)
        assert _register(client)["ok"]
        response = client.rpc(
            {"op": "observe", "tenant": "t", "monitor": "m", "values": values[:500].tolist()}
        )
        assert response["ok"] and _drain(client, received)
        assert client.rpc({"op": "snapshot"})["ok"]  # checkpoint covers seq 1-3
        response = client.rpc(
            {"op": "observe", "tenant": "t", "monitor": "m", "values": values[500:600].tolist()}
        )
        assert response["ok"] and _drain(client, received)
        client.close()
    finally:
        process.kill()  # SIGKILL: no shutdown checkpoint
        process.wait(timeout=30)

    # Seqs 4-5 were delivered live after the checkpoint — the restart will
    # re-deliver exactly those from the WAL (flagged), making them the only
    # tolerated duplicates.
    assert {alert["seq"] for alert in received} == {1, 2, 3, 4, 5}

    process, port = _start_server(ckpt, wal)
    try:
        client = _Client(port)
        registered = _register(client, exist_ok=True)
        assert registered["n_seen"] == 500  # resumed at the checkpoint
        _finish_stream_and_verify(client, values, received, reference)
        client.close()
    finally:
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)


# ------------------------------------------------------------- sharded cells


def _two_monitor_ids(n_shards: int = 2):
    """Two monitor ids under one tenant that route to different shards."""
    table = default_slot_assignment(n_shards)
    first = "m-0"
    target = 1 - table[route_slot("t", first)]
    index = 1
    while table[route_slot("t", f"m-{index}")] != target:
        index += 1
    return [first, f"m-{index}"]


def _dict_alerts(alerts):
    return [alert.to_dict() for alert in alerts]


def test_sharded_sigkill_after_wal_append_before_emit(tmp_path, monkeypatch):
    """Failpoint cell on a 2-shard cluster: one worker dies mid-append."""
    values = _error_values()
    reference = _reference_alerts(values)
    monitors = _two_monitor_ids()
    ckpt, wal = tmp_path / "ckpt", tmp_path / "wal"

    monkeypatch.setenv(FAILPOINT_ENV, "kill-after-alert:4")
    received = []
    hub = ShardedHub(2, checkpoint_dir=ckpt, wal_dir=wal)
    try:
        for monitor in monitors:
            hub.register("t", monitor, _DETECTOR)
        died = False
        for start in range(0, len(values), 100):
            chunk = values[start : start + 100]
            try:
                hub.ingest([("t", monitor, chunk) for monitor in monitors])
            except ShardError:
                died = True
                break
            received.extend(_dict_alerts(hub.drain_alerts()[0]))
        assert died, "failpoint never fired in any shard worker"
        deadline = time.time() + 30
        while not hub.dead_shards():
            assert time.time() < deadline, "killed worker never reaped"
            time.sleep(0.05)
        received.extend(_dict_alerts(hub.drain_alerts()[0]))
    finally:
        monkeypatch.delenv(FAILPOINT_ENV)
        hub.close()

    # Fresh cluster over the same directories: the workers replay their WALs
    # into their alert queues during construction.
    hub = ShardedHub(2, checkpoint_dir=ckpt, wal_dir=wal)
    try:
        replayed = _dict_alerts(hub.drain_alerts()[0])
        assert replayed and all(alert["redelivered"] for alert in replayed)
        received.extend(replayed)
        for monitor in monitors:
            hub.register("t", monitor, _DETECTOR, exist_ok=True)
            position = hub.stats("t", monitor)["n_seen"]
            for start in range(position, len(values), 100):
                hub.observe("t", monitor, values[start : start + 100])
                received.extend(_dict_alerts(hub.drain_alerts()[0]))
        metrics = hub.metrics()
        assert metrics["n_wal_replayed"] >= 1
        assert metrics["n_alive_shards"] == 2
    finally:
        hub.close()

    for monitor in monitors:
        _assert_exactly_once(received, reference, monitor_key=("t", monitor))


def test_sharded_sigkill_after_emit_before_checkpoint(tmp_path):
    """External-SIGKILL cell on a 2-shard cluster, recovered by respawn."""
    values = _error_values()
    reference = _reference_alerts(values)
    monitors = _two_monitor_ids()
    ckpt, wal = tmp_path / "ckpt", tmp_path / "wal"

    received = []
    with ShardedHub(2, checkpoint_dir=ckpt, wal_dir=wal) as hub:
        for monitor in monitors:
            hub.register("t", monitor, _DETECTOR)
        hub.ingest([("t", monitor, values[:500]) for monitor in monitors])
        received.extend(_dict_alerts(hub.drain_alerts()[0]))
        hub.checkpoint()  # covers seq 1-3 of both monitors
        hub.ingest([("t", monitor, values[500:600]) for monitor in monitors])
        received.extend(_dict_alerts(hub.drain_alerts()[0]))

        victim = hub.shard_of("t", monitors[0])
        os.kill(hub.worker_pid(victim), signal.SIGKILL)
        deadline = time.time() + 30
        while victim not in hub.dead_shards():
            assert time.time() < deadline, "worker never registered as dead"
            time.sleep(0.05)

        hub.respawn_shard(victim)
        # The respawned worker replayed its WAL tail (seqs 4-5 of the victim
        # monitor) into its fresh alert queue during construction.
        replayed = _dict_alerts(hub.drain_alerts()[0])
        assert replayed
        assert all(alert["redelivered"] for alert in replayed)
        assert {alert["monitor_id"] for alert in replayed} == {monitors[0]}
        received.extend(replayed)

        for monitor in monitors:
            hub.register("t", monitor, _DETECTOR, exist_ok=True)
            position = hub.stats("t", monitor)["n_seen"]
            for start in range(position, len(values), 100):
                hub.observe("t", monitor, values[start : start + 100])
                received.extend(_dict_alerts(hub.drain_alerts()[0]))

        # Cluster history stitches both shards' WALs.
        history_seqs = {
            (alert["monitor_id"], alert["seq"])
            for alert in hub.alerts_history(tenant="t")
        }
        for monitor in monitors:
            assert {(monitor, seq) for seq in reference} <= history_seqs

    for monitor in monitors:
        _assert_exactly_once(received, reference, monitor_key=("t", monitor))


# ------------------------------------------------- manifest/WAL mis-assembly


def test_manifest_refuses_mismatched_wal_directories(tmp_path):
    """Regression: a WAL that disagrees with the cluster manifest must not replay."""
    values = _error_values()
    ckpt, wal = tmp_path / "ckpt", tmp_path / "wal"
    with ShardedHub(2, checkpoint_dir=ckpt, wal_dir=wal) as hub:
        monitors = _two_monitor_ids()
        for monitor in monitors:
            hub.register("t", monitor, _DETECTOR)
        hub.ingest([("t", monitor, values) for monitor in monitors])
        hub.checkpoint()
    pristine = tmp_path / "pristine"
    shutil.copytree(tmp_path / "wal", pristine)

    def restore():
        shutil.rmtree(wal, ignore_errors=True)
        shutil.copytree(pristine, wal)

    # Control: untouched directories resume cleanly.
    with ShardedHub(2, checkpoint_dir=ckpt, wal_dir=wal) as hub:
        assert len(hub) == 2

    # (a) Segment sequence went backwards: the manifest recorded a segment
    # head that no longer exists on disk (deleted segment / older backup).
    shard_wal = wal / "shard-00"
    for segment in shard_wal.glob("wal-*.log"):
        segment.unlink()
    with pytest.raises(SnapshotError, match="segment"):
        ShardedHub(2, checkpoint_dir=ckpt, wal_dir=wal)

    # (b) A different cluster's WAL (same layout, different wal_id).
    restore()
    meta_path = wal / "shard-01" / WAL_META_FILENAME
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["wal_id"] = "feedfacefeedface"
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(SnapshotError, match="wal_id"):
        ShardedHub(2, checkpoint_dir=ckpt, wal_dir=wal)

    # (c) The WAL directory is gone entirely.
    restore()
    shutil.rmtree(wal / "shard-00")
    with pytest.raises(SnapshotError, match="holds none"):
        ShardedHub(2, checkpoint_dir=ckpt, wal_dir=wal)

    # And after restoring the real directories, resume works again.
    restore()
    with ShardedHub(2, checkpoint_dir=ckpt, wal_dir=wal) as hub:
        assert len(hub) == 2
