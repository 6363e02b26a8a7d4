"""Unit tests of the hub's durable alert bus: sequence numbers, WAL replay,
re-fire suppression, metrics, and the sink-side delivery counters."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SnapshotError
from repro.serving.hub import CHECKPOINT_FILENAME, HUB_SCHEMA_VERSION, MonitorHub
from repro.serving.sinks import DriftAlert, JsonlAuditSink, QueueSink


def _values():
    rng = np.random.default_rng(7)
    return np.concatenate(
        [(rng.random(500) < 0.1), (rng.random(500) < 0.65)]
    ).astype(float)


def _alert(seq: int, redelivered: bool = False) -> DriftAlert:
    return DriftAlert(
        tenant="t",
        monitor_id="m",
        kind="warning",
        position=seq,
        detector="Ddm",
        n_drifts=0,
        seq=seq,
        redelivered=redelivered,
    )


# ------------------------------------------------------------ sink counters


def test_queue_sink_counts_redeliveries_separately_from_drops():
    queue = QueueSink(maxlen=2)
    queue.emit(_alert(1))
    queue.emit(_alert(2, redelivered=True))
    assert queue.n_dropped == 0 and queue.n_redelivered == 1
    queue.emit(_alert(3))  # evicts seq 1: a capacity loss, not a replay
    assert queue.n_dropped == 1 and queue.n_redelivered == 1
    assert [alert.seq for alert in queue.drain()] == [2, 3]
    # Lifetime counters survive the drain.
    assert queue.stats() == {
        "n_buffered": 0,
        "n_dropped": 1,
        "n_redelivered": 1,
    }


def test_jsonl_audit_sink_fsync_mode(tmp_path):
    path = tmp_path / "audit.jsonl"
    sink = JsonlAuditSink(str(path), fsync=True)
    sink.emit(_alert(1))
    sink.emit(_alert(2, redelivered=True))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [record["seq"] for record in records] == [1, 2]
    assert records[1]["redelivered"] is True
    assert sink.stats() == {"n_emitted": 2, "fsync": True}
    sink.close()


# -------------------------------------------------------------- hub + WAL


def test_replay_redelivers_tail_and_suppresses_refires(tmp_path):
    values = _values()
    queue = QueueSink()
    hub = MonitorHub(
        checkpoint_dir=tmp_path / "ckpt", sinks=[queue], wal_dir=tmp_path / "wal"
    )
    hub.register("t", "m", "DDM")
    hub.observe("t", "m", values[:500])
    hub.checkpoint()  # covers seqs 1-3
    hub.observe("t", "m", values[500:600])  # seqs 4-5, after the checkpoint
    original = [(a.seq, a.kind, a.position) for a in queue.drain()]
    assert [seq for seq, _, _ in original] == [1, 2, 3, 4, 5]
    # Crash: the process dies without another checkpoint or a clean close.
    hub._wal.commit()
    del hub

    queue2 = QueueSink()
    hub2 = MonitorHub(
        checkpoint_dir=tmp_path / "ckpt", sinks=[queue2], wal_dir=tmp_path / "wal"
    )
    replayed = [(a.seq, a.redelivered) for a in queue2.drain()]
    assert replayed == [(4, True), (5, True)]  # only past the checkpoint
    assert queue2.n_redelivered == 2

    # The producer replays from the restored position; the regenerated
    # seq-4/5 alerts are suppressed, new alerts flow with fresh numbers.
    position = hub2.detector("t", "m").n_seen
    assert position == 500
    hub2.observe("t", "m", values[position:])
    live = [(a.seq, a.kind, a.position, a.redelivered) for a in queue2.drain()]
    assert [entry[0] for entry in live] == [6]
    metrics = hub2.metrics()
    assert metrics["n_replay_suppressed"] == 2
    assert metrics["n_wal_replayed"] == 2
    hub2.close()


def test_replay_without_checkpoint_recovers_everything(tmp_path):
    values = _values()
    hub = MonitorHub(sinks=[QueueSink()], wal_dir=tmp_path / "wal")
    hub.register("t", "m", "DDM")
    hub.observe("t", "m", values[:600])  # seqs 1-5 logged, never checkpointed
    hub._wal.commit()
    del hub

    queue = QueueSink()
    hub2 = MonitorHub(sinks=[queue], wal_dir=tmp_path / "wal")
    assert [(a.seq, a.redelivered) for a in queue.drain()] == [
        (seq, True) for seq in (1, 2, 3, 4, 5)
    ]
    # A fresh registration replays the whole stream: all five regenerated
    # alerts are suppressed, the sixth is new.
    hub2.register("t", "m", "DDM")
    hub2.observe("t", "m", values)
    assert [a.seq for a in queue.drain()] == [6]
    hub2.close()


def test_second_restart_does_not_duplicate_replay(tmp_path):
    """The delivered marker bounds duplication across repeated crashes."""
    values = _values()
    hub = MonitorHub(sinks=[QueueSink()], wal_dir=tmp_path / "wal")
    hub.register("t", "m", "DDM")
    hub.observe("t", "m", values[:600])
    hub._wal.commit()
    del hub

    queue1 = QueueSink()
    hub2 = MonitorHub(sinks=[queue1], wal_dir=tmp_path / "wal")
    assert len(queue1.drain()) == 5  # first restart replays the tail
    hub2.close()  # clean close this time; delivered marker is on disk

    queue2 = QueueSink()
    hub3 = MonitorHub(sinks=[queue2], wal_dir=tmp_path / "wal")
    assert queue2.drain() == []  # nothing to re-deliver twice
    hub3.close()


def test_resumed_hub_buffers_the_redelivered_tail(tmp_path):
    """The alert buffer exists before the constructor's WAL replay, so the
    ``alerts`` op of a restarted server hands out the redelivered tail."""
    values = _values()
    hub = MonitorHub(wal_dir=tmp_path / "wal")
    hub.register("t", "m", "DDM")
    hub.observe("t", "m", values[:600])
    live, n_dropped = hub.drain_alerts()
    assert n_dropped == 0
    assert [alert.seq for alert in live] == [1, 2, 3, 4, 5]
    hub._wal.commit()
    del hub

    hub2 = MonitorHub(wal_dir=tmp_path / "wal")
    replayed, n_dropped = hub2.drain_alerts()
    assert n_dropped == 0
    assert [alert.seq for alert in replayed] == [1, 2, 3, 4, 5]
    assert all(alert.redelivered for alert in replayed)
    assert hub2.metrics()["n_wal_replayed"] == 5
    assert hub2.drain_alerts() == ([], 0)  # draining empties the buffer
    hub2.close()


def test_alerts_history_and_watermarks(tmp_path):
    values = _values()
    hub = MonitorHub(sinks=[QueueSink()], wal_dir=tmp_path / "wal")
    hub.register("t", "m", "DDM")
    hub.observe("t", "m", values)
    history = hub.alerts_history(tenant="t", monitor_id="m")
    assert [record["seq"] for record in history] == [1, 2, 3, 4, 5, 6]
    assert hub.alerts_history(tenant="nobody") == []
    assert hub.wal_watermarks() == {("t", "m"): 1000}
    stats = hub.stats("t", "m")
    assert stats["alert_seq"] == 6 and stats["wal_watermark"] == 1000
    hub.close()


def test_alerts_history_requires_wal():
    hub = MonitorHub()
    with pytest.raises(ConfigurationError):
        hub.alerts_history()
    assert hub.wal_watermarks() == {}
    assert hub.wal_head() is None
    assert hub.metrics()["wal"] is None
    hub.close()


def test_metrics_shape(tmp_path):
    queue = QueueSink()
    hub = MonitorHub(sinks=[queue], wal_dir=tmp_path / "wal", wal_fsync="always")
    hub.register("t", "m", "DDM")
    hub.observe("t", "m", _values())
    metrics = hub.metrics()
    assert metrics["n_monitors"] == 1
    assert metrics["n_events"] == 1000
    assert metrics["n_flushes"] == 1
    assert metrics["ingest_rate"] > 0
    assert metrics["flush_latency_ms"]["count"] == 1
    assert metrics["flush_latency_ms"]["p95"] >= 0
    assert metrics["wal"]["fsync_mode"] == "always"
    assert metrics["wal"]["n_alerts"] == 6
    # The caller's queue, then the hub's own alert buffer.
    assert metrics["sinks"] == [
        {"sink": "QueueSink", "n_buffered": 6, "n_dropped": 0, "n_redelivered": 0}
    ] * 2
    hub.close()


# ------------------------------------------------------- checkpoint schema


def test_only_the_current_checkpoint_schema_restores(tmp_path):
    """Pre-WAL checkpoints (schema 1, no alert_seq) are refused by name of
    the supported version, as are future ones; a schema-2 document
    missing ``alert_seq`` is corrupt."""
    values = _values()
    hub = MonitorHub(checkpoint_dir=tmp_path)
    hub.register("t", "m", "DDM")
    hub.observe("t", "m", values[:500])
    hub.checkpoint()
    hub.close()
    path = tmp_path / CHECKPOINT_FILENAME
    current = json.loads(path.read_text(encoding="utf-8"))
    assert current["schema_version"] == HUB_SCHEMA_VERSION == 2
    assert [m["alert_seq"] for m in current["monitors"]] == [3]

    v1 = json.loads(json.dumps(current))
    v1["schema_version"] = 1
    for monitor in v1["monitors"]:
        del monitor["alert_seq"]
    for version, document in ((1, v1), (99, {**current, "schema_version": 99})):
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(SnapshotError, match=rf"version {version} .*expected 2"):
            MonitorHub(checkpoint_dir=tmp_path)

    path.write_text(json.dumps({**v1, "schema_version": 2}), encoding="utf-8")
    with pytest.raises(SnapshotError, match="alert_seq"):
        MonitorHub(checkpoint_dir=tmp_path)
