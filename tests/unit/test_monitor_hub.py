"""Unit tests for :class:`repro.serving.hub.MonitorHub`."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.detectors import Ddm
from repro.exceptions import ConfigurationError, SnapshotError
from repro.obs.trace import Tracer
from repro.serving import (
    CHECKPOINT_FILENAME,
    HUB_SCHEMA_VERSION,
    CallbackSink,
    JsonlAuditSink,
    MonitorHub,
    QueueSink,
)
from repro.serving.wal import AlertWal
from repro.streams.error_streams import BinarySegment, binary_error_stream

VALUES = binary_error_stream(
    [BinarySegment(500, 0.1), BinarySegment(500, 0.65)], seed=7
).values


def _drifty_hub(**kwargs) -> MonitorHub:
    hub = MonitorHub(**kwargs)
    hub.register("acme", "checkout", "DDM")
    hub.register("acme", "search", "OPTWIN", {"w_max": 2000})
    hub.register("globex", "fraud", "ECDD")
    return hub


# ---------------------------------------------------------------- registry


def test_register_and_lookup():
    hub = _drifty_hub()
    assert len(hub) == 3
    assert ("acme", "checkout") in hub
    assert ("acme", "missing") not in hub
    assert type(hub.detector("acme", "search")).__name__ == "Optwin"
    listed = [(t, m) for t, m, _ in hub.monitors()]
    assert ("globex", "fraud") in listed


def test_register_duplicate_rejected():
    hub = _drifty_hub()
    with pytest.raises(ConfigurationError):
        hub.register("acme", "checkout", "DDM")
    # exist_ok with the same configuration keeps the live detector.
    detector = hub.detector("acme", "checkout")
    info = hub.register("acme", "checkout", "DDM", exist_ok=True)
    assert info == {"detector": "Ddm", "n_seen": 0}
    assert hub.detector("acme", "checkout") is detector
    # exist_ok with a different configuration is a hard error.
    with pytest.raises(ConfigurationError):
        hub.register("acme", "checkout", "ADWIN", exist_ok=True)


def test_register_accepts_instances_and_rejects_params_with_instance():
    hub = MonitorHub()
    detector = Ddm(min_num_instances=50)
    detector.update_batch(VALUES[:20])
    assert hub.register("t", "m", detector) == {"detector": "Ddm", "n_seen": 20}
    assert hub.detector("t", "m") is detector
    with pytest.raises(ConfigurationError):
        hub.register("t", "m2", Ddm(), params={"min_num_instances": 5})


def test_unknown_detector_name_and_unknown_monitor():
    hub = MonitorHub()
    with pytest.raises(ConfigurationError):
        hub.register("t", "m", "NOT_A_DETECTOR")
    with pytest.raises(ConfigurationError):
        hub.observe("t", "ghost", [1.0])


# --------------------------------------------------------------- ingestion


def test_observe_matches_direct_detector():
    hub = MonitorHub()
    hub.register("t", "m", "DDM")
    reference = Ddm()
    expected = reference.update_batch(VALUES)

    outcome = hub.observe("t", "m", VALUES)
    assert outcome.batch.drift_indices == expected.drift_indices
    assert outcome.drift_positions == expected.drift_indices  # offset 0
    second = hub.observe("t", "m", VALUES[:100])
    assert second.offset == len(VALUES)


def test_ingest_groups_and_preserves_per_monitor_order():
    hub = _drifty_hub()
    # Interleave single events and chunks across monitors.
    events = []
    for index in range(0, 600, 3):
        events.append(("acme", "checkout", float(VALUES[index])))
        events.append(("acme", "search", VALUES[index : index + 3]))
        events.append(("globex", "fraud", float(VALUES[index])))
    results = hub.ingest(events)
    by_key = {(r.tenant, r.monitor_id): r for r in results}
    assert set(by_key) == {
        ("acme", "checkout"),
        ("acme", "search"),
        ("globex", "fraud"),
    }
    # Per-monitor order was preserved: "search" saw the full prefix once.
    assert by_key[("acme", "search")].n_processed == 600
    assert by_key[("acme", "checkout")].n_processed == 200

    # Equivalent to feeding the same per-monitor sequences directly.
    direct = MonitorHub()
    direct.register("acme", "search", "OPTWIN", {"w_max": 2000})
    expected = direct.observe("acme", "search", VALUES[:600])
    assert by_key[("acme", "search")].drift_positions == expected.drift_positions


def test_ingest_feeds_monitors_in_first_event_order(tmp_path):
    """Results and WAL watermarks follow each monitor's first event in the
    request, whatever the monitors' configurations."""
    hub = MonitorHub(wal_dir=tmp_path)
    hub.register("t", "optwin-a", "OPTWIN", {"w_max": 500})
    hub.register("t", "ddm", "DDM")
    hub.register("t", "optwin-b", "OPTWIN", {"w_max": 500})
    events = [
        ("t", "optwin-b", VALUES[:100]),
        ("t", "ddm", VALUES[:50]),
        ("t", "optwin-a", VALUES[:10]),
        ("t", "optwin-b", VALUES[100:200]),
        ("t", "ddm", VALUES[50:100]),
    ]
    results = hub.ingest(events)
    hub.close()
    assert [(r.monitor_id, r.n_processed) for r in results] == [
        ("optwin-b", 200),
        ("ddm", 100),
        ("optwin-a", 10),
    ]
    wal = AlertWal(tmp_path)
    watermarks = [
        (record["monitor_id"], record["n_seen"])
        for record in wal.iter_records()
        if record["t"] == "watermark"
    ]
    wal.close()
    assert watermarks == [("optwin-b", 200), ("ddm", 100), ("optwin-a", 10)]


def test_ingest_rejects_unregistered_monitor():
    hub = MonitorHub()
    with pytest.raises(ConfigurationError):
        hub.ingest([("t", "m", 1.0)])


@pytest.mark.parametrize(
    "events, error",
    [
        ([("t", "m", 1.0), ("t", "nope", 1.0)], "unknown monitor t/nope"),
        ([("t", "m", 1.0), ("t", "m", ["x"])], "monitor t/m: values must be"),
    ],
)
def test_refused_ingest_ends_its_span_with_the_error(events, error):
    hub = MonitorHub(tracer=Tracer(sample_rate=1.0))
    hub.register("t", "m", "DDM")
    with pytest.raises(ConfigurationError):
        hub.ingest(events)
    [span] = hub.drain_trace()
    assert span["name"] == "hub.ingest"
    assert span["args"]["error"].startswith(error)
    assert hub.stats("t", "m")["n_seen"] == 0


# ------------------------------------------------------------------ alerts


def test_alert_transitions_not_per_element():
    queue = QueueSink()
    seen = []
    hub = MonitorHub(sinks=[queue, CallbackSink(seen.append)])
    hub.register("t", "m", "DDM")
    outcome = hub.observe("t", "m", VALUES)

    alerts = queue.drain()
    assert [a.to_dict() for a in alerts] == [a.to_dict() for a in seen]
    drift_alerts = [a for a in alerts if a.kind == "drift"]
    warning_alerts = [a for a in alerts if a.kind == "warning"]
    assert [a.position for a in drift_alerts] == outcome.drift_positions
    # One alert per warning *run*, not one per warning element.
    assert len(warning_alerts) < len(outcome.warning_positions)
    assert all(a.tenant == "t" and a.detector == "Ddm" for a in alerts)
    # Lifetime drift numbering.
    assert [a.n_drifts for a in drift_alerts] == list(
        range(1, len(drift_alerts) + 1)
    )


def test_warning_zone_continues_across_chunks():
    """A zone spanning a chunk boundary fires exactly one warning alert."""
    queue = QueueSink()
    hub = MonitorHub(sinks=[queue])
    hub.register("t", "m", "DDM")
    detector = Ddm()
    full = detector.update_batch(VALUES)
    first_warning = full.warning_indices[0]

    # Split right after the first warning element so the zone is open at the
    # chunk boundary.
    split = first_warning + 1
    hub.observe("t", "m", VALUES[:split])
    first_alerts = queue.drain()
    assert [a.kind for a in first_alerts] == ["warning"]

    hub.observe("t", "m", VALUES[split:])
    second_alerts = queue.drain()
    # The continuation of the same zone must not re-alert at position split.
    assert all(a.position != split or a.kind == "drift" for a in second_alerts)


def test_raising_sink_never_aborts_ingest():
    """The documented sink contract: a raising sink is a reporting problem.

    Detector state must stay authoritative — identical to a hub without any
    sink — the flush must complete, sinks after the raising one must still be
    delivered to, each monitor's alerts in ``seq`` order, and the failures
    must be counted in ``stats()``.
    """

    def explode(alert):
        raise RuntimeError("notification backend is down")

    queue = QueueSink()
    hub = MonitorHub(sinks=[CallbackSink(explode), queue])
    reference = MonitorHub()
    for target in (hub, reference):
        target.register("t", "m", "DDM")
        target.register("t", "m2", "EDDM")

    # Neither observe nor ingest may raise.
    outcome = hub.observe("t", "m", VALUES[:600])
    hub.ingest(
        [("t", "m2", VALUES[:300]), ("t", "m", VALUES[600:]), ("t", "m2", VALUES[300:])]
    )
    expected_head = reference.observe("t", "m", VALUES[:600])
    expected_tail = {
        result.monitor_id: result
        for result in reference.ingest([("t", "m", VALUES[600:]), ("t", "m2", VALUES)])
    }["m"]

    # Detector state is bit-identical to the sink-less hub.
    assert outcome.batch.drift_indices == expected_head.batch.drift_indices
    assert (
        hub.detector("t", "m").n_seen == reference.detector("t", "m").n_seen == len(VALUES)
    )
    assert hub.detector("t", "m").n_drifts == reference.detector("t", "m").n_drifts

    # Sinks after the raising one still received every alert, each
    # monitor's in seq order.
    good_alerts = queue.drain()
    assert [
        a.position for a in good_alerts if a.monitor_id == "m" and a.kind == "drift"
    ] == (expected_head.drift_positions + expected_tail.drift_positions)
    for monitor in ("m", "m2"):
        seqs = [a.seq for a in good_alerts if a.monitor_id == monitor]
        assert seqs == list(range(1, len(seqs) + 1))
        assert len(seqs) > 1

    # Every failed delivery was counted.
    assert hub.n_sink_failures == len(good_alerts)
    assert hub.stats()["n_sink_failures"] == len(good_alerts)
    assert hub.stats()["n_sink_failures"] > 0


@pytest.mark.parametrize(
    "scalar",
    [
        np.int64(1),
        np.int32(0),
        np.float32(1.0),
        np.float64(0.0),
        np.array(1.0),
        # np.bool_ registers in no numbers ABC — yet it is exactly what
        # the idiomatic producer `y_pred != y_true` emits on numpy scalars.
        np.bool_(True),
    ],
    ids=["int64", "int32", "float32", "float64", "0d-array", "bool_"],
)
def test_observe_and_ingest_accept_numpy_scalars(scalar):
    """numpy scalars are ``numbers.Real`` but not ``int``/``float`` — they
    used to bypass the scalar branches and crash ``np.fromiter`` on a 0-d
    value."""
    hub = MonitorHub()
    hub.register("t", "m", "DDM")
    outcome = hub.observe("t", "m", scalar)
    assert outcome.n_processed == 1
    results = hub.ingest(
        [("t", "m", scalar), ("t", "m", [0.0, 1.0]), ("t", "m", scalar)]
    )
    assert results[0].n_processed == 4
    assert hub.detector("t", "m").n_seen == 5


def test_numpy_scalar_stream_matches_python_floats():
    """A numpy-typed event stream produces bit-identical detections."""
    hub_np = MonitorHub()
    hub_np.register("t", "m", "DDM")
    hub_py = MonitorHub()
    hub_py.register("t", "m", "DDM")

    np_events = [("t", "m", np.float64(v) if i % 2 else np.int64(int(v)))
                 for i, v in enumerate(VALUES[:400])]
    py_events = [("t", "m", float(v)) for v in VALUES[:400]]
    got = hub_np.ingest(np_events)[0]
    expected = hub_py.ingest(py_events)[0]
    assert got.batch.drift_indices == expected.batch.drift_indices
    assert got.batch.warning_indices == expected.batch.warning_indices


def test_queue_sink_counts_dropped_alerts():
    """A bounded QueueSink evicts oldest-first but never silently: every
    eviction increments ``n_dropped``, and the counter survives ``drain()``."""
    unbounded = QueueSink()
    bounded = QueueSink(maxlen=5)
    hub = MonitorHub(sinks=[unbounded, bounded])
    hub.register("t", "m", "DDM")
    hub.observe("t", "m", VALUES)

    all_alerts = unbounded.drain()
    assert len(all_alerts) > 5  # the stream produces more transitions than maxlen
    assert unbounded.n_dropped == 0

    assert len(bounded) == 5
    assert bounded.n_dropped == len(all_alerts) - 5
    # The newest five alerts survive, the oldest were evicted.
    kept = bounded.drain()
    assert [a.to_dict() for a in kept] == [a.to_dict() for a in all_alerts[-5:]]
    # n_dropped is a lifetime counter: drain() does not reset it.
    assert bounded.n_dropped == len(all_alerts) - 5


def test_jsonl_audit_sink(tmp_path):
    path = tmp_path / "alerts.jsonl"
    sink = JsonlAuditSink(str(path))
    hub = MonitorHub(sinks=[sink])
    hub.register("t", "m", "DDM")
    outcome = hub.observe("t", "m", VALUES)
    hub.close()

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["position"] for r in lines if r["kind"] == "drift"] == (
        outcome.drift_positions
    )
    assert all(set(r) >= {"tenant", "monitor_id", "kind", "position"} for r in lines)


# ------------------------------------------------------------ checkpointing


def test_checkpoint_resume_bit_exact(tmp_path):
    hub = _drifty_hub(checkpoint_dir=tmp_path)
    hub.ingest(
        [
            ("acme", "checkout", VALUES[:700]),
            ("acme", "search", VALUES[:700]),
            ("globex", "fraud", VALUES[:700]),
        ]
    )
    path = hub.checkpoint()
    assert path.name == CHECKPOINT_FILENAME

    document = json.loads(path.read_text())
    assert document["schema_version"] == HUB_SCHEMA_VERSION
    assert document["config_hash"] == hub.composition_hash()
    assert len(document["monitors"]) == 3

    resumed = MonitorHub(checkpoint_dir=tmp_path)
    assert len(resumed) == 3
    assert resumed.n_events == hub.n_events
    for tenant, monitor_id, detector in hub.monitors():
        tail_live = detector.update_batch(VALUES[700:])
        tail_resumed = resumed.detector(tenant, monitor_id).update_batch(
            VALUES[700:]
        )
        assert tail_resumed.drift_indices == tail_live.drift_indices
        assert tail_resumed.warning_indices == tail_live.warning_indices


def test_composition_hash_is_order_independent(tmp_path):
    first = MonitorHub()
    first.register("a", "x", "DDM")
    first.register("b", "y", "ADWIN")
    second = MonitorHub()
    second.register("b", "y", "ADWIN")
    second.register("a", "x", "DDM")
    assert first.composition_hash() == second.composition_hash()
    third = MonitorHub()
    third.register("a", "x", "DDM")
    third.register("b", "y", "ADWIN", {"delta": 0.01})
    assert third.composition_hash() != first.composition_hash()


def test_auto_checkpoint_every(tmp_path):
    hub = MonitorHub(checkpoint_dir=tmp_path, checkpoint_every=100)
    hub.register("t", "m", "DDM")
    assert not (tmp_path / CHECKPOINT_FILENAME).exists()
    hub.observe("t", "m", VALUES[:99])
    assert not (tmp_path / CHECKPOINT_FILENAME).exists()
    hub.observe("t", "m", VALUES[99:200])
    assert (tmp_path / CHECKPOINT_FILENAME).exists()
    document = json.loads((tmp_path / CHECKPOINT_FILENAME).read_text())
    assert document["n_events"] == 200


def test_resume_false_ignores_checkpoint(tmp_path):
    hub = _drifty_hub(checkpoint_dir=tmp_path)
    hub.checkpoint()
    fresh = MonitorHub(checkpoint_dir=tmp_path, resume=False)
    assert len(fresh) == 0


def test_corrupt_checkpoint_raises(tmp_path):
    (tmp_path / CHECKPOINT_FILENAME).write_text("{not json")
    with pytest.raises(SnapshotError):
        MonitorHub(checkpoint_dir=tmp_path)
    (tmp_path / CHECKPOINT_FILENAME).write_text(
        json.dumps({"schema_version": 999, "n_events": 0, "monitors": []})
    )
    with pytest.raises(SnapshotError):
        MonitorHub(checkpoint_dir=tmp_path)


def test_checkpoint_requires_directory():
    hub = MonitorHub()
    with pytest.raises(ConfigurationError):
        hub.checkpoint()


def test_checkpoint_every_requires_directory():
    with pytest.raises(ConfigurationError):
        MonitorHub(checkpoint_every=1000)


def test_checkpoint_does_not_import_the_experiments_package(tmp_path):
    """The composition hash must not drag ``repro.experiments`` (and the
    learners and streams it imports) into a serving process on its first
    checkpoint."""
    script = (
        "import sys\n"
        "from repro.detectors import Ddm\n"
        "from repro.serving.hub import MonitorHub\n"
        f"hub = MonitorHub(checkpoint_dir={str(tmp_path)!r})\n"
        "hub.register('acme', 'checkout', Ddm())\n"
        "hub.checkpoint()\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.experiments')))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert any(tmp_path.iterdir())  # the checkpoint was written
    assert out.stdout.strip() == "[]"


def test_stats_views():
    hub = _drifty_hub()
    hub.observe("acme", "checkout", VALUES)
    overall = hub.stats()
    assert overall["n_monitors"] == 3
    assert overall["n_tenants"] == 2
    assert overall["n_events"] == len(VALUES)
    per_tenant = hub.stats("acme")
    assert per_tenant["n_monitors"] == 2
    per_monitor = hub.stats("acme", "checkout")
    assert per_monitor["n_seen"] == len(VALUES)
    assert per_monitor["detector"] == "Ddm"
    # A monitor id without its tenant is ambiguous, not a hub-wide query.
    with pytest.raises(ConfigurationError):
        hub.stats(None, "checkout")
