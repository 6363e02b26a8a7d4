"""Unit tests for :class:`repro.serving.sharded.ShardedHub`.

The suite runs real worker processes (2 shards, small streams) — routing
determinism, bit-identical detections versus a single-process
:class:`MonitorHub`, manifest/resume semantics, the worker's request
surface, and failure paths (cleanup failures counted and journaled).  The
SIGKILL/respawn integration lives in
``tests/integration/test_sharded_serving.py``.
"""

from __future__ import annotations

import json

import pytest

from repro import Optwin
from repro.detectors import Ddm
from repro.exceptions import ConfigurationError, ShardError, SnapshotError
from repro.serving import (
    MANIFEST_FILENAME,
    MANIFEST_SCHEMA_VERSION,
    MonitorHub,
    ShardedHub,
)
from repro.experiments.ablations import _FixedSplitOptwin
from repro.streams.error_streams import BinarySegment, binary_error_stream

VALUES = binary_error_stream(
    [BinarySegment(500, 0.1), BinarySegment(500, 0.65)], seed=7
).values

#: Multi-tenant fleet: mixed detectors, ids chosen so 2 shards both get keys.
MONITORS = [
    ("acme", "checkout", "DDM", None),
    ("acme", "search", "OPTWIN", {"w_max": 2000}),
    ("globex", "fraud", "ECDD", None),
    ("globex", "payments", "DDM", None),
    ("initech", "latency", "DDM", None),
]


def _interleaved_events(values, chunk=3):
    events = []
    for start in range(0, 600, chunk):
        for tenant, monitor_id, _, _ in MONITORS:
            events.append((tenant, monitor_id, values[start : start + chunk]))
    return events


@pytest.fixture
def sharded(tmp_path):
    hub = ShardedHub(2, checkpoint_dir=tmp_path)
    try:
        yield hub
    finally:
        hub.close()


def _register_fleet(hub):
    for tenant, monitor_id, detector, params in MONITORS:
        hub.register(tenant, monitor_id, detector, params)


# ----------------------------------------------------------------- routing


def test_monitors_distribute_across_both_shards(sharded):
    _register_fleet(sharded)
    shards = {sharded.shard_of(t, m) for t, m, _, _ in MONITORS}
    assert shards == {0, 1}
    assert len(sharded) == len(MONITORS)
    assert ("acme", "checkout") in sharded
    listed = {(t, m): s for t, m, s in sharded.monitor_keys()}
    assert listed[("acme", "checkout")] == sharded.shard_of("acme", "checkout")


# ------------------------------------------------- single-hub equivalence


def test_sharded_ingest_bit_identical_to_single_hub(sharded):
    _register_fleet(sharded)
    single = MonitorHub()
    _register_fleet(single)

    events = _interleaved_events(VALUES)
    sharded_results = sharded.ingest(events)
    single_results = single.ingest(events)

    by_key = lambda results: {
        (r.tenant, r.monitor_id): (
            r.offset,
            r.batch.drift_indices,
            r.batch.warning_indices,
        )
        for r in results
    }
    assert by_key(sharded_results) == by_key(single_results)

    # observe() routes through the same worker state.
    tail_sharded = sharded.observe("acme", "checkout", VALUES[600:])
    tail_single = single.observe("acme", "checkout", VALUES[600:])
    assert tail_sharded.offset == tail_single.offset == 600
    assert tail_sharded.drift_positions == tail_single.drift_positions


def test_sharded_alerts_match_single_hub(sharded):
    from repro.serving import QueueSink

    _register_fleet(sharded)
    queue = QueueSink()
    single = MonitorHub(sinks=[queue])
    _register_fleet(single)

    events = _interleaved_events(VALUES)
    sharded.ingest(events)
    single.ingest(events)

    sharded_alerts, n_dropped = sharded.drain_alerts()
    assert n_dropped == 0
    key = lambda alerts: sorted(
        (a.tenant, a.monitor_id, a.kind, a.position, a.n_drifts) for a in alerts
    )
    assert key(sharded_alerts) == key(queue.drain())


def test_sharded_stats_aggregate(sharded):
    _register_fleet(sharded)
    single = MonitorHub()
    _register_fleet(single)
    events = _interleaved_events(VALUES)
    sharded.ingest(events)
    single.ingest(events)

    expected = single.stats()
    got = sharded.stats()
    for field in ("n_monitors", "n_tenants", "n_events", "n_drifts", "n_warnings"):
        assert got[field] == expected[field], field
    assert got["n_shards"] == 2
    assert got["n_alive_shards"] == 2
    assert sharded.n_events == single.n_events

    per_tenant = sharded.stats("acme")
    assert per_tenant["n_monitors"] == 2
    assert per_tenant["n_tenants"] == 1

    per_monitor = sharded.stats("acme", "checkout")
    single_monitor = single.stats("acme", "checkout")
    assert per_monitor == single_monitor


# ------------------------------------------------------------ registration


def test_register_semantics_through_pipes(sharded):
    info = sharded.register("t", "m", "DDM")
    assert info == {"detector": "Ddm", "n_seen": 0}
    with pytest.raises(ConfigurationError):
        sharded.register("t", "m", "DDM")
    assert sharded.register("t", "m", "DDM", exist_ok=True)["detector"] == "Ddm"
    with pytest.raises(ConfigurationError):
        sharded.register("t", "m", "ADWIN", exist_ok=True)
    with pytest.raises(ConfigurationError):
        sharded.register("t", "m2", "NOT_A_DETECTOR")
    with pytest.raises(ConfigurationError):
        sharded.observe("t", "ghost", [1.0])
    with pytest.raises(ConfigurationError):
        sharded.ingest([("t", "ghost", 1.0)])
    # Failed registrations must not pollute the parent registry.
    assert ("t", "m2") not in sharded
    assert len(sharded) == 1


def test_register_ships_detector_instance_bit_exactly(sharded):
    """A pre-positioned detector instance crosses the pipe via the snapshot
    pickle and continues exactly where it stopped."""
    reference = Ddm()
    reference.update_batch(VALUES[:300])
    shipped = Ddm()
    shipped.update_batch(VALUES[:300])

    info = sharded.register("t", "warm", shipped)
    assert info == {"detector": "Ddm", "n_seen": 300}
    outcome = sharded.observe("t", "warm", VALUES[300:])
    expected = reference.update_batch(VALUES[300:])
    assert outcome.offset == 300
    assert outcome.batch.drift_indices == expected.drift_indices


# ----------------------------------------------------------- checkpointing


def test_checkpoint_writes_manifest_and_shard_files(sharded, tmp_path):
    _register_fleet(sharded)
    sharded.ingest(_interleaved_events(VALUES))
    manifest_path = sharded.checkpoint()

    assert manifest_path == tmp_path / MANIFEST_FILENAME
    manifest = json.loads(manifest_path.read_text())
    assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
    assert manifest["n_shards"] == 2
    assert len(manifest["shards"]) == 2
    assert manifest["n_events"] == 600 * len(MONITORS)
    for shard in manifest["shards"]:
        shard_checkpoint = tmp_path / shard["dir"] / "hub-checkpoint.json"
        assert shard_checkpoint.is_file()
        document = json.loads(shard_checkpoint.read_text())
        assert document["config_hash"] == shard["config_hash"]
    assert manifest["cluster_hash"]


def test_manifest_rows_list_the_shared_cut_tables(sharded):
    _register_fleet(sharded)
    manifest = json.loads(sharded.checkpoint().read_text())
    table = Optwin(w_max=2000)._cut_table
    listed = [[table.rho, table.confidence, table.warning_confidence, 2000]]
    owner = sharded.shard_of("acme", "search")
    assert [row["tables"] for row in manifest["shards"]] == [
        listed if index == owner else [] for index in range(2)
    ]


def test_describe_leaves_out_a_private_cut_table():
    """The half-split ablation reads a table of its own, which a cold
    restart could not share with the workers."""
    hub = MonitorHub()
    hub.register("t", "half", _FixedSplitOptwin(w_max=300))
    assert hub.describe()["tables"] == []
    hub.register("t", "shared", "OPTWIN", {"w_max": 300})
    [[*_, length]] = hub.describe()["tables"]
    assert length == 300


def _edit_manifest_tables(tmp_path, tables):
    """Checkpoint a fleet, then give the first shard row ``tables`` (or no
    ``tables`` field at all for ``None``)."""
    with ShardedHub(2, checkpoint_dir=tmp_path) as hub:
        _register_fleet(hub)
        hub.ingest([(t, m, VALUES[:450]) for t, m, _, _ in MONITORS])
        hub.checkpoint()
    path = tmp_path / MANIFEST_FILENAME
    manifest = json.loads(path.read_text())
    for row in manifest["shards"]:
        row.pop("tables")
    if tables is not None:
        manifest["shards"][0]["tables"] = tables
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "entry",
    [
        [0.5, 0.99, None],
        [0.5, "0.99", None, 500],
        [0.5, 0.99, None, 500.0],
        [True, 0.99, 0.9, 500],
        {"rho": 0.5},
    ],
)
def test_malformed_manifest_cut_table_is_refused(tmp_path, entry):
    _edit_manifest_tables(tmp_path, [entry])
    with pytest.raises(SnapshotError, match="malformed cut table"):
        ShardedHub(2, checkpoint_dir=tmp_path)


def test_manifest_without_cut_tables_resumes(tmp_path):
    _edit_manifest_tables(tmp_path, None)
    direct = MonitorHub()
    direct.register("acme", "search", "OPTWIN", {"w_max": 2000})
    expected = direct.observe("acme", "search", VALUES).drift_positions
    with ShardedHub(2, checkpoint_dir=tmp_path) as resumed:
        tail = resumed.observe("acme", "search", VALUES[450:]).drift_positions
    assert tail, "the monitor must drift after the checkpoint"
    assert [p for p in expected if p >= 450] == tail


def test_resume_is_bit_exact(tmp_path):
    with ShardedHub(2, checkpoint_dir=tmp_path) as hub:
        _register_fleet(hub)
        hub.ingest(_interleaved_events(VALUES))
        hub.checkpoint()
        expected = {
            (t, m): hub.observe(t, m, VALUES[600:]).drift_positions
            for t, m, _, _ in MONITORS
        }

    with ShardedHub(2, checkpoint_dir=tmp_path) as resumed:
        assert len(resumed) == len(MONITORS)
        assert resumed.n_events == 600 * len(MONITORS)
        for t, m, _, _ in MONITORS:
            assert resumed.stats(t, m)["n_seen"] == 600
            assert resumed.observe(t, m, VALUES[600:]).drift_positions == (
                expected[(t, m)]
            )


@pytest.mark.parametrize("version", [1, 99])
def test_only_the_current_manifest_schema_resumes(tmp_path, version):
    """A pre-slot (v1) manifest — no slot table — and a future one are both
    refused by name of the supported version; nothing is migrated."""
    with ShardedHub(2, checkpoint_dir=tmp_path) as hub:
        _register_fleet(hub)
        hub.checkpoint()
    path = tmp_path / MANIFEST_FILENAME
    manifest = json.loads(path.read_text())
    if version == 1:
        for key in ("n_slots", "assignment", "prev_assignment", "pending"):
            del manifest[key]
    manifest["schema_version"] = version
    path.write_text(json.dumps(manifest))
    with pytest.raises(
        SnapshotError,
        match=rf"version {version} .*expected {MANIFEST_SCHEMA_VERSION}\)",
    ):
        ShardedHub(2, checkpoint_dir=tmp_path)


def test_shard_count_change_is_rejected(tmp_path):
    with ShardedHub(2, checkpoint_dir=tmp_path) as hub:
        _register_fleet(hub)
        hub.checkpoint()
    with pytest.raises(SnapshotError, match="2-shard"):
        ShardedHub(3, checkpoint_dir=tmp_path)
    # resume=False starts fresh regardless.
    with ShardedHub(3, checkpoint_dir=tmp_path, resume=False) as fresh:
        assert len(fresh) == 0


def test_manifest_written_at_construction_guards_auto_checkpoint_clusters(
    tmp_path,
):
    """A cluster that only ever auto-checkpoints still gets a manifest.

    Per-shard ``checkpoint_every`` checkpoints never write the manifest, and
    without one a *divisor* reshard (4 → 2) would pass the routing check
    (``digest % 4 in {0, 1}`` implies the same ``digest % 2``) and silently
    drop the other shards' monitors.  The constructor-written manifest makes
    the shard-count guard fire instead.
    """
    manifest_path = tmp_path / MANIFEST_FILENAME
    with ShardedHub(4, checkpoint_dir=tmp_path, checkpoint_every=50) as hub:
        # Manifest exists before any explicit checkpoint() call.
        assert manifest_path.is_file()
        assert json.loads(manifest_path.read_text())["n_shards"] == 4
        _register_fleet(hub)
        hub.ingest(_interleaved_events(VALUES))  # crosses checkpoint_every
        n_registered = len(hub)
    # Auto-checkpoints produced shard files; no explicit checkpoint() ran.
    assert any(
        (tmp_path / f"shard-{i:02d}" / "hub-checkpoint.json").is_file()
        for i in range(4)
    )
    with pytest.raises(SnapshotError, match="4-shard"):
        ShardedHub(2, checkpoint_dir=tmp_path)
    # The matching shard count still resumes every monitor.
    with ShardedHub(4, checkpoint_dir=tmp_path) as resumed:
        assert len(resumed) == n_registered


def test_misassembled_shard_directories_are_rejected(tmp_path):
    """Shard checkpoints that do not route to their directory's index mean
    the directory tree was put together from a different cluster layout."""
    import multiprocessing

    with ShardedHub(2, checkpoint_dir=tmp_path) as hub:
        _register_fleet(hub)
        hub.checkpoint()
    shard0 = tmp_path / "shard-00" / "hub-checkpoint.json"
    shard1 = tmp_path / "shard-01" / "hub-checkpoint.json"
    text0, text1 = shard0.read_text(), shard1.read_text()
    shard0.write_text(text1)
    shard1.write_text(text0)
    with pytest.raises(SnapshotError, match="routes to shard"):
        ShardedHub(2, checkpoint_dir=tmp_path)
    # The failed constructor cleaned up after itself: no orphaned workers.
    leaked = [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-shard-")
    ]
    assert leaked == []


def test_stale_copy_without_its_owner_is_rejected(tmp_path):
    """An interrupted reshard explains stale copies only next to the
    committed owner's: a monitor its owner does not hold is mis-assembly
    even where ``prev_assignment`` would explain the copy — resume never
    relocates monitors."""
    with ShardedHub(2, checkpoint_dir=tmp_path) as hub:
        _register_fleet(hub)
        hub.checkpoint()
    shard0 = tmp_path / "shard-00" / "hub-checkpoint.json"
    shard1 = tmp_path / "shard-01" / "hub-checkpoint.json"
    text0, text1 = shard0.read_text(), shard1.read_text()
    shard0.write_text(text1)
    shard1.write_text(text0)
    path = tmp_path / MANIFEST_FILENAME
    manifest = json.loads(path.read_text())
    manifest["prev_assignment"] = [1 - owner for owner in manifest["assignment"]]
    path.write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="routes to shard"):
        ShardedHub(2, checkpoint_dir=tmp_path)


def test_checkpoint_requires_directory():
    with ShardedHub(2) as hub:
        hub.register("t", "m", "DDM")
        with pytest.raises(ConfigurationError):
            hub.checkpoint()


def test_checkpoint_every_requires_directory():
    with pytest.raises(ConfigurationError):
        ShardedHub(2, checkpoint_every=100)


def test_invalid_shard_count():
    with pytest.raises(ConfigurationError):
        ShardedHub(0)


def test_unpicklable_payload_does_not_desync_pipes(sharded):
    """A bad payload is a caller error, not a dead shard.

    The float conversion rejects it while the parent stages the batches in
    shared memory — before any shard has been sent its message — so no
    pipe is left holding a reply for the next, unrelated request.
    """
    _register_fleet(sharded)
    ordered = sorted(
        MONITORS, key=lambda spec: sharded.shard_of(spec[0], spec[1])
    )
    first, last = ordered[0], ordered[-1]
    assert sharded.shard_of(first[0], first[1]) != sharded.shard_of(last[0], last[1])

    with pytest.raises(ValueError):
        sharded.ingest(
            [
                (first[0], first[1], [1.0, 0.0]),
                (last[0], last[1], ["not", "a", "float"]),
            ]
        )

    # Nothing reached either worker, and both answer correctly afterwards.
    assert sharded.stats()["n_alive_shards"] == 2
    assert sharded.stats()["n_events"] == 0
    outcome = sharded.observe(first[0], first[1], [1.0])
    assert outcome.tenant == first[0] and outcome.monitor_id == first[1]
    assert outcome.offset == 0
    outcome = sharded.observe(last[0], last[1], [1.0])
    assert outcome.monitor_id == last[1] and outcome.offset == 0

    # Both shards still answer correctly-typed replies afterwards.
    stats = sharded.stats()
    assert stats["n_alive_shards"] == 2
    outcome = sharded.observe(first[0], first[1], [1.0])
    assert outcome.tenant == first[0] and outcome.monitor_id == first[1]
    outcome = sharded.observe(last[0], last[1], [1.0])
    assert outcome.monitor_id == last[1]


def test_request_timeout_kills_hung_worker(tmp_path):
    """A wedged (SIGSTOPped) worker is alive but unresponsive; with a
    request timeout it is killed — becoming a normal dead shard the respawn
    machinery recovers from its checkpoint."""
    import os
    import signal as signal_module

    hub = ShardedHub(2, checkpoint_dir=tmp_path, request_timeout=0.5)
    try:
        _register_fleet(hub)
        hub.ingest(_interleaved_events(VALUES))
        hub.checkpoint()
        victim = hub.shard_of(*next(iter([(t, m) for t, m, _, _ in MONITORS])))
        os.kill(hub.worker_pid(victim), signal_module.SIGSTOP)

        with pytest.raises(ShardError, match="did not reply"):
            hub.stats(*next((t, m) for t, m, _, _ in MONITORS
                            if hub.shard_of(t, m) == victim))
        assert victim in hub.dead_shards()
        assert hub.respawn_dead_shards() == [victim]
        # Resumed from the checkpoint taken before the hang.
        for tenant, monitor_id, _, _ in MONITORS:
            if hub.shard_of(tenant, monitor_id) == victim:
                assert hub.stats(tenant, monitor_id)["n_seen"] == 600
    finally:
        hub.close()


def test_tenant_scoped_stats():
    """Tenant-narrowed stats must scope every field to the tenant — n_events
    used to leak the hub-wide lifetime count next to filtered drift counts."""
    hub = MonitorHub()
    hub.register("a", "x", "DDM")
    hub.register("b", "y", "DDM")
    hub.observe("a", "x", VALUES[:100])
    hub.observe("b", "y", VALUES)

    assert hub.stats()["n_events"] == 100 + len(VALUES)
    assert hub.stats("a")["n_events"] == 100
    assert hub.stats("b")["n_events"] == len(VALUES)

    with ShardedHub(2) as sharded:
        sharded.register("a", "x", "DDM")
        sharded.register("b", "y", "DDM")
        sharded.observe("a", "x", VALUES[:100])
        sharded.observe("b", "y", VALUES)
        assert sharded.stats("a")["n_events"] == 100
        assert sharded.stats("b")["n_events"] == len(VALUES)
        assert sharded.stats()["n_events"] == 100 + len(VALUES)


# ------------------------------------------------------------------ close


def test_close_terminates_wedged_worker(tmp_path):
    """close() must not hang on a worker that is alive but unresponsive:
    the stop-reply wait is bounded and falls back to terminate()."""
    import os
    import signal as signal_module
    import time

    hub = ShardedHub(2, checkpoint_dir=tmp_path)
    hub._STOP_REPLY_TIMEOUT = 0.5  # keep the test fast
    hub.register("t", "m", "DDM")
    os.kill(hub.worker_pid(0), signal_module.SIGSTOP)
    start = time.monotonic()
    hub.close()
    assert time.monotonic() - start < 15
    assert all(
        process is None or not process.is_alive() for process in hub._processes
    )


def test_closed_hub_refuses_calls(tmp_path):
    hub = ShardedHub(2, checkpoint_dir=tmp_path)
    hub.register("t", "m", "DDM")
    hub.close()
    hub.close()  # idempotent
    with pytest.raises(ShardError):
        hub.observe("t", "m", [1.0])
    with pytest.raises(ShardError):
        hub.stats()
    # A recovery loop running after close() must not spawn orphan workers.
    with pytest.raises(ShardError):
        hub.respawn_dead_shards()


# -------------------------------------------------------- shm transport


def test_shm_transport_accepts_generator_payloads():
    """The shm path converts payloads parent-side, so generators — which
    cannot cross a process boundary themselves — simply work."""
    with ShardedHub(2) as hub:
        hub.register("t", "gen", "DDM")
        outcome = hub.ingest([("t", "gen", (v for v in [1.0, 0.0, 1.0]))])[0]
        assert outcome.n_processed == 3
        assert hub.stats("t", "gen")["n_seen"] == 3


@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_observe_converts_payloads_before_the_worker(kind, monkeypatch):
    """Both hubs accept an iterator on ``observe``, and refuse a malformed
    payload with the same message and nothing applied; the sharded hub
    refuses it in the parent, before any request reaches the worker."""
    hub = MonitorHub() if kind == "single" else ShardedHub(2)
    try:
        hub.register("t", "m", "DDM")
        assert hub.observe("t", "m", (v for v in [1.0, 0.0])).n_processed == 2
        _, stats = hub.observe_with_stats("t", "m", (v for v in [1.0]))
        assert stats["n_seen"] == 3

        sent = []
        if kind == "sharded":
            forward = hub._call
            monkeypatch.setattr(
                hub, "_call", lambda shard, op, *args: sent.append(op)
                or forward(shard, op, *args)
            )
        message = (
            "monitor t/m: values must be a number or a flat list of numbers, "
            "got [1.0, 'x']"
        )
        for op in (hub.observe, hub.observe_with_stats):
            with pytest.raises(ConfigurationError) as refused:
                op("t", "m", [1.0, "x"])
            assert str(refused.value) == message
        assert sent == []
        assert hub.stats("t", "m")["n_seen"] == 3
    finally:
        hub.close()


def test_shm_block_grows_and_shrinks_with_batches():
    """A batch larger than the staging segment forces a bigger replacement
    segment; correctness is unaffected in either direction."""
    with ShardedHub(1) as hub:
        hub.register("t", "m", "DDM")
        hub.ingest([("t", "m", [0.0] * 8)])
        first = hub._shm_blocks[0].size
        big = 2 * first // 8 + 16  # elements, > capacity
        hub.ingest([("t", "m", [0.0] * big)])
        assert hub._shm_blocks[0].size > first
        hub.ingest([("t", "m", [0.0] * 4)])  # shrink back to small batches
        assert hub.stats("t", "m")["n_seen"] == 8 + big + 4


def test_shm_segments_are_released_on_close():
    hub = ShardedHub(2)
    hub.register("t", "m", "DDM")
    hub.ingest([("t", "m", [1.0, 0.0])])
    names = [block.name for block in hub._shm_blocks.values()]
    assert len(names) == 2  # one per shard, allocated at spawn
    hub.close()
    from multiprocessing import shared_memory

    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_zero_length_payload_matches_single_hub():
    """An empty chunk travels through shared memory like any other batch
    and yields the same zero-length outcome a single hub reports."""
    single = MonitorHub()
    single.register("t", "m", "DDM")
    with ShardedHub(2) as hub:
        hub.register("t", "m", "DDM")
        [sharded_outcome] = hub.ingest([("t", "m", [])])
        [single_outcome] = single.ingest([("t", "m", [])])
        assert sharded_outcome.n_processed == single_outcome.n_processed == 0
        assert sharded_outcome.offset == single_outcome.offset == 0
        assert sharded_outcome.drift_positions == []
        # The next real batch continues from the same position.
        assert hub.ingest([("t", "m", [1.0])])[0].offset == 0


def test_segment_growth_failure_raises_before_any_send(monkeypatch):
    """Without a fallback transport, a segment that cannot grow fails the
    ingest that needed it — before either shard has been sent anything."""
    from multiprocessing import shared_memory

    with ShardedHub(2) as hub:
        _register_fleet(hub)
        small = hub._shm_blocks[0].size // 8

        def refuse(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        events = [(t, m, [0.0] * small * 2) for t, m, _, _ in MONITORS]
        with pytest.raises(ShardError, match="shared-memory segment"):
            hub.ingest(events)
        monkeypatch.undo()
        assert hub.stats()["n_events"] == 0
        # The next ingest allocates again and succeeds.
        assert sum(o.n_processed for o in hub.ingest(events)) == len(events) * small * 2


def test_unusable_shared_memory_fails_at_construction(monkeypatch):
    import multiprocessing
    from multiprocessing import shared_memory

    def refuse(*args, **kwargs):
        raise OSError("shared memory is unavailable")

    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
    with pytest.raises(ShardError, match="shared-memory segment"):
        ShardedHub(2)
    assert not [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-shard-")
    ]


# ----------------------------------------------------- degraded cluster


def _kill_shard(hub, index):
    import os
    import signal as signal_module
    import time

    os.kill(hub.worker_pid(index), signal_module.SIGKILL)
    deadline = time.time() + 10
    while index not in hub.dead_shards() and time.time() < deadline:
        time.sleep(0.05)
    assert index in hub.dead_shards()


def test_degraded_reads_with_dead_shard(tmp_path):
    """metrics / alerts_history / stats keep answering on a degraded
    cluster — dead shards are absent from the sums, not an exception."""
    hub = ShardedHub(
        2, checkpoint_dir=tmp_path / "ck", wal_dir=tmp_path / "wal"
    )
    try:
        _register_fleet(hub)
        hub.ingest(_interleaved_events(VALUES))
        full_stats = hub.stats()
        full_history = hub.alerts_history()
        assert full_history  # the stream drifts, so the WAL has records
        victim = hub.shard_of("acme", "checkout")
        survivor_keys = {
            (t, m) for t, m, _, _ in MONITORS if hub.shard_of(t, m) != victim
        }
        _kill_shard(hub, victim)

        stats = hub.stats()
        assert stats["n_alive_shards"] == 1
        assert stats["n_shards"] == 2
        assert stats["n_events"] < full_stats["n_events"]

        metrics = hub.metrics()
        assert metrics["n_alive_shards"] == 1
        assert len(metrics["shards"]) == 1

        history = hub.alerts_history()
        assert {(r["tenant"], r["monitor_id"]) for r in history} <= survivor_keys
        assert len(history) <= len(full_history)
    finally:
        hub.close()


def test_reshard_in_memory_grow_and_shrink():
    """reshard without a checkpoint_dir: pure in-memory migration (no
    manifest, no WAL) still preserves every monitor's state bit-exactly."""
    single = MonitorHub()
    _register_fleet(single)
    expected = {}
    for outcome in single.ingest(_interleaved_events(VALUES)):
        expected.setdefault((outcome.tenant, outcome.monitor_id), []).extend(
            outcome.drift_positions
        )

    hub = ShardedHub(2)
    try:
        _register_fleet(hub)
        collected = {}
        events = _interleaved_events(VALUES)
        third = len(events) // 3
        for batch, n_new in ((events[:third], 4), (events[third : 2 * third], 3), (events[2 * third :], None)):
            for outcome in hub.ingest(batch):
                collected.setdefault(
                    (outcome.tenant, outcome.monitor_id), []
                ).extend(outcome.drift_positions)
            if n_new is not None:
                hub.reshard(n_new)
                assert hub.n_shards == n_new
                for tenant, monitor_id, shard in hub.monitor_keys():
                    assert shard == hub.shard_of(tenant, monitor_id)
        assert collected == expected
    finally:
        hub.close()


def test_reshard_rolls_back_a_worker_that_cannot_get_shared_memory(
    tmp_path, monkeypatch
):
    """A grow whose new worker cannot allocate its staging segment aborts
    before the commit point and leaves the old layout serving; the same
    reshard succeeds once shared memory is back."""
    from multiprocessing import shared_memory

    with ShardedHub(2, checkpoint_dir=tmp_path) as hub:
        _register_fleet(hub)
        real = shared_memory.SharedMemory

        def refuse(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        with pytest.raises(ShardError, match="shared-memory segment"):
            hub.reshard(3)
        monkeypatch.setattr(shared_memory, "SharedMemory", real)
        assert hub.n_shards == 2
        assert len(hub._processes) == len(hub._conns) == 2
        manifest = json.loads((tmp_path / MANIFEST_FILENAME).read_text())
        assert manifest["n_shards"] == 2 and manifest["pending"] is None
        hub.ingest(_interleaved_events(VALUES))
        assert hub.reshard(3)["n_shards"] == 3
        assert hub.stats()["n_events"] == 600 * len(MONITORS)


def test_retired_shard_alerts_are_parked_not_lost():
    """A shrink retires workers; alerts still queued in them must surface
    from the next drain, not vanish with the process."""
    with ShardedHub(4) as hub:
        _register_fleet(hub)
        hub.ingest(_interleaved_events(VALUES))  # drifts → queued alerts
        # Do NOT drain before the shrink: the retiring workers' queues are
        # exactly what must survive.
        before = {
            (t, m) for t, m, _, _ in MONITORS
        }
        hub.reshard(2)
        alerts, _ = hub.drain_alerts()
        alerted = {(a.tenant, a.monitor_id) for a in alerts}
        assert alerted  # the stream drifts
        assert alerted <= before
        # Same fleet, same stream, never-resharded: identical alert keys.
    with ShardedHub(4) as reference:
        _register_fleet(reference)
        reference.ingest(_interleaved_events(VALUES))
        ref_alerts, _ = reference.drain_alerts()
    assert sorted(
        (a.tenant, a.monitor_id, a.seq, a.kind, a.position) for a in alerts
    ) == sorted(
        (a.tenant, a.monitor_id, a.seq, a.kind, a.position) for a in ref_alerts
    )


# ------------------------------------------------- worker request surface


def test_worker_refuses_ops_outside_its_method_list():
    """A worker runs only the hub methods it lists: ``close``, an attribute
    name and an unknown name are each refused with a reply, and the shard
    keeps answering on the same pipe afterwards."""
    with ShardedHub(2) as hub:
        hub.register("t", "m", "DDM")
        shard = hub.shard_of("t", "m")
        for op in ("close", "checkpoint_dir", "no_such_op"):
            with pytest.raises(ShardError, match=f"unknown worker op '{op}'"):
                hub._call(shard, op)
            assert hub.observe("t", "m", [1.0, 0.0]).n_processed == 2
        assert hub.stats("t", "m")["n_seen"] == 6


def test_owner_routed_history_matches_single_hub(tmp_path):
    """``alerts_history(tenant, monitor)`` routes to the owning shard and
    returns the same alerts a single hub logs for the same traffic."""
    single = MonitorHub(wal_dir=tmp_path / "single")
    _register_fleet(single)
    single.ingest(_interleaved_events(VALUES))
    try:
        with ShardedHub(2, wal_dir=tmp_path / "sharded") as hub:
            _register_fleet(hub)
            hub.ingest(_interleaved_events(VALUES))
            n_alerts = 0
            for tenant, monitor_id, _, _ in MONITORS:
                expected = [
                    (r["kind"], r["position"], r["seq"])
                    for r in single.alerts_history(tenant, monitor_id)
                ]
                assert [
                    (r["kind"], r["position"], r["seq"])
                    for r in hub.alerts_history(tenant, monitor_id)
                ] == expected
                n_alerts += len(expected)
            assert n_alerts > 0  # the stream drifts
    finally:
        single.close()


def _fail_reaps(monkeypatch, hub):
    """Make each of ``hub``'s reaps raise after it has reaped, so the
    failure is recorded and still no worker outlives the test."""
    reap = hub._reap

    def failing_reap(process, conn):
        reap(process, conn)
        raise OSError("reap failed")

    monkeypatch.setattr(hub, "_reap", failing_reap)


def _cleanup_failures(journal):
    return [(e["what"], e.get("shard")) for e in journal.events(kind="cleanup_failure")]


def test_failed_retire_is_counted_and_fails_the_committed_reshard(
    tmp_path, monkeypatch
):
    hub = ShardedHub(3, checkpoint_dir=tmp_path)
    try:
        _register_fleet(hub)
        _fail_reaps(monkeypatch, hub)
        with pytest.raises(ShardError, match="committed, but its cleanup failed"):
            hub.reshard(2)
        monkeypatch.undo()
        assert hub.n_shards == 2
        assert _cleanup_failures(hub.journal) == [("retiring_shard_stop", 2)]
        assert hub.stats()["n_cleanup_failures"] == 1
        assert hub.metrics()["n_cleanup_failures"] == 1
    finally:
        hub.close()


def test_failed_reaps_on_close_are_counted_per_shard(monkeypatch):
    from repro.obs.journal import EventJournal

    journal = EventJournal(capacity=64)  # outlives the hub's close()
    hub = ShardedHub(2, journal=journal)
    _fail_reaps(monkeypatch, hub)
    hub.close()
    assert sorted(_cleanup_failures(journal)) == [("close_worker", 0), ("close_worker", 1)]
    assert hub._n_cleanup_failures == 2
    assert all(not process.is_alive() for process in hub._processes)


def test_failed_reaps_on_an_aborted_grow_are_counted(tmp_path, monkeypatch):
    """A 2 -> 4 grow whose second new worker cannot get shared memory rolls
    back; reaps that fail while it retires the spawned workers are counted."""
    from multiprocessing import shared_memory

    real = shared_memory.SharedMemory
    n_allocations = 0

    def second_allocation_fails(*args, **kwargs):
        nonlocal n_allocations
        n_allocations += 1
        if n_allocations > 1:
            raise OSError("no space left on device")
        return real(*args, **kwargs)

    with ShardedHub(2, checkpoint_dir=tmp_path) as hub:
        _register_fleet(hub)
        _fail_reaps(monkeypatch, hub)
        monkeypatch.setattr(shared_memory, "SharedMemory", second_allocation_fails)
        with pytest.raises(ShardError, match="shared-memory segment"):
            hub.reshard(4)
        monkeypatch.undo()
        failures = _cleanup_failures(hub.journal)
        assert ("abort_retire_worker", 2) in failures
        assert {what for what, _ in failures} == {"abort_retire_worker"}
        assert hub.stats()["n_cleanup_failures"] == len(failures)
        assert hub.n_shards == 2 and len(hub._processes) == 2
        assert hub.stats()["n_alive_shards"] == 2
