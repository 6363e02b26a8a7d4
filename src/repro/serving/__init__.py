"""Multi-tenant drift-monitoring serving layer.

This subsystem turns the repository's offline detectors into long-lived,
resumable monitors — the "live ML monitoring loop" deployment shape the paper
positions drift detectors for:

* :mod:`repro.serving.snapshot` — JSON-safe, bit-exact detector
  serialization (``snapshot_detector`` / ``restore_detector``) on top of
  :meth:`repro.core.base.DriftDetector.state_dict`;
* :mod:`repro.serving.hub` — :class:`MonitorHub`, a registry of
  ``(tenant, monitor_id) → detector`` entries with batched ingestion through
  the vectorised ``update_batch`` fast paths, a bounded alert buffer
  (``drain_alerts``) and atomic whole-hub checkpointing;
* :mod:`repro.serving.sinks` — pluggable alert sinks (callback, in-memory
  queue, JSON-lines audit log, retrying webhook) fired on warning/drift
  transitions;
* :mod:`repro.serving.wal` — :class:`AlertWal`, the segmented, CRC-checked,
  fsync'd write-ahead log behind the durable alert bus: alerts are logged
  before sinks see them, a restarted hub replays the post-checkpoint tail
  exactly once, and the retained tail serves the ``alerts_history`` op;
* :mod:`repro.serving.metrics` — the latency/rate instruments behind the
  ``metrics`` op;
* :mod:`repro.serving.server` — an asyncio JSON-lines TCP server
  (``python -m repro.serving``) so external processes can stream error
  values at high throughput; it fronts either hub through the one surface
  both implement;
* :mod:`repro.serving.sharded` — :class:`ShardedHub`, the same registry
  partitioned across N shared-nothing worker processes (slot-based BLAKE2b
  routing over a manifest-carried assignment table, live ``reshard(n)``,
  shared-memory ingest fan-out, per-shard checkpoints plus a cluster
  manifest, kill-and-respawn recovery) for multi-core scale-out
  (``python -m repro.serving --shards N``).

Checkpoints and cluster manifests are read at their current schema
version only (``HUB_SCHEMA_VERSION``, ``MANIFEST_SCHEMA_VERSION``); an
older document raises :class:`~repro.exceptions.SnapshotError`.

See ``docs/serving.md`` for the hub lifecycle, the checkpoint format, the
sharding model, and the wire protocol, and ``examples/live_monitoring.py``
for the daemon-style usage pattern.
"""

from repro.serving.hub import (
    CHECKPOINT_FILENAME,
    HUB_SCHEMA_VERSION,
    MonitorHub,
    ObserveResult,
)
from repro.serving.server import ServingServer
from repro.serving.sharded import (
    MANIFEST_FILENAME,
    MANIFEST_SCHEMA_VERSION,
    N_SLOTS,
    ShardedHub,
    default_slot_assignment,
    route_slot,
)
from repro.serving.metrics import LatencyWindow, RateMeter
from repro.serving.sinks import (
    AlertSink,
    CallbackSink,
    DriftAlert,
    JsonlAuditSink,
    QueueSink,
    WebhookSink,
)
from repro.serving.wal import AlertWal, WAL_SCHEMA_VERSION, read_wal_head
from repro.serving.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    build_detector,
    detector_registry,
    restore_detector,
    snapshot_detector,
    snapshot_json,
)

__all__ = [
    "MonitorHub",
    "ObserveResult",
    "ServingServer",
    "ShardedHub",
    "route_slot",
    "default_slot_assignment",
    "N_SLOTS",
    "MANIFEST_FILENAME",
    "MANIFEST_SCHEMA_VERSION",
    "AlertSink",
    "CallbackSink",
    "QueueSink",
    "JsonlAuditSink",
    "WebhookSink",
    "DriftAlert",
    "AlertWal",
    "read_wal_head",
    "WAL_SCHEMA_VERSION",
    "LatencyWindow",
    "RateMeter",
    "snapshot_detector",
    "restore_detector",
    "snapshot_json",
    "build_detector",
    "detector_registry",
    "SNAPSHOT_SCHEMA_VERSION",
    "HUB_SCHEMA_VERSION",
    "CHECKPOINT_FILENAME",
]
