"""MonitorHub — a multi-tenant registry of long-lived drift monitors.

The hub hosts many named ``(tenant, monitor_id) → detector`` entries
concurrently, feeds them through the detectors' vectorised ``update_batch``
fast paths, fires :class:`~repro.serving.sinks.DriftAlert` events on
warning/drift transitions, and checkpoints the whole registry to disk so a
restarted process resumes every monitor bit-exactly where it stopped.

Design points:

* **Batched ingestion** — :meth:`MonitorHub.ingest` accepts an arbitrary
  interleaving of per-monitor events, checks them in request order into one
  float64 chunk per monitor (:func:`checked_events`, which
  :class:`~repro.serving.sharded.ShardedHub` runs too), and feeds each
  monitor its chunk with a single ``update_batch`` call, in the order of the
  monitors' first events.  This is what turns one-Python-call-per-event
  serving into vectorised serving; ``perfbench/`` measures it end to end
  over the wire, layer by layer.  The first unknown monitor or malformed
  payload fails the whole call with nothing applied.
* **Checkpoint/restore** — :meth:`MonitorHub.checkpoint` writes one JSON
  document (schema-versioned, atomic tmp-file + ``os.replace``) containing a
  bit-exact snapshot of every detector plus a config hash of the hub
  composition, following the orchestrator's resume-from-partial idiom.  A hub
  constructed with the same ``checkpoint_dir`` resumes from it automatically.
* **Alert transitions** — sinks fire on *transitions*: one ``"warning"``
  alert per entry into the warning zone (not per warning element) and one
  ``"drift"`` alert per flagged drift.  A monitor's alerts from one flush
  go out as one batch: every sink receives them in ``seq`` order.
* **Durable alert bus** — with a ``wal_dir``, every alert is appended to a
  segmented, CRC-checked, fsync'd write-ahead log (:class:`~repro.serving.
  wal.AlertWal`) *before* any sink sees it, each alert carrying a monotonic
  per-monitor sequence number that also lives in the checkpoint schema.  A
  restarted hub replays the WAL tail past its checkpoint to its sinks
  (flagged ``redelivered``) during construction and suppresses the live
  re-fires a producer's replay regenerates — ``kill -9`` loses no alert and
  delivers none twice (see ``docs/serving.md``, "Durability & delivery
  semantics", and ``tests/integration/test_wal_crash_matrix.py``).
* **Alert buffer** — every hub also delivers its alerts to a bounded
  in-memory queue that :meth:`MonitorHub.drain_alerts` empties; this is
  what the TCP server's ``alerts`` op returns, with the same signature as
  :meth:`~repro.serving.sharded.ShardedHub.drain_alerts`.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.base import BatchResult, DriftDetector, as_value_array
from repro.core.config import grid_config_hash
from repro.core.ppf_tables import TableKey, build_in_child, shared_demand
from repro.exceptions import ConfigurationError, SnapshotError
from repro.obs.journal import EventJournal
from repro.obs.prom import UpdateTimings
from repro.obs.trace import SpanHandle, TraceContext, Tracer
from repro.serving.metrics import LatencyWindow, RateMeter
from repro.serving.sinks import AlertSink, DriftAlert, QueueSink
from repro.serving.snapshot import (
    atomic_write_json,
    build_detector,
    restore_detector,
    sanitize,
    snapshot_detector,
)
from repro.serving.wal import AlertWal

__all__ = [
    "MonitorHub",
    "ObserveResult",
    "ALERT_BUFFER_LIMIT",
    "HUB_SCHEMA_VERSION",
    "CHECKPOINT_FILENAME",
]

logger = logging.getLogger(__name__)

#: Version of the hub checkpoint document schema (the only one restore
#: reads).  Version 2 added the per-monitor ``alert_seq`` counter (the WAL
#: replay watermark).
HUB_SCHEMA_VERSION = 2

#: Capacity of a hub's alert buffer (:meth:`MonitorHub.drain_alerts`).
#: Bounded so a deployment that never drains keeps only the most recent
#: transitions instead of accumulating forever.
ALERT_BUFFER_LIMIT = 10_000

#: File name of the hub checkpoint inside ``checkpoint_dir``.
CHECKPOINT_FILENAME = "hub-checkpoint.json"

_MonitorKey = Tuple[str, str]
#: One ingestion event: ``(tenant, monitor_id, value-or-chunk)``.
Event = Tuple[str, str, Union[float, Sequence[float]]]


@dataclass(frozen=True)
class ObserveResult:
    """Outcome of feeding one monitor a chunk of values.

    ``offset`` is the monitor's lifetime element count before the chunk, so
    ``drift_positions`` / ``warning_positions`` are global stream positions.
    """

    tenant: str
    monitor_id: str
    offset: int
    batch: BatchResult

    @property
    def n_processed(self) -> int:
        """Number of elements consumed from the chunk."""
        return self.batch.n_processed

    @property
    def drift_positions(self) -> List[int]:
        """Lifetime stream positions where drifts were flagged."""
        return [self.offset + index for index in self.batch.drift_indices]

    @property
    def warning_positions(self) -> List[int]:
        """Lifetime stream positions where the warning zone was active."""
        return [self.offset + index for index in self.batch.warning_indices]


class _MonitorEntry:
    """One hosted monitor: identity, detector, and alert-transition state."""

    __slots__ = (
        "tenant",
        "monitor_id",
        "detector",
        "config_key",
        "in_warning",
        "alert_seq",
        "timing_recorder",
    )

    def __init__(
        self,
        tenant: str,
        monitor_id: str,
        detector: DriftDetector,
        in_warning: bool = False,
        alert_seq: int = 0,
    ) -> None:
        self.tenant = tenant
        self.monitor_id = monitor_id
        self.detector = detector
        self.config_key = _config_key(detector)
        self.in_warning = in_warning
        #: Sequence number of this monitor's most recently *assigned* alert
        #: (1-based; 0 = never alerted).  Deterministic: a restored monitor
        #: re-fed the same elements re-assigns the same numbers.
        self.alert_seq = alert_seq
        #: Lazily-bound per-monitor update-timing handle (hub instrumentation).
        self.timing_recorder: Optional[Any] = None


def checked_chunk(key: _MonitorKey, payload: Any) -> "np.ndarray":
    """One monitor's payload as a 1-d float64 chunk.

    The payload goes through :func:`~repro.core.base.as_value_array`, the
    input rule of every detector's ``update_batch``; one it refuses (a
    string, a mapping, ``None`` bare or in a list, a nested or ragged list)
    raises :class:`ConfigurationError` naming the monitor.
    """
    try:
        return as_value_array(payload)
    except TypeError as exc:
        raise ConfigurationError(f"monitor {key[0]}/{key[1]}: {exc}") from None


def unknown_monitor(key: _MonitorKey) -> ConfigurationError:
    """The error of a request that names a monitor no hub registered."""
    return ConfigurationError(f"unknown monitor {'/'.join(key)}; register it first")


def checked_events(
    events: Iterable[Event], known: Container[_MonitorKey]
) -> Dict[_MonitorKey, "np.ndarray"]:
    """Check an ``ingest`` batch in request order; one chunk per monitor.

    The first event whose monitor is not in ``known``, or whose payload
    :func:`checked_chunk` refuses, raises :class:`ConfigurationError`, so a
    refused batch feeds nothing.  Each monitor's payloads are concatenated
    in request order, and the monitors come in the order of their first
    events.
    """
    parts: Dict[_MonitorKey, List["np.ndarray"]] = {}
    for tenant, monitor_id, payload in events:
        key = (str(tenant), str(monitor_id))
        if key not in known:
            raise unknown_monitor(key)
        parts.setdefault(key, []).append(checked_chunk(key, payload))
    return {
        key: chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        for key, chunks in parts.items()
    }


def _config_key(detector: DriftDetector) -> str:
    """Configuration identity: class name and canonical constructor config."""
    return json.dumps(
        {"detector": type(detector).__name__, "config": sanitize(detector._config_dict())},
        sort_keys=True,
        separators=(",", ":"),
    )


def _monitor_record(entry: _MonitorEntry) -> Dict[str, Any]:
    """One monitor in the checkpoint's ``monitors`` schema (also the
    relocation record of :meth:`MonitorHub.export_monitors`)."""
    return {
        "tenant": entry.tenant,
        "monitor_id": entry.monitor_id,
        "in_warning": entry.in_warning,
        "alert_seq": entry.alert_seq,
        "snapshot": snapshot_detector(entry.detector),
    }


def _monitor_entry(record: Mapping[str, Any]) -> _MonitorEntry:
    """Restore one :func:`_monitor_record` bit-exactly.

    Raises ``KeyError`` / ``TypeError`` / ``ValueError`` on a malformed
    record; callers wrap them in :class:`SnapshotError`.
    """
    return _MonitorEntry(
        str(record["tenant"]),
        str(record["monitor_id"]),
        restore_detector(record["snapshot"]),
        in_warning=bool(record["in_warning"]),
        alert_seq=int(record["alert_seq"]),
    )


class MonitorHub:
    """Registry and execution engine for many concurrent drift monitors.

    Parameters
    ----------
    checkpoint_dir:
        Directory for hub checkpoints.  When it already holds a checkpoint,
        the hub resumes from it (pass ``resume=False`` to start fresh).
    sinks:
        Alert sinks notified of warning/drift transitions.  The hub's own
        alert buffer (:meth:`drain_alerts`) is delivered to after them.
    checkpoint_every:
        Automatically checkpoint after this many observed values (across all
        monitors); ``None`` disables automatic checkpointing.
    wal_dir:
        Directory of the durable alert write-ahead log (``None`` disables
        the WAL).  With a WAL, every alert and per-monitor ingest watermark
        is logged before sinks fire, and a resumed hub re-delivers the
        post-checkpoint alert tail to its sinks (and its alert buffer)
        exactly once, during construction.
    wal_fsync:
        WAL durability mode — ``"batch"`` (default; one fsync per
        ``ingest``/``observe`` flush), ``"always"`` (per record), or
        ``"off"`` (OS flush only).  Segments rotate at 4 MiB and a
        checkpoint keeps the newest 8 (the :class:`~repro.serving.wal.
        AlertWal` defaults).
    tracer:
        A :class:`~repro.obs.trace.Tracer`; defaults to a disabled one
        (``sample_rate=0``), so tracing costs one predicate per call site
        until a front-end opts in.
    journal:
        An :class:`~repro.obs.journal.EventJournal` shared with the
        front-end; defaults to a private bounded ring (the hub always
        journals its WAL rotations, so the black box exists before anyone
        configures observability).
    instrument:
        Record per-detector-class update-time histograms and per-monitor
        cost attribution (:class:`~repro.obs.prom.UpdateTimings`).  On by
        default; ``False`` is the measured-baseline seam of
        ``benchmarks/bench_obs_overhead.py``.
    """

    def __init__(
        self,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        sinks: Iterable[AlertSink] = (),
        checkpoint_every: Optional[int] = None,
        resume: bool = True,
        wal_dir: Optional[Union[str, Path]] = None,
        wal_fsync: str = "batch",
        tracer: Optional[Tracer] = None,
        journal: Optional[EventJournal] = None,
        instrument: bool = True,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_every is not None and checkpoint_dir is None:
            raise ConfigurationError(
                "checkpoint_every requires a checkpoint_dir — without one the "
                "periodic checkpoints would silently never be written"
            )
        self._checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        # The buffer exists before the WAL replay below, so the redelivered
        # tail lands in it too.
        self._alerts = QueueSink(maxlen=ALERT_BUFFER_LIMIT)
        self._sinks: List[AlertSink] = [*sinks, self._alerts]
        self._checkpoint_every = checkpoint_every
        self._entries: Dict[_MonitorKey, _MonitorEntry] = {}
        self._n_events = 0
        self._events_since_checkpoint = 0
        self._n_sink_failures = 0
        self._sink_failures_by_tenant: Dict[str, int] = {}
        #: Per-monitor ``alert_seq`` as recorded in the restored checkpoint
        #: (the replay floor: alerts at or below it were delivered before
        #: the checkpoint was written).
        self._checkpoint_seq: Dict[_MonitorKey, int] = {}
        #: Per-monitor highest seq already delivered to sinks by a previous
        #: process or this process's restore replay; live re-fires at or
        #: below it are suppressed instead of double-delivered.
        self._replayed_through: Dict[_MonitorKey, int] = {}
        self._n_replay_suppressed = 0
        self._n_wal_replayed = 0
        self._flush_latency = LatencyWindow(1024)
        self._ingest_rate = RateMeter(window=60.0)
        self._tracer = tracer if tracer is not None else Tracer()
        self._owns_journal = journal is None
        self._journal = journal if journal is not None else EventJournal(capacity=256)
        self._timings: Optional[UpdateTimings] = (
            UpdateTimings() if instrument else None
        )
        #: Timings parked by :meth:`set_instrumented` so a pause/resume
        #: cycle keeps its accumulated attribution.
        self._paused_timings: Optional[UpdateTimings] = None
        #: Span of the flush in progress, so deep call sites (sink emits)
        #: can hang children off it without threading a parameter through.
        self._active_span: Optional[SpanHandle] = None
        if resume and self._checkpoint_dir is not None:
            path = self._checkpoint_dir / CHECKPOINT_FILENAME
            if path.is_file():
                self._restore_from(path)
        self._wal: Optional[AlertWal] = None
        if wal_dir is not None:
            self._wal = AlertWal(wal_dir, fsync=wal_fsync, on_rotate=self._on_wal_rotate)
            if resume:
                self._replay_wal(self._wal)

    # ---------------------------------------------------------- registration

    def register(
        self,
        tenant: str,
        monitor_id: str,
        detector: Union[str, DriftDetector] = "OPTWIN",
        params: Optional[Mapping[str, Any]] = None,
        exist_ok: bool = False,
    ) -> Dict[str, Any]:
        """Register a monitor; return ``{"detector": <class name>, "n_seen": n}``.

        ``detector`` is a registry name (e.g. ``"OPTWIN"``, ``"Adwin"``)
        built with ``params`` as constructor kwargs, or a ready-made
        :class:`DriftDetector` instance.  Registering an existing key raises
        unless ``exist_ok`` is set, in which case the existing monitor is
        kept when the requested configuration matches (the idempotent
        re-register of a client reconnecting after a hub restart).  A new
        OPTWIN configuration's cut table is built to ``w_max`` first, in a
        forked child (about 0.3 s at ``w_max`` 5,000 plus the child's scipy
        import); if that child fails, :class:`~repro.exceptions.ReproError`
        is raised and nothing is registered.  The return value is
        :meth:`ShardedHub.register
        <repro.serving.sharded.ShardedHub.register>`'s; :meth:`detector`
        returns the live detector object.
        """
        key = (str(tenant), str(monitor_id))
        if isinstance(detector, DriftDetector):
            if params is not None:
                raise ConfigurationError(
                    "params are only valid with a detector name, not an instance"
                )
            candidate = detector
        else:
            candidate = build_detector(detector, params)
        existing = self._entries.get(key)
        if existing is not None:
            if not exist_ok:
                raise ConfigurationError(
                    f"monitor {key[0]}/{key[1]} is already registered"
                )
            if existing.config_key != _config_key(candidate):
                raise ConfigurationError(
                    f"monitor {key[0]}/{key[1]} exists with a different "
                    "detector configuration"
                )
            entry = existing
        else:
            entry = _MonitorEntry(key[0], key[1], candidate)
            self._add_entries([entry])
        return {
            "detector": type(entry.detector).__name__,
            "n_seen": entry.detector.n_seen,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: _MonitorKey) -> bool:
        return tuple(key) in self._entries

    def monitors(self) -> Iterator[Tuple[str, str, DriftDetector]]:
        """Iterate ``(tenant, monitor_id, detector)`` in registration order."""
        for (tenant, monitor_id), entry in self._entries.items():
            yield tenant, monitor_id, entry.detector

    def keys(self) -> List[_MonitorKey]:
        """Every ``(tenant, monitor_id)`` key, in registration order."""
        return list(self._entries)

    def detector(self, tenant: str, monitor_id: str) -> DriftDetector:
        """The detector behind one monitor (raises for unknown keys)."""
        return self._entry(tenant, monitor_id).detector

    def _entry(self, tenant: str, monitor_id: str) -> _MonitorEntry:
        key = (str(tenant), str(monitor_id))
        entry = self._entries.get(key)
        if entry is None:
            raise unknown_monitor(key)
        return entry

    def _add_entries(self, entries: Sequence[_MonitorEntry]) -> None:
        """Host ``entries``, after filling every cut table they read.

        Each table is filled to the length its detector needs, in a forked
        child (:func:`~repro.core.ppf_tables.build_in_child`), so no value
        waits on a build and this process never imports scipy.  A failed
        build raises :class:`~repro.exceptions.ReproError` before any entry
        is added.
        """
        for entry in entries:
            demand = entry.detector._table_demand()
            if demand is not None:
                build_in_child(*demand)
        for entry in entries:
            self._entries[(entry.tenant, entry.monitor_id)] = entry

    # ------------------------------------------------------------ relocation

    def export_monitors(
        self, keys: Iterable[_MonitorKey]
    ) -> List[Dict[str, Any]]:
        """Snapshot selected monitors for relocation to another hub.

        Returns one record per key in the checkpoint's ``monitors`` schema
        (identity, transition state, ``alert_seq``, bit-exact detector
        snapshot) — exactly what :meth:`import_monitors` consumes on the
        receiving hub.  Read-only: the exporting hub keeps serving the
        monitors until :meth:`forget_monitors` drops them.  This is the
        state hand-off underneath :meth:`~repro.serving.sharded.ShardedHub.
        reshard`.
        """
        return [
            _monitor_record(self._entry(tenant, monitor_id))
            for tenant, monitor_id in keys
        ]

    def import_monitors(self, records: Iterable[Dict[str, Any]]) -> int:
        """Adopt monitors exported from another hub; return the count.

        Restores each record bit-exactly — detector state, warning-zone
        transition flag, and the ``alert_seq`` counter, so the monitor's
        next alert continues the sequence the exporting hub left off at
        (exactly-once delivery survives the move).  A key that already
        exists, a corrupt record and a failed cut-table build (see
        :meth:`register`) each raise before anything is adopted.  The hub's
        lifetime event count adopts each detector's ``n_seen`` (and
        :meth:`forget_monitors` sheds it), keeping cluster-wide
        ``n_events`` invariant across relocations.
        """
        records = list(records)
        for record in records:
            key = (str(record["tenant"]), str(record["monitor_id"]))
            if key in self._entries:
                raise ConfigurationError(
                    f"monitor {key[0]}/{key[1]} is already registered"
                )
        try:
            entries = [_monitor_entry(record) for record in records]
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"corrupt monitor export record: {exc}") from exc
        self._add_entries(entries)
        for entry in entries:
            n_seen = entry.detector.n_seen
            self._n_events += n_seen
            if self._wal is not None:
                self._wal.append_watermark(entry.tenant, entry.monitor_id, n_seen)
        if records:
            self._commit_wal()
        return len(records)

    def forget_monitors(self, keys: Iterable[_MonitorKey]) -> int:
        """Drop monitors handed off to another hub; return how many existed.

        Unknown keys are skipped (forget is the idempotent second half of a
        relocation, and crash recovery may retry it).  With a WAL, a
        ``delivered`` marker is appended at each monitor's ``alert_seq``
        first: every alert this hub ever fired for the monitor was delivered
        before the hand-off, so a later crash-replay of this shard's WAL
        must not re-deliver the departed monitor's tail.
        """
        n = 0
        for tenant, monitor_id in keys:
            key = (str(tenant), str(monitor_id))
            entry = self._entries.pop(key, None)
            if entry is None:
                continue
            self._n_events = max(0, self._n_events - entry.detector.n_seen)
            self._checkpoint_seq.pop(key, None)
            self._replayed_through.pop(key, None)
            if self._wal is not None and entry.alert_seq > 0:
                self._wal.append_delivered(
                    entry.tenant, entry.monitor_id, entry.alert_seq
                )
            n += 1
        if n:
            self._commit_wal()
        return n

    # ------------------------------------------------------------- ingestion

    def observe(
        self,
        tenant: str,
        monitor_id: str,
        values: Union[float, Sequence[float]],
        trace_ctx: Optional[TraceContext] = None,
    ) -> ObserveResult:
        """Feed one monitor a value or chunk of values (oldest first).

        A payload that does not convert to float64 raises
        :class:`ConfigurationError` before the monitor sees any of it.
        """
        entry = self._entry(tenant, monitor_id)
        chunk = checked_chunk((entry.tenant, entry.monitor_id), values)
        span = self._tracer.begin(
            "hub.observe", trace_ctx, tenant=entry.tenant, monitor=entry.monitor_id
        )
        return self._flush(span, time.perf_counter(), [(entry, chunk)])[0]

    def observe_with_stats(
        self,
        tenant: str,
        monitor_id: str,
        values: Union[float, Sequence[float]],
        trace_ctx: Optional[TraceContext] = None,
    ) -> Tuple[ObserveResult, Dict[str, Any]]:
        """Feed one monitor and return ``(outcome, per-monitor stats)``.

        One call for front-ends that report post-update counters with every
        response; on a sharded hub the pair costs a single worker round-trip
        instead of two.
        """
        outcome = self.observe(tenant, monitor_id, values, trace_ctx=trace_ctx)
        return outcome, self.stats(tenant, monitor_id)

    def ingest(
        self,
        events: Iterable[Event],
        trace_ctx: Optional[TraceContext] = None,
    ) -> List[ObserveResult]:
        """Feed an interleaved batch of events through the vectorised paths.

        :func:`checked_events` turns the batch into one chunk per monitor,
        each monitor's events concatenated in request order, and each chunk
        is fed with a single ``update_batch`` call.  Returns one
        :class:`ObserveResult` per monitor that received data, in the order
        of the monitors' first events, which is also the order of their
        alerts and WAL records.  ``trace_ctx`` stitches this flush under a
        front-end's span (a sharded fan-out, the TCP server's request span);
        without one the hub's own tracer samples a root.

        The call is all-or-nothing up to the detectors: the first unknown
        monitor or payload that does not convert to float64, in request
        order, raises :class:`ConfigurationError` before any monitor is fed.
        A sampled ``hub.ingest`` span ends on every path; a call that raises
        records the exception's message as the span's ``error`` argument.
        """
        span = self._tracer.begin("hub.ingest", trace_ctx)
        started = time.perf_counter()
        try:
            chunks = checked_events(events, self._entries)
            return self._flush(
                span,
                started,
                ((self._entries[key], chunk) for key, chunk in chunks.items()),
            )
        except Exception as exc:
            if span is not None:
                span.add(error=str(exc))
                span.end()
            raise

    def _flush(
        self,
        span: Optional[SpanHandle],
        started: float,
        chunks: Iterable[Tuple[_MonitorEntry, "np.ndarray"]],
    ) -> List[ObserveResult]:
        """Feed each monitor its chunk, commit the WAL once, record the flush
        latency since ``started``, end ``span`` and checkpoint when one is due."""
        self._active_span = span
        try:
            results = [self._feed(entry, chunk, span) for entry, chunk in chunks]
            self._commit_wal(span)
        finally:
            self._active_span = None
        self._flush_latency.add(time.perf_counter() - started)
        if span is not None:
            span.add(
                n_monitors=len(results),
                n_events=sum(outcome.n_processed for outcome in results),
            )
            span.end()
        self._maybe_checkpoint()
        return results

    def _feed(
        self,
        entry: _MonitorEntry,
        chunk: "np.ndarray",
        span: Optional[SpanHandle] = None,
    ) -> ObserveResult:
        detector = entry.detector
        offset = detector.n_seen
        # Gated so the unsampled path never pays for the kwargs dict — this
        # runs once per monitor per flush, the hottest instrumented site.
        child = None
        if span is not None:
            child = self._tracer.start_span(
                "monitor.update_batch",
                span,
                tenant=entry.tenant,
                monitor=entry.monitor_id,
                detector=type(detector).__name__,
                n=int(chunk.shape[0]),
            )
        if self._timings is not None:
            recorder = entry.timing_recorder
            if recorder is None:
                recorder = entry.timing_recorder = self._timings.recorder(
                    type(detector).__name__, entry.tenant, entry.monitor_id
                )
            # tick() counts every call but elects only a sample of them for
            # the clock reads + histogram insert — the unsampled path is one
            # increment, keeping instrumented ingest inside its <2% budget.
            if recorder.tick():
                update_started = time.perf_counter()
                batch = detector.update_batch(chunk)
                recorder.record(
                    time.perf_counter() - update_started, batch.n_processed
                )
            else:
                batch = detector.update_batch(chunk)
        else:
            batch = detector.update_batch(chunk)
        if child is not None:
            child.end()
        self._n_events += batch.n_processed
        self._events_since_checkpoint += batch.n_processed
        self._ingest_rate.add(batch.n_processed)
        self._fire_alerts(entry, batch, offset)
        if self._wal is not None and batch.n_processed > 0:
            self._wal.append_watermark(
                entry.tenant, entry.monitor_id, detector.n_seen
            )
        return ObserveResult(entry.tenant, entry.monitor_id, offset, batch)

    def _commit_wal(self, span: Optional[SpanHandle] = None) -> None:
        if self._wal is not None:
            child = self._tracer.start_span("wal.commit", span)
            self._wal.commit()
            if child is not None:
                child.end()

    def _on_wal_rotate(self, info: Dict[str, Any]) -> None:
        self._journal.record("wal_rotate", **info)

    def _fire_alerts(
        self, entry: _MonitorEntry, batch: BatchResult, offset: int
    ) -> None:
        n = batch.n_processed
        if not batch.warning_indices:
            if n > 0:
                entry.in_warning = False
            return
        drift_set = set(batch.drift_indices)
        n_drifts = entry.detector.n_drifts - len(batch.drift_indices)
        fired: List[Tuple[str, int, int]] = []
        # Index of the previous warning element; -1 "continues" a zone that
        # was active at the end of the previous chunk, -2 never matches.
        prev_warn = -1 if entry.in_warning else -2
        for index in batch.warning_indices:
            if index in drift_set:
                n_drifts += 1
                fired.append(("drift", offset + index, n_drifts))
                # The drift resets the detector, ending any warning zone.
                prev_warn = -2
            else:
                if index != prev_warn + 1:
                    fired.append(("warning", offset + index, n_drifts))
                prev_warn = index
        entry.in_warning = prev_warn == n - 1
        if fired:
            self._fire(entry, fired)

    def _fire(
        self, entry: _MonitorEntry, fired: List[Tuple[str, int, int]]
    ) -> None:
        """Number one monitor's ``(kind, position, n_drifts)`` transitions,
        log them to the WAL, then deliver them to the sinks.

        The order is the durability contract: the WAL appends happen before
        any sink sees an alert, so a crash at any point leaves each alert
        either (a) durable in the WAL — re-delivered by the restore replay —
        or (b) not yet durable — but then the detector state that produced
        it also rolls back to the checkpoint, and the producer's replay
        re-fires it with the *same* sequence number (alert numbering is a
        deterministic function of the element stream).  Re-fires the restore
        already delivered (``seq <= replayed_through``) are suppressed, not
        double-delivered.
        """
        tenant, monitor_id = entry.tenant, entry.monitor_id
        detector = type(entry.detector).__name__
        floor = self._replayed_through.get((tenant, monitor_id), 0)
        first = entry.alert_seq + 1
        entry.alert_seq += len(fired)
        alerts = [
            DriftAlert(
                tenant, monitor_id, kind, position, detector, n_drifts, seq, time.time()
            )
            for seq, (kind, position, n_drifts) in enumerate(fired, first)
            if seq > floor
        ]
        self._n_replay_suppressed += len(fired) - len(alerts)
        if not alerts:
            return
        if self._wal is not None:
            for alert in alerts:
                self._wal.append_alert(alert)
        self._emit(alerts)

    def _emit(self, alerts: Sequence[DriftAlert]) -> None:
        """Deliver alerts to every sink, in order, tolerating sink failures.

        Each sink receives the whole batch before the next sink sees it,
        under one ``sink.emit`` span when a trace is active.  A raising sink
        is a *reporting* problem, never a monitoring problem: the detectors
        already consumed the values by the time alerts fire, so letting a
        sink exception escape ``observe``/``ingest`` would abort the flush
        half-way and leave the caller believing state it cannot see —
        exactly the divergence a checkpointed serving system cannot afford.
        Failures are counted per alert (``stats()["n_sink_failures"]``),
        logged, and delivery continues with the next alert and sink.
        """
        parent = self._active_span
        for sink in self._sinks:
            child = None
            if parent is not None:
                child = self._tracer.start_span(
                    "sink.emit", parent, sink=type(sink).__name__, n=len(alerts)
                )
            for alert in alerts:
                try:
                    sink.emit(alert)
                except Exception:
                    self._n_sink_failures += 1
                    self._sink_failures_by_tenant[alert.tenant] = (
                        self._sink_failures_by_tenant.get(alert.tenant, 0) + 1
                    )
                    logger.exception(
                        "alert sink %r failed for %s/%s; detector state is "
                        "unaffected",
                        sink,
                        alert.tenant,
                        alert.monitor_id,
                    )
            if child is not None:
                child.end()

    # ------------------------------------------------------------ WAL replay

    def _replay_wal(self, wal: AlertWal) -> None:
        """Re-deliver the WAL's post-checkpoint alert tail to the sinks.

        Runs once, from the constructor of a resumed hub.  Every WAL alert
        whose sequence number exceeds both the restored checkpoint's
        ``alert_seq`` and the log's delivered-through marker is emitted once
        more, flagged ``redelivered=True``, in original append order.  A
        delivered-through marker is then appended (bounding the duplication
        window of a crash *during* replay), and the replayed numbers become
        suppression floors for the live re-fires a producer's
        replay-from-watermark regenerates.
        """
        replayed: Dict[_MonitorKey, int] = {}
        for record in wal.iter_alerts():
            key = (str(record.get("tenant")), str(record.get("monitor_id")))
            seq = int(record.get("seq", 0))
            floor = max(
                self._checkpoint_seq.get(key, 0),
                wal.delivered_through(*key),
                replayed.get(key, 0),
            )
            if seq <= floor:
                continue
            self._emit((DriftAlert.from_dict(record).as_redelivery(),))
            replayed[key] = seq
            self._n_wal_replayed += 1
        for (tenant, monitor_id), seq in replayed.items():
            wal.append_delivered(tenant, monitor_id, seq)
        wal.commit()
        # Suppression floors cover everything any process ever delivered:
        # pre-checkpoint live deliveries, prior processes' replays (the
        # delivered markers), and this replay.
        floors: Dict[_MonitorKey, int] = dict(self._checkpoint_seq)
        for key in wal.watermarks():
            # Watermark keys enumerate every monitor the WAL ever saw.
            floors.setdefault(key, 0)
        for key in list(floors):
            floors[key] = max(
                floors[key],
                wal.delivered_through(*key),
                replayed.get(key, 0),
            )
        for key, seq in replayed.items():
            floors[key] = max(floors.get(key, 0), seq)
        self._replayed_through = {k: v for k, v in floors.items() if v > 0}

    def drain_alerts(self) -> Tuple[List[DriftAlert], int]:
        """Drain the hub's alert buffer; return ``(alerts, n_dropped)``.

        Alerts come back in emission order, WAL redeliveries of a resumed
        hub first.  ``n_dropped`` is the lifetime count of alerts evicted
        because the buffer held :data:`ALERT_BUFFER_LIMIT` undrained ones.
        """
        return self._alerts.drain(), self._alerts.n_dropped

    def wal_watermarks(self) -> Dict[_MonitorKey, int]:
        """Highest WAL-recorded ``n_seen`` per monitor (empty without a WAL).

        After a crash this can exceed the restored detectors' ``n_seen`` —
        the gap is exactly the event range a producer must replay.
        """
        return self._wal.watermarks() if self._wal is not None else {}

    def alerts_history(
        self,
        tenant: Optional[str] = None,
        monitor_id: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        limit: int = 1000,
    ) -> List[Dict[str, Any]]:
        """Query the WAL-backed alert history (newest ``limit`` matches).

        Requires a ``wal_dir``; filters by tenant, monitor, and inclusive
        ``ts`` range.  History depth is bounded by WAL segment retention.
        """
        if self._wal is None:
            raise ConfigurationError(
                "alert history needs a WAL; construct the hub with wal_dir"
            )
        return self._wal.alerts_history(
            tenant=tenant,
            monitor_id=monitor_id,
            since=since,
            until=until,
            limit=limit,
        )

    # ---------------------------------------------------------------- stats

    @property
    def n_events(self) -> int:
        """Total number of values observed across all monitors (lifetime)."""
        return self._n_events

    @property
    def n_sink_failures(self) -> int:
        """Number of alert deliveries swallowed because a sink raised."""
        return self._n_sink_failures

    def stats(
        self, tenant: Optional[str] = None, monitor_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """Aggregate counters, optionally narrowed to a tenant or monitor.

        Every field of a tenant-narrowed aggregate is scoped to that tenant:
        ``n_events`` is the sum of the tenant's monitors' lifetime ``n_seen``
        and ``n_sink_failures`` counts failed deliveries of that tenant's
        alerts.  The hub-wide aggregate reports the hub's own lifetime event
        count (which excludes elements a pre-positioned detector instance saw
        before registration).
        """
        if monitor_id is not None and tenant is None:
            raise ConfigurationError(
                "per-monitor stats need the tenant as well as the monitor id"
            )
        if tenant is not None and monitor_id is not None:
            entry = self._entry(tenant, monitor_id)
            detector = entry.detector
            stats = {
                "tenant": entry.tenant,
                "monitor_id": entry.monitor_id,
                "detector": type(detector).__name__,
                "n_seen": detector.n_seen,
                "n_drifts": detector.n_drifts,
                "n_warnings": detector.n_warnings,
                "in_warning": entry.in_warning,
                "alert_seq": entry.alert_seq,
            }
            if self._wal is not None:
                watermark = self._wal.watermarks().get(
                    (entry.tenant, entry.monitor_id)
                )
                if watermark is not None:
                    stats["wal_watermark"] = watermark
            return stats
        entries = [
            entry
            for entry in self._entries.values()
            if tenant is None or entry.tenant == str(tenant)
        ]
        if tenant is None:
            n_events = self._n_events
            n_sink_failures = self._n_sink_failures
        else:
            n_events = sum(entry.detector.n_seen for entry in entries)
            n_sink_failures = self._sink_failures_by_tenant.get(str(tenant), 0)
        return {
            "n_monitors": len(entries),
            "n_tenants": len({entry.tenant for entry in entries}),
            "n_events": n_events,
            "n_drifts": sum(entry.detector.n_drifts for entry in entries),
            "n_warnings": sum(entry.detector.n_warnings for entry in entries),
            "n_sink_failures": n_sink_failures,
        }

    def metrics(self) -> Dict[str, Any]:
        """Operational telemetry: rates, latency percentiles, WAL and sinks.

        The ``metrics`` wire op serialises this dict directly.  All latency
        summaries are in milliseconds over a bounded recent window;
        ``ingest_rate`` is events/second over the last minute.
        """
        return {
            "n_monitors": len(self._entries),
            "n_events": self._n_events,
            "n_flushes": self._flush_latency.n_total,
            "ingest_rate": round(self._ingest_rate.rate(), 3),
            "flush_latency_ms": self._flush_latency.summary_ms(),
            "n_sink_failures": self._n_sink_failures,
            "n_wal_replayed": self._n_wal_replayed,
            "n_replay_suppressed": self._n_replay_suppressed,
            "wal": self._wal.stats() if self._wal is not None else None,
            "sinks": [
                {"sink": type(sink).__name__, **sink.stats()}
                for sink in self._sinks
            ],
            "detector_update": (
                self._timings.snapshot() if self._timings is not None else None
            ),
            "trace": self._tracer.stats(),
        }

    # --------------------------------------------------------- observability

    @property
    def tracer(self) -> Tracer:
        """The hub's span recorder (disabled unless configured otherwise)."""
        return self._tracer

    @property
    def journal(self) -> EventJournal:
        """The hub's operational event journal (always on, bounded)."""
        return self._journal

    def drain_trace(self) -> List[Dict[str, Any]]:
        """Return and clear the tracer's finished spans (the ``trace`` op)."""
        return self._tracer.drain()

    def journal_events(
        self, limit: Optional[int] = None, kind: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Recent operational events, oldest first (the ``events`` op)."""
        return self._journal.events(limit=limit, kind=kind)

    def set_instrumented(self, enabled: bool) -> None:
        """Pause or resume per-update timing instrumentation at runtime.

        Pausing stops the clock reads on the ingest hot path but keeps the
        accumulated cost attribution, so a later resume continues the same
        histograms and counters.  A hub built with ``instrument=False``
        starts timing from zero on its first resume.
        """
        if enabled:
            if self._timings is None:
                self._timings = self._paused_timings
                self._paused_timings = None
                if self._timings is None:
                    self._timings = UpdateTimings()
                    # Cached recorders feed rows owned by a previous
                    # UpdateTimings; drop them so _feed re-registers each
                    # monitor against the new one.
                    for entry in self._entries.values():
                        entry.timing_recorder = None
        elif self._timings is not None:
            self._paused_timings = self._timings
            self._timings = None

    # ------------------------------------------------------- checkpointing

    def composition_hash(self) -> str:
        """Config hash of the hub's monitor composition.

        Reuses the orchestrator's config-hash idiom: a short SHA-256 over the
        canonical JSON of process-independent tokens (tenant, monitor id,
        detector class, configuration) so that two hubs hosting the same
        monitors hash identically regardless of registration order.
        """
        tokens = sorted(
            (entry.tenant, entry.monitor_id, entry.config_key)
            for entry in self._entries.values()
        )
        return grid_config_hash({"monitors": [list(token) for token in tokens]})

    def wal_head(self) -> Optional[Dict[str, Any]]:
        """The WAL's identity head (for the cluster manifest); ``None`` without one."""
        return self._wal.head() if self._wal is not None else None

    def describe(self) -> Dict[str, Any]:
        """The hub's row of a cluster manifest: composition hash, lifetime
        event count, monitor count, :meth:`wal_head`, and the shared cut
        tables its monitors read, each as ``[rho, confidence,
        warning_confidence, length]`` (see :func:`~repro.core.ppf_tables.
        shared_demand`)."""
        tables: Dict[TableKey, int] = {}
        for entry in self._entries.values():
            demand = shared_demand(entry.detector)
            if demand is not None:
                key, length = demand
                tables[key] = max(length, tables.get(key, 0))
        return {
            "config_hash": self.composition_hash(),
            "n_events": self._n_events,
            "n_monitors": len(self._entries),
            "wal": self.wal_head(),
            "tables": [[*key, length] for key, length in tables.items()],
        }

    def checkpoint(self) -> Path:
        """Atomically write the full hub state; return the checkpoint path.

        The document is strict JSON with a ``schema_version`` field, one
        bit-exact detector snapshot per monitor (including its ``alert_seq``
        replay watermark), and the composition hash.  The write goes to a
        temp file in ``checkpoint_dir`` followed by ``os.replace``, so a
        crash mid-write never corrupts the previous checkpoint.  The WAL (if
        any) is committed first — its durable state always covers the
        checkpoint — and pruned after, since a successful checkpoint makes
        every logged alert replay-unnecessary (retention beyond that is the
        ``alerts_history`` depth).
        """
        if self._checkpoint_dir is None:
            raise ConfigurationError(
                "no checkpoint directory configured; pass one to MonitorHub()"
            )
        self._commit_wal()
        self._checkpoint_dir.mkdir(parents=True, exist_ok=True)
        document = {
            "schema_version": HUB_SCHEMA_VERSION,
            "config_hash": self.composition_hash(),
            "n_events": self._n_events,
            "monitors": [_monitor_record(entry) for entry in self._entries.values()],
        }
        path = atomic_write_json(self._checkpoint_dir / CHECKPOINT_FILENAME, document)
        self._events_since_checkpoint = 0
        if self._wal is not None:
            self._wal.prune()
        return path

    def _maybe_checkpoint(self) -> None:
        if (
            self._checkpoint_every is not None
            and self._checkpoint_dir is not None
            and self._events_since_checkpoint >= self._checkpoint_every
        ):
            self.checkpoint()

    def _restore_from(self, path: Path) -> None:
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"cannot read hub checkpoint {path}: {exc}") from exc
        version = document.get("schema_version")
        if version != HUB_SCHEMA_VERSION:
            raise SnapshotError(
                f"hub checkpoint schema version {version!r} is not supported "
                f"(expected {HUB_SCHEMA_VERSION})"
            )
        try:
            self._n_events = int(document["n_events"])
            entries = [_monitor_entry(record) for record in document["monitors"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"corrupt hub checkpoint {path}: {exc}") from exc
        self._add_entries(entries)
        for entry in entries:
            self._checkpoint_seq[(entry.tenant, entry.monitor_id)] = entry.alert_seq

    def reshard(self, n_shards: int) -> Dict[str, Any]:
        """Always raises: only a :class:`~repro.serving.sharded.ShardedHub`
        can change its worker count (the server's ``reshard`` op)."""
        raise ConfigurationError("hub is not sharded; reshard needs --shards")

    def close(self) -> None:
        """Close the WAL, all attached sinks, and the hub-owned journal."""
        if self._wal is not None:
            self._wal.close()
        for sink in self._sinks:
            sink.close()
        if self._owns_journal:
            self._journal.close()
