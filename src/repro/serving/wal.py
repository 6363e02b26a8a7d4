"""Durable write-ahead log for the serving layer's alert bus.

The hub's durability story used to be checkpoint-granular: every alert
emitted between ``hub-checkpoint.json`` writes lived only in bounded
in-memory queues and died with the process.  :class:`AlertWal` closes that
gap — every :class:`~repro.serving.sinks.DriftAlert` (and every per-monitor
ingest watermark) is appended to an fsync'd on-disk log *before* any sink
sees it, so a ``kill -9`` loses nothing that was flushed, and a restarted
hub re-delivers the post-checkpoint tail to its sinks exactly once, while
it is being constructed (see :class:`repro.serving.hub.MonitorHub`).

Storage model
-------------
* **Segments** — the log is a directory of numbered segment files
  (``wal-00000001.log``, ``wal-00000002.log``, ...).  Appends always go to
  the highest-numbered segment; when it exceeds ``segment_bytes`` the log
  rotates to a fresh segment (the directory entry is fsync'd so the new
  file survives a crash).  :meth:`prune` (called after a successful hub
  checkpoint, when no record is needed for replay any more) drops the
  oldest segments beyond ``retain_segments`` — the retained tail is what
  the ``alerts_history`` wire op serves.
* **Records** — each record is an 8-byte header ``<uint32 length, uint32
  CRC32>`` followed by a compact-JSON payload: the bytes of
  ``json.dumps(record, sort_keys=True, separators=(",", ":"))``.  Alert
  and watermark payloads are written from their fields without building
  the record dict (see *Encoding* below).  On open, the last segment is
  scanned record by record; a torn tail (truncated header, truncated
  payload, or CRC mismatch — the signature of a crash mid-append) is
  *truncated away*, never "repaired", so a recovered log replays only
  records that were written in full.
* **Identity** — ``wal-meta.json`` names the log with a random ``wal_id``
  on first open.  The sharded cluster manifest records each shard's
  ``(wal_id, segment_index)`` head at checkpoint time; resuming against a
  WAL directory whose identity or segment sequence disagrees with the
  manifest raises :class:`~repro.exceptions.SnapshotError` instead of
  silently double-delivering another cluster's alerts.

Record types (the ``"t"`` field):

* ``"alert"`` — one emitted :class:`DriftAlert`, appended before sink
  delivery, carrying the monitor's monotonic ``seq`` number;
* ``"watermark"`` — a monitor's lifetime ``n_seen`` after a flush, so an
  operator can see how far ingestion got past the last checkpoint;
* ``"delivered"`` — a per-monitor delivered-through ``seq`` marker,
  appended after a restore replay re-delivers the tail, bounding the
  duplication window of a crash *during* replay to at-least-once.

Encoding: alert and watermark payloads are f-strings with the keys in
sorted order; strings go through ``json.encoder.encode_basestring_ascii``,
the function ``json.dumps`` uses, and numbers print as ``json.dumps``
prints them.  An alert whose fields do not all have exactly the types the
record declares (``str``, ``int``, ``bool``, and a finite ``float``
``ts``) — a ``str`` or ``int`` subclass, a NaN or infinite ``ts`` — goes
through ``json.dumps`` itself; a watermark's fields are ``str()`` and
``int()`` results.  Every payload is therefore the bytes ``json.dumps``
would write.  Delivered markers always go through ``json.dumps``.

Durability modes (``fsync=``): ``"always"`` fsyncs after every record,
``"batch"`` (default) fsyncs once per :meth:`commit` — the hub commits once
per ``ingest``/``observe`` flush, making the flush the durability unit —
and ``"off"`` flushes to the OS but never fsyncs (contents survive a
process crash, not a power loss).

Crash testing: the environment variable ``REPRO_WAL_FAILPOINT`` set to
``kill-after-alert:N`` makes the Nth alert append fsync itself and then
``SIGKILL`` the process — the "after WAL append, before sink emit" crash
point of the recovery test matrix.
"""

from __future__ import annotations

# repro: allow-file(durability) -- wal.py IS the WAL framing layer the durability rule routes other serving code to: CRC32-framed appends, torn-tail truncation on open, and the explicit fsync policy here are the durability primitive itself

import json
import logging
import math
import numbers
import os
import reprlib
import signal
import struct
import time
import zlib
from collections import deque
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    IO,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.exceptions import ConfigurationError, SnapshotError
from repro.obs.journal import check_limit
from repro.serving.metrics import LatencyWindow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sinks reuse
    from repro.serving.sinks import DriftAlert  # flush_handle from here)

__all__ = [
    "AlertWal",
    "WAL_SCHEMA_VERSION",
    "WAL_META_FILENAME",
    "flush_handle",
    "fsync_directory",
    "read_wal_head",
]

logger = logging.getLogger(__name__)

#: Version of the WAL record/meta schema.
WAL_SCHEMA_VERSION = 1

#: File name of the log's identity document inside the WAL directory.
WAL_META_FILENAME = "wal-meta.json"

#: ``<uint32 payload length, uint32 CRC32(payload)>`` little-endian header.
_HEADER = struct.Struct("<II")

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"

#: Environment variable holding the crash-injection failpoint spec.
FAILPOINT_ENV = "REPRO_WAL_FAILPOINT"

_FSYNC_MODES = ("always", "batch", "off")

_MonitorKey = Tuple[str, str]


def flush_handle(handle: IO[Any], fsync: bool) -> None:
    """Flush a writable file handle, optionally through to the platter.

    The one flush helper shared by the WAL and :class:`JsonlAuditSink`'s
    ``fsync=True`` mode — ``flush()`` alone hands the bytes to the OS
    (they survive a process crash), ``os.fsync`` makes them survive a
    power loss too.
    """
    handle.flush()
    if fsync:
        os.fsync(handle.fileno())


def fsync_directory(directory: Union[str, Path]) -> None:
    """fsync a directory so a newly created/renamed entry survives a crash.

    A no-op on platforms that cannot open directories (e.g. Windows) —
    the file data itself is already fsync'd by the callers.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _json_payload(record: Dict[str, Any]) -> bytes:
    """The record format itself: compact JSON with sorted keys."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _alert_payload(alert: "DriftAlert") -> bytes:
    """Payload of an alert's WAL record, equal to :func:`_json_payload`'s.

    The keys are written in sorted order around the alert's fields.  An
    alert with a field of any other type than the one it declares, or a
    non-finite ``ts``, is encoded by :func:`_json_payload`.
    """
    tenant, monitor_id, kind, position, detector, n_drifts, seq, ts, redelivered = alert
    if not (
        type(tenant) is str
        and type(monitor_id) is str
        and type(kind) is str
        and type(detector) is str
        and type(position) is int
        and type(n_drifts) is int
        and type(seq) is int
        and type(redelivered) is bool
        and type(ts) is float
        and math.isfinite(ts)
    ):
        record = alert.to_dict()
        record["t"] = "alert"
        return _json_payload(record)
    return (
        f'{{"detector":{_quote(detector)},"kind":{_quote(kind)},'
        f'"monitor_id":{_quote(monitor_id)},"n_drifts":{n_drifts},'
        f'"position":{position},"redelivered":{"true" if redelivered else "false"},'
        f'"seq":{seq},"t":"alert","tenant":{_quote(tenant)},"ts":{ts!r}}}'
    ).encode("ascii")


def _watermark_payload(tenant: str, monitor_id: str, n_seen: int) -> bytes:
    """Payload of a watermark record, equal to :func:`_json_payload`'s.

    :meth:`AlertWal.append_watermark` passes ``str()`` and ``int()``
    results, whose ``json.dumps`` forms are the ones written here.
    """
    return (
        f'{{"monitor_id":{_quote(monitor_id)},"n_seen":{n_seen},'
        f'"t":"watermark","tenant":{_quote(tenant)}}}'
    ).encode("ascii")


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def _segment_index(path: Path) -> Optional[int]:
    name = path.name
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def _list_segments(directory: Path) -> List[Tuple[int, Path]]:
    segments = []
    if directory.is_dir():
        for path in directory.iterdir():
            index = _segment_index(path)
            if index is not None:
                segments.append((index, path))
    segments.sort()
    return segments


def _scan_segment(path: Path) -> Tuple[List[Dict[str, Any]], int, bool]:
    """Parse one segment; return ``(records, good_offset, torn)``.

    ``good_offset`` is the byte offset after the last intact record; a
    truncated header/payload or CRC mismatch marks the tail torn and stops
    the scan (everything before it is intact — records are appended
    strictly in order).
    """
    records: List[Dict[str, Any]] = []
    offset = 0
    data = path.read_bytes()
    size = len(data)
    while offset + _HEADER.size <= size:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > size:
            return records, offset, True
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return records, offset, True
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return records, offset, True
        records.append(record)
        offset = end
    return records, offset, offset != size


def read_wal_head(directory: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Read a WAL directory's identity head without opening it for append.

    Returns ``{"wal_id": ..., "segment_index": ...}`` (the highest segment
    number on disk, ``0`` when the directory holds only the meta file), or
    ``None`` when the directory holds no WAL at all.  Used by the sharded
    cluster to validate each shard's WAL against the manifest before any
    replay happens.
    """
    directory = Path(directory)
    meta_path = directory / WAL_META_FILENAME
    if not meta_path.is_file():
        return None
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot read WAL meta {meta_path}: {exc}") from exc
    segments = _list_segments(directory)
    return {
        "wal_id": meta.get("wal_id"),
        "segment_index": segments[-1][0] if segments else 0,
    }


class _Failpoint:
    """Crash injection for recovery tests (``REPRO_WAL_FAILPOINT``)."""

    def __init__(self, spec: Optional[str]) -> None:
        self.kill_after_alert: Optional[int] = None
        if spec:
            kind, _, count = spec.partition(":")
            if kind == "kill-after-alert" and count.isdigit():
                self.kill_after_alert = int(count)
            else:
                logger.warning("ignoring malformed %s=%r", FAILPOINT_ENV, spec)

    def maybe_fire(self, n_alert_appends: int, handle: IO[Any]) -> None:
        if (
            self.kill_after_alert is not None
            and n_alert_appends >= self.kill_after_alert
        ):
            # Make the just-appended record durable, then die the hard way:
            # the record is on disk, no sink has seen it.
            flush_handle(handle, fsync=True)
            os.kill(os.getpid(), signal.SIGKILL)


class AlertWal:
    """Segmented, CRC-checked, fsync'd write-ahead log of the alert bus.

    Parameters
    ----------
    directory:
        The log's directory (created if missing); see the module docstring
        for the layout.
    fsync:
        ``"always"`` | ``"batch"`` | ``"off"`` — when appended records are
        forced to the platter (see module docstring).
    segment_bytes:
        Rotate to a fresh segment once the current one exceeds this size
        (checked at :meth:`commit` boundaries, so one batch never spans a
        rotation mid-way).
    retain_segments:
        :meth:`prune` keeps at most this many segments; older ones are the
        alert history that expires first.
    on_rotate:
        Optional callback invoked after each segment rotation with
        ``{"segment_index", "previous_segment"}`` — the hub journals these
        so an operator can correlate WAL growth with ingest load.  Must not
        raise (it runs on the commit path).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: str = "batch",
        segment_bytes: int = 4 * 1024 * 1024,
        retain_segments: int = 8,
        on_rotate: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        if fsync not in _FSYNC_MODES:
            raise ConfigurationError(
                f"fsync must be one of {_FSYNC_MODES}, got {fsync!r}"
            )
        if segment_bytes < 4096:
            raise ConfigurationError(
                f"segment_bytes must be >= 4096, got {segment_bytes}"
            )
        if retain_segments < 1:
            raise ConfigurationError(
                f"retain_segments must be >= 1, got {retain_segments}"
            )
        self._directory = Path(directory)
        self._fsync_mode = fsync
        self._segment_bytes = segment_bytes
        self._retain_segments = retain_segments
        self._on_rotate = on_rotate
        self._directory.mkdir(parents=True, exist_ok=True)
        self._meta = self._load_or_create_meta()
        self._watermarks: Dict[_MonitorKey, int] = {}
        self._delivered: Dict[_MonitorKey, int] = {}
        self._closed = False
        self._dirty = False
        self._n_appends = 0
        self._n_alert_appends = 0
        self._n_commits = 0
        self._bytes_written = 0
        self._fsync_latency = LatencyWindow(256)
        self._failpoint = _Failpoint(os.environ.get(FAILPOINT_ENV))
        self._recover()

    # ------------------------------------------------------------- recovery

    def _load_or_create_meta(self) -> Dict[str, Any]:
        path = self._directory / WAL_META_FILENAME
        if path.is_file():
            try:
                meta = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise SnapshotError(f"cannot read WAL meta {path}: {exc}") from exc
            version = meta.get("schema_version")
            if version != WAL_SCHEMA_VERSION:
                raise SnapshotError(
                    f"WAL schema version {version!r} is not supported "
                    f"(expected {WAL_SCHEMA_VERSION})"
                )
            return meta
        meta = {
            "schema_version": WAL_SCHEMA_VERSION,
            "wal_id": os.urandom(8).hex(),
            "created": time.time(),
        }
        # Imported here (not at module top) to avoid a cycle: snapshot.py
        # reuses this module's fsync_directory helper.
        from repro.serving.snapshot import atomic_write_json

        atomic_write_json(path, meta)
        return meta

    def _recover(self) -> None:
        """Scan existing segments, truncate the torn tail, open for append."""
        segments = _list_segments(self._directory)
        for position, (index, path) in enumerate(segments):
            records, good_offset, torn = _scan_segment(path)
            last = position == len(segments) - 1
            if torn:
                if last:
                    logger.warning(
                        "truncating torn WAL tail of %s at byte %d", path, good_offset
                    )
                    with open(path, "r+b") as handle:
                        handle.truncate(good_offset)
                        flush_handle(handle, fsync=True)
                else:  # pragma: no cover - needs manual corruption mid-log
                    logger.error(
                        "WAL segment %s is corrupt at byte %d; records past "
                        "that point are unreadable",
                        path,
                        good_offset,
                    )
            for record in records:
                self._absorb(record)
        if segments:
            self._segment_index = segments[-1][0]
        else:
            self._segment_index = 1
            fsync_directory(self._directory)
        self._segment_path = self._directory / _segment_name(self._segment_index)
        self._handle = open(self._segment_path, "ab")
        self._segment_size = self._handle.tell()

    def _absorb(self, record: Dict[str, Any]) -> None:
        kind = record.get("t")
        key = (str(record.get("tenant")), str(record.get("monitor_id")))
        if kind == "watermark":
            self._watermarks[key] = max(
                self._watermarks.get(key, 0), int(record.get("n_seen", 0))
            )
        elif kind == "delivered":
            self._delivered[key] = max(
                self._delivered.get(key, 0), int(record.get("seq", 0))
            )

    # -------------------------------------------------------------- appends

    def append_alert(self, alert: "DriftAlert") -> None:
        """Record one alert (call *before* any sink sees it)."""
        self._append(_alert_payload(alert))
        self._n_alert_appends += 1
        self._failpoint.maybe_fire(self._n_alert_appends, self._handle)

    def append_watermark(self, tenant: str, monitor_id: str, n_seen: int) -> None:
        """Record a monitor's lifetime ingest position after a flush."""
        key = (str(tenant), str(monitor_id))
        n_seen = int(n_seen)
        self._watermarks[key] = max(self._watermarks.get(key, 0), n_seen)
        self._append(_watermark_payload(key[0], key[1], n_seen))

    def append_delivered(self, tenant: str, monitor_id: str, seq: int) -> None:
        """Record that sinks received this monitor's alerts through ``seq``."""
        key = (str(tenant), str(monitor_id))
        self._delivered[key] = max(self._delivered.get(key, 0), int(seq))
        self._append(
            _json_payload(
                {"t": "delivered", "tenant": key[0], "monitor_id": key[1], "seq": int(seq)}
            )
        )

    def _append(self, payload: bytes) -> None:
        if self._closed:
            raise SnapshotError("WAL is closed")
        self._handle.write(_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)
        self._segment_size += _HEADER.size + len(payload)
        self._bytes_written += _HEADER.size + len(payload)
        self._n_appends += 1
        self._dirty = True
        if self._fsync_mode == "always":
            self._flush(fsync=True)

    def commit(self) -> None:
        """Make the batch since the last commit durable; maybe rotate.

        The hub calls this once per ``ingest``/``observe`` flush — in the
        default ``"batch"`` mode this is the one fsync the whole flush
        pays, which is what keeps WAL-on throughput within the benchmark's
        2x budget (``benchmarks/bench_wal_overhead.py``).
        """
        if self._closed or not self._dirty:
            return
        self._flush(fsync=self._fsync_mode == "batch")
        if self._segment_size >= self._segment_bytes:
            self.rotate()

    def _flush(self, fsync: bool) -> None:
        if fsync:
            started = time.perf_counter()
            flush_handle(self._handle, fsync=True)
            self._fsync_latency.add(time.perf_counter() - started)
        else:
            flush_handle(self._handle, fsync=False)
        self._dirty = False

    def rotate(self) -> None:
        """Close the current segment and start the next one."""
        if self._closed:
            return
        flush_handle(self._handle, fsync=self._fsync_mode != "off")
        self._handle.close()
        previous = _segment_name(self._segment_index)
        self._segment_index += 1
        self._segment_path = self._directory / _segment_name(self._segment_index)
        self._handle = open(self._segment_path, "ab")
        self._segment_size = 0
        self._dirty = False
        fsync_directory(self._directory)
        if self._on_rotate is not None:
            self._on_rotate(
                {"segment_index": self._segment_index, "previous_segment": previous}
            )

    def prune(self) -> int:
        """Drop the oldest segments beyond ``retain_segments``; return count.

        Call after a successful checkpoint: every alert on disk is then
        ``<=`` the checkpointed sequence numbers, so no segment is needed
        for replay and retention is purely an alert-history policy.  The
        current (open) segment is never pruned.
        """
        segments = _list_segments(self._directory)
        removed = 0
        while len(segments) > self._retain_segments:
            index, path = segments.pop(0)
            if index == self._segment_index:
                break
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - defensive
                logger.warning("could not prune WAL segment %s", path)
                break
        if removed:
            fsync_directory(self._directory)
        return removed

    # -------------------------------------------------------------- reading

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """All intact records across all segments, oldest first.

        Reads from disk (committed state); uncommitted buffered appends are
        flushed first so callers always see the latest records.
        """
        if not self._closed and self._dirty:
            self._flush(fsync=False)
        for _, path in _list_segments(self._directory):
            records, _, _ = _scan_segment(path)
            for record in records:
                yield record

    def iter_alerts(self) -> Iterator[Dict[str, Any]]:
        """Alert records across all segments, in append order."""
        for record in self.iter_records():
            if record.get("t") == "alert":
                yield record

    def alerts_history(
        self,
        tenant: Optional[str] = None,
        monitor_id: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        limit: int = 1000,
    ) -> List[Dict[str, Any]]:
        """The most recent retained alerts matching the filters, oldest first.

        ``since``/``until`` bound the alert timestamp (inclusive); ``limit``
        keeps the *newest* matches.  History depth is bounded by segment
        retention — pruned segments' alerts are gone.  A bound that is not a
        number (a bool included) raises :class:`ConfigurationError`.
        """
        check_limit(limit)
        for field, bound in (("since", since), ("until", until)):
            if bound is not None and (
                isinstance(bound, bool) or not isinstance(bound, numbers.Real)
            ):
                raise ConfigurationError(
                    f"{field} must be a number or null, got {reprlib.repr(bound)}"
                )
        matches: deque = deque(maxlen=limit)
        for record in self.iter_alerts():
            if tenant is not None and record.get("tenant") != str(tenant):
                continue
            if monitor_id is not None and record.get("monitor_id") != str(monitor_id):
                continue
            ts = float(record.get("ts", 0.0))
            if since is not None and ts < since:
                continue
            if until is not None and ts > until:
                continue
            record = dict(record)
            record.pop("t", None)
            matches.append(record)
        return list(matches)

    # ---------------------------------------------------------------- state

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def wal_id(self) -> str:
        """Random identity assigned at first open (recorded in manifests)."""
        return str(self._meta["wal_id"])

    @property
    def segment_index(self) -> int:
        """Index of the segment currently open for append."""
        return self._segment_index

    @property
    def fsync_mode(self) -> str:
        return self._fsync_mode

    def watermarks(self) -> Dict[_MonitorKey, int]:
        """Highest recorded ``n_seen`` per monitor (checkpoint + WAL tail)."""
        return dict(self._watermarks)

    def delivered_through(self, tenant: str, monitor_id: str) -> int:
        """Highest ``seq`` a delivered-marker records for one monitor."""
        return self._delivered.get((str(tenant), str(monitor_id)), 0)

    def head(self) -> Dict[str, Any]:
        """Identity head recorded in the sharded cluster manifest."""
        return {"wal_id": self.wal_id, "segment_index": self._segment_index}

    def stats(self) -> Dict[str, Any]:
        """Operational counters for the ``metrics`` wire op."""
        segments = _list_segments(self._directory)
        return {
            "fsync_mode": self._fsync_mode,
            "segment_index": self._segment_index,
            "n_segments": len(segments),
            "n_appends": self._n_appends,
            "n_alerts": self._n_alert_appends,
            "bytes_written": self._bytes_written,
            "fsync_latency_ms": self._fsync_latency.summary_ms(),
        }

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._flush(fsync=self._fsync_mode != "off")
        except ValueError:  # pragma: no cover - handle already closed
            pass
        self._handle.close()
        self._closed = True
