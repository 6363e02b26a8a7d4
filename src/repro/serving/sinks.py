"""Pluggable alert sinks for the drift-monitoring hub.

A sink receives :class:`DriftAlert` events whenever a hosted monitor enters
its warning zone or flags a drift.  Four implementations cover the common
shapes of a production monitoring loop (the ProfitForge-style daemon pattern:
detector fires → notification goes out):

* :class:`CallbackSink` — invoke a user callable per alert;
* :class:`QueueSink` — buffer alerts in memory for polling consumers (the
  TCP server drains one of these for its ``alerts`` op);
* :class:`JsonlAuditSink` — append one JSON object per alert to an audit log
  (optionally fsync'd per line);
* :class:`WebhookSink` — POST alerts to an HTTP endpoint from a background
  thread with bounded retries, exponential backoff with jitter, a circuit
  breaker, and a dead-letter JSONL file for alerts that exhaust delivery.

Sinks should never raise out of :meth:`AlertSink.emit` — and the hub
*enforces* the contract: a raising sink is caught per delivery, counted in
``MonitorHub.stats()["n_sink_failures"]``, and never aborts an ``observe``/
``ingest`` flush, because the hub treats a failing sink as a reporting
problem, not a monitoring problem, and keeps the detector state
authoritative.

Delivery metadata: every alert carries a per-monitor monotonic ``seq``
number (assigned by the hub, persisted in its write-ahead log and
checkpoints), a wall-clock ``ts``, and a ``redelivered`` flag that is true
only for alerts re-delivered from the WAL after a restore — consumers that
need exactly-once semantics deduplicate on ``(tenant, monitor_id, seq)``;
see ``docs/serving.md``'s "Durability & delivery semantics".
"""

from __future__ import annotations

import abc
import json
import logging
import queue
import random
import threading
import time
import urllib.request
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Callable, Deque, Dict, List, Mapping, NamedTuple, Optional

__all__ = [
    "DriftAlert",
    "AlertSink",
    "CallbackSink",
    "QueueSink",
    "JsonlAuditSink",
    "WebhookSink",
]

logger = logging.getLogger(__name__)


class DriftAlert(NamedTuple):
    """One warning/drift transition of a hosted monitor.

    A :class:`~typing.NamedTuple`: immutable, hashable and picklable, and
    cheap to build — the hub constructs one per fired alert on the ingest
    path.

    Attributes
    ----------
    tenant:
        Tenant namespace of the monitor that fired.
    monitor_id:
        Monitor identifier within the tenant.
    kind:
        ``"drift"`` for a flagged drift, ``"warning"`` for entering the
        warning zone.
    position:
        Global 0-based index of the triggering element within the monitor's
        lifetime stream (i.e. ``n_seen - 1`` of the element that fired).
    detector:
        Class name of the underlying detector.
    n_drifts:
        Lifetime drift count of the monitor *including* this event (for
        drift alerts).
    seq:
        Monotonic per-monitor alert sequence number (1-based), assigned by
        the hub and persisted in its WAL and checkpoints.  ``(tenant,
        monitor_id, seq)`` identifies an alert across restarts — the
        deduplication key for exactly-once consumers.
    ts:
        Wall-clock emission time (``time.time()`` epoch seconds); ``0.0``
        for alerts constructed without one.
    redelivered:
        True only when this delivery is a WAL replay after a restore (the
        original delivery happened — or was about to happen — before the
        process died).
    """

    tenant: str
    monitor_id: str
    kind: str
    position: int
    detector: str
    n_drifts: int
    seq: int = 0
    ts: float = 0.0
    redelivered: bool = False

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form used by the audit log, WAL, webhook and wire
        protocol (keys in field order)."""
        return self._asdict()

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DriftAlert":
        """Rebuild an alert from :meth:`to_dict` output (extra keys ignored)."""
        return cls(
            tenant=str(payload["tenant"]),
            monitor_id=str(payload["monitor_id"]),
            kind=str(payload["kind"]),
            position=int(payload["position"]),
            detector=str(payload["detector"]),
            n_drifts=int(payload["n_drifts"]),
            seq=int(payload.get("seq", 0)),
            ts=float(payload.get("ts", 0.0)),
            redelivered=bool(payload.get("redelivered", False)),
        )

    def as_redelivery(self) -> "DriftAlert":
        """A copy flagged as a WAL re-delivery."""
        return self._replace(redelivered=True)


class AlertSink(abc.ABC):
    """Receiver of :class:`DriftAlert` events."""

    @abc.abstractmethod
    def emit(self, alert: DriftAlert) -> None:
        """Deliver one alert."""

    def stats(self) -> Dict[str, Any]:
        """Operational counters for the ``metrics`` op (default: none)."""
        return {}

    def close(self) -> None:
        """Release any resources held by the sink (default: nothing)."""


class CallbackSink(AlertSink):
    """Invoke ``callback(alert)`` for every alert."""

    def __init__(self, callback: Callable[[DriftAlert], None]) -> None:
        self._callback = callback

    def emit(self, alert: DriftAlert) -> None:
        self._callback(alert)


class QueueSink(AlertSink):
    """Buffer alerts in memory, oldest first, for polling consumers.

    With a ``maxlen``, a full queue evicts the *oldest* alert on every new
    ``emit``.  Eviction is never silent: each dropped alert increments
    :attr:`n_dropped`, so a consumer that polls too slowly can tell alerts
    were lost (the TCP server reports the counter in its ``alerts``
    response).

    Loss and replay are counted separately: :attr:`n_dropped` counts only
    capacity evictions (alerts the consumer will never see from this
    queue), while :attr:`n_redelivered` counts WAL replay re-deliveries
    (``alert.redelivered``) — duplicates of alerts whose original delivery
    preceded a crash, *not* losses.  An operator watching the two counters
    can distinguish "my consumer is too slow" from "the hub restarted and
    replayed its log".
    """

    def __init__(self, maxlen: Optional[int] = None) -> None:
        self._alerts: Deque[DriftAlert] = deque(maxlen=maxlen)
        self._n_dropped = 0
        self._n_redelivered = 0

    def emit(self, alert: DriftAlert) -> None:
        if alert.redelivered:
            self._n_redelivered += 1
        if (
            self._alerts.maxlen is not None
            and len(self._alerts) == self._alerts.maxlen
        ):
            self._n_dropped += 1
        self._alerts.append(alert)

    def __len__(self) -> int:
        return len(self._alerts)

    @property
    def n_dropped(self) -> int:
        """Lifetime count of alerts evicted because the queue was full."""
        return self._n_dropped

    @property
    def n_redelivered(self) -> int:
        """Lifetime count of WAL replay re-deliveries received."""
        return self._n_redelivered

    def drain(self) -> List[DriftAlert]:
        """Return and clear all buffered alerts.

        Counters survive the drain: :attr:`n_dropped` and
        :attr:`n_redelivered` are lifetime totals, not per-drain ones.
        """
        drained = list(self._alerts)
        self._alerts.clear()
        return drained

    def stats(self) -> Dict[str, Any]:
        return {
            "n_buffered": len(self._alerts),
            "n_dropped": self._n_dropped,
            "n_redelivered": self._n_redelivered,
        }


class JsonlAuditSink(AlertSink):
    """Append one JSON object per alert to a JSON-lines audit log.

    Each line is self-contained (``json.loads`` per line reconstructs the
    alert).  By default the handle is flushed per alert, so a crashed
    process loses at most the alert being written — to the *OS*; with
    ``fsync=True`` every line is also fsync'd (the WAL's flush helper), so
    it survives a power loss too, at ~one disk sync per alert.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self._path = path
        self._fsync = bool(fsync)
        self._handle = open(path, "a", encoding="utf-8")  # repro: allow(durability) -- append-only audit log, documented at-least-once: readers tolerate a torn trailing line and fsync is opt-in (fsync=True); the WAL, not this sink, is the delivery guarantee
        self._n_emitted = 0

    @property
    def path(self) -> str:
        """Path of the audit log file."""
        return self._path

    def emit(self, alert: DriftAlert) -> None:
        from repro.serving.wal import flush_handle

        self._handle.write(json.dumps(alert.to_dict(), sort_keys=True) + "\n")
        flush_handle(self._handle, fsync=self._fsync)
        self._n_emitted += 1

    def stats(self) -> Dict[str, Any]:
        return {"n_emitted": self._n_emitted, "fsync": self._fsync}

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def _http_post_json(url: str, payload: bytes, timeout: float) -> None:
    """Default webhook transport: POST JSON, raise on any failure."""
    request = urllib.request.Request(
        url, data=payload, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        status = getattr(response, "status", 200)
        if status >= 400:  # pragma: no cover - urllib raises first
            raise OSError(f"webhook returned HTTP {status}")


@dataclass
class _WebhookCounters:
    """Lifetime delivery counters (read under the sink's lock)."""

    n_delivered: int = 0
    n_retries: int = 0
    n_failed: int = 0
    n_dead_lettered: int = 0
    n_queue_full: int = 0
    n_circuit_open_drops: int = 0
    n_circuit_opens: int = 0
    consecutive_failures: int = 0
    last_error: Optional[str] = None


class WebhookSink(AlertSink):
    """POST alerts to an HTTP endpoint without ever blocking the hub.

    ``emit()`` only enqueues (``put_nowait``); a daemon worker thread owns
    all network I/O, so a slow or permanently-down endpoint can never stall
    an ``ingest`` flush.  Delivery policy, per alert:

    * up to ``1 + max_retries`` transport attempts;
    * exponential backoff between attempts — ``backoff * 2**attempt``
      seconds, capped at ``backoff_cap``, with multiplicative jitter drawn
      from ``[1, 1 + jitter]`` (decorrelates a fleet of retrying sinks);
    * an alert that exhausts its attempts is appended to the dead-letter
      JSONL file (one self-contained object per line, with the failure
      reason) and counted, never silently dropped;
    * ``breaker_threshold`` *consecutive* failed deliveries open a circuit
      breaker: for ``breaker_reset`` seconds alerts go straight to the
      dead-letter file without touching the network, then one delivery is
      allowed through as a half-open probe (success closes the circuit,
      failure re-opens it).

    A full queue (``queue_size``) dead-letters the incoming alert
    immediately — backpressure on the hub is never an option.

    ``transport`` is injectable for tests: a callable ``(url,
    payload_bytes, timeout)`` that raises on failure.  The default POSTs
    JSON via ``urllib.request``.

    ``on_breaker_open`` is an optional callback fired (from the worker
    thread) each time the breaker transitions closed → open, with
    ``{"url", "consecutive_failures", "reset_seconds"}`` — the hub wires
    this into its event journal.  It must be thread-safe and non-raising.
    """

    def __init__(
        self,
        url: str,
        max_retries: int = 4,
        backoff: float = 0.5,
        backoff_cap: float = 30.0,
        jitter: float = 0.25,
        breaker_threshold: int = 5,
        breaker_reset: float = 30.0,
        queue_size: int = 10_000,
        timeout: float = 5.0,
        dead_letter_path: Optional[str] = None,
        transport: Optional[Callable[[str, bytes, float], None]] = None,
        rng: Optional[random.Random] = None,
        clock: Callable[[], float] = time.monotonic,
        on_breaker_open: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        from repro.exceptions import ConfigurationError

        if max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
        if backoff < 0 or backoff_cap < backoff:
            raise ConfigurationError(
                f"need 0 <= backoff <= backoff_cap, got {backoff}/{backoff_cap}"
            )
        if jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {jitter}")
        if breaker_threshold < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        if queue_size < 1:
            raise ConfigurationError(f"queue_size must be >= 1, got {queue_size}")
        self._url = url
        self._max_retries = max_retries
        self._backoff = backoff
        self._backoff_cap = backoff_cap
        self._jitter = jitter
        self._breaker_threshold = breaker_threshold
        self._breaker_reset = breaker_reset
        self._timeout = timeout
        self._dead_letter_path = dead_letter_path
        self._transport = transport or _http_post_json
        self._on_breaker_open = on_breaker_open
        self._rng = rng or random.Random()
        self._clock = clock
        self._queue: "queue.Queue[DriftAlert]" = queue.Queue(maxsize=queue_size)
        self._lock = threading.Lock()
        self._counters = _WebhookCounters()
        self._circuit_open_until: Optional[float] = None
        self._dead_letter_handle = None
        self._stop = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._worker = threading.Thread(
            target=self._run, name="repro-webhook-sink", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------- hub side

    def emit(self, alert: DriftAlert) -> None:
        """Enqueue one alert; never blocks, never raises for a down endpoint."""
        if self._stop.is_set():
            self._dead_letter(alert, "sink-closed")
            return
        try:
            self._queue.put_nowait(alert)
            self._idle.clear()
        except queue.Full:
            with self._lock:
                self._counters.n_queue_full += 1
            self._dead_letter(alert, "queue-full")

    # ---------------------------------------------------------- worker side

    def _run(self) -> None:
        while True:
            try:
                alert = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._queue.empty():
                    self._idle.set()
                if self._stop.is_set():
                    return
                continue
            try:
                self._deliver(alert)
            except Exception:  # pragma: no cover - defensive  # repro: allow(broad-except) -- guards the worker thread against bugs in _deliver itself; real delivery failures are already counted per cause (n_failed/n_retries/n_dead_lettered) inside _deliver
                logger.exception("webhook delivery loop error")
            finally:
                self._queue.task_done()
                if self._queue.empty():
                    self._idle.set()

    def _deliver(self, alert: DriftAlert) -> None:
        now = self._clock()
        with self._lock:
            open_until = self._circuit_open_until
        if open_until is not None and now < open_until:
            with self._lock:
                self._counters.n_circuit_open_drops += 1
            self._dead_letter(alert, "circuit-open")
            return
        # Either the circuit is closed, or this delivery is the half-open
        # probe that decides whether it may close again.
        payload = json.dumps(alert.to_dict(), sort_keys=True).encode("utf-8")
        error: Optional[BaseException] = None
        for attempt in range(self._max_retries + 1):
            if attempt > 0:
                delay = min(
                    self._backoff * (2.0 ** (attempt - 1)), self._backoff_cap
                )
                delay *= 1.0 + self._jitter * self._rng.random()
                with self._lock:
                    self._counters.n_retries += 1
                if self._stop.wait(delay):
                    # Closing: one final immediate attempt, then give up.
                    pass
            try:
                self._transport(self._url, payload, self._timeout)
            except Exception as exc:  # repro: allow(broad-except) -- every failed attempt retries with capped backoff; when the loop ends the failure is counted (n_failed, consecutive_failures) and the alert is dead-lettered with its reason
                error = exc
                continue
            with self._lock:
                self._counters.n_delivered += 1
                self._counters.consecutive_failures = 0
                self._circuit_open_until = None
            return
        opened = False
        with self._lock:
            self._counters.n_failed += 1
            self._counters.consecutive_failures += 1
            self._counters.last_error = repr(error)
            if self._counters.consecutive_failures >= self._breaker_threshold:
                if self._circuit_open_until is None:
                    self._counters.n_circuit_opens += 1
                    opened = True
                self._circuit_open_until = self._clock() + self._breaker_reset
            consecutive = self._counters.consecutive_failures
        if opened and self._on_breaker_open is not None:
            self._on_breaker_open(
                {
                    "url": self._url,
                    "consecutive_failures": consecutive,
                    "reset_seconds": self._breaker_reset,
                }
            )
        self._dead_letter(alert, "retries-exhausted", error)

    def _dead_letter(
        self,
        alert: DriftAlert,
        reason: str,
        error: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            self._counters.n_dead_lettered += 1
            if self._dead_letter_path is None:
                return
            try:
                if self._dead_letter_handle is None:
                    self._dead_letter_handle = open(  # repro: allow(durability) -- the dead-letter JSONL is the best-effort record of last resort on the failure path; demanding atomicity here would add failure modes to failure handling
                        self._dead_letter_path, "a", encoding="utf-8"
                    )
                record = alert.to_dict()
                record["dead_letter_reason"] = reason
                if error is not None:
                    record["dead_letter_error"] = repr(error)
                self._dead_letter_handle.write(
                    json.dumps(record, sort_keys=True) + "\n"
                )
                self._dead_letter_handle.flush()
            except OSError:  # pragma: no cover - disk trouble
                logger.exception(
                    "could not dead-letter alert for %s/%s",
                    alert.tenant,
                    alert.monitor_id,
                )

    # -------------------------------------------------------------- control

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Wait until the queue is drained and the worker is idle."""
        deadline = None if timeout is None else self._clock() + timeout
        while not (self._queue.empty() and self._idle.is_set()):
            if deadline is not None and self._clock() > deadline:
                return False
            time.sleep(0.005)
        return True

    @property
    def circuit_open(self) -> bool:
        """Whether the breaker is currently rejecting deliveries."""
        with self._lock:
            return (
                self._circuit_open_until is not None
                and self._clock() < self._circuit_open_until
            )

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            counters = asdict(self._counters)
        counters["url"] = self._url
        counters["n_queued"] = self._queue.qsize()
        counters["circuit_open"] = self.circuit_open
        return counters

    def close(self) -> None:
        """Stop the worker (remaining queued alerts are dead-lettered)."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._worker.join(timeout=10.0)
        while True:
            try:
                alert = self._queue.get_nowait()
            except queue.Empty:
                break
            self._dead_letter(alert, "sink-closed")
        with self._lock:
            if self._dead_letter_handle is not None:
                self._dead_letter_handle.close()
                self._dead_letter_handle = None
