"""Unit tests of :class:`repro.serving.sinks.WebhookSink`.

Delivery runs against an injectable fake transport, so the tests cover the
full retry/backoff/circuit-breaker/dead-letter policy without a network:
a flaky endpoint that recovers, a permanently-down endpoint that must never
block the hub's ingest path, breaker open/half-open/close transitions, and
queue-overflow dead-lettering.
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.journal import EventJournal
from repro.serving.hub import MonitorHub
from repro.serving.sinks import (
    DriftAlert,
    JsonlAuditSink,
    QueueSink,
    WebhookSink,
    build_sinks,
)


def _alert(seq: int = 1) -> DriftAlert:
    return DriftAlert(
        tenant="t",
        monitor_id="m",
        kind="drift",
        position=100 + seq,
        detector="Ddm",
        n_drifts=seq,
        seq=seq,
        ts=float(seq),
    )


def _read_dead_letters(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


class _FlakyTransport:
    """Fails the first ``n_failures`` calls, then succeeds; thread-safe."""

    def __init__(self, n_failures: int) -> None:
        self.n_failures = n_failures
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, url: str, payload: bytes, timeout: float) -> None:
        with self._lock:
            self.calls += 1
            if self.calls <= self.n_failures:
                raise OSError(f"connection refused (call {self.calls})")


def test_flaky_endpoint_retries_until_delivered(tmp_path):
    transport = _FlakyTransport(n_failures=2)
    sink = WebhookSink(
        "http://example.invalid/hook",
        max_retries=4,
        backoff=0.0,
        dead_letter_path=str(tmp_path / "dead.jsonl"),
        transport=transport,
        rng=random.Random(0),
    )
    sink.emit(_alert(1))
    assert sink.flush(timeout=10.0)
    stats = sink.stats()
    assert stats["n_delivered"] == 1
    assert stats["n_retries"] == 2
    assert stats["n_failed"] == 0
    assert stats["n_dead_lettered"] == 0
    assert transport.calls == 3
    assert _read_dead_letters(tmp_path / "dead.jsonl") == []
    sink.close()


def test_down_endpoint_dead_letters_and_never_blocks_emit(tmp_path):
    def transport(url, payload, timeout):
        raise OSError("host unreachable")

    dead_path = tmp_path / "dead.jsonl"
    sink = WebhookSink(
        "http://example.invalid/hook",
        max_retries=2,
        backoff=0.01,
        breaker_threshold=100,  # keep the breaker out of this test
        dead_letter_path=str(dead_path),
        transport=transport,
        rng=random.Random(0),
    )
    started = time.perf_counter()
    for seq in range(1, 4):
        sink.emit(_alert(seq))
    # emit() only enqueues: three alerts cost microseconds even though every
    # delivery will burn retries in the worker thread.
    assert time.perf_counter() - started < 0.5
    assert sink.flush(timeout=10.0)
    stats = sink.stats()
    assert stats["n_failed"] == 3
    assert stats["n_dead_lettered"] == 3
    assert stats["n_retries"] == 6  # 2 retries per alert
    assert "host unreachable" in stats["last_error"]
    records = _read_dead_letters(dead_path)
    assert [r["seq"] for r in records] == [1, 2, 3]
    assert all(r["dead_letter_reason"] == "retries-exhausted" for r in records)
    assert all("host unreachable" in r["dead_letter_error"] for r in records)
    sink.close()


def test_circuit_breaker_opens_then_half_open_probe_recovers(tmp_path):
    now = [1000.0]
    healthy = [False]
    calls = [0]

    def transport(url, payload, timeout):
        calls[0] += 1
        if not healthy[0]:
            raise OSError("down")

    dead_path = tmp_path / "dead.jsonl"
    sink = WebhookSink(
        "http://example.invalid/hook",
        max_retries=0,
        backoff=0.0,
        breaker_threshold=2,
        breaker_reset=30.0,
        dead_letter_path=str(dead_path),
        transport=transport,
        clock=lambda: now[0],
        rng=random.Random(0),
    )
    # Two consecutive failed deliveries open the circuit.
    sink.emit(_alert(1))
    sink.emit(_alert(2))
    assert sink.flush(timeout=10.0)
    assert sink.circuit_open
    assert sink.stats()["n_circuit_opens"] == 1
    assert calls[0] == 2

    # While open, alerts go straight to the dead-letter file — no network.
    sink.emit(_alert(3))
    assert sink.flush(timeout=10.0)
    assert calls[0] == 2
    stats = sink.stats()
    assert stats["n_circuit_open_drops"] == 1
    reasons = [r["dead_letter_reason"] for r in _read_dead_letters(dead_path)]
    assert reasons == ["retries-exhausted", "retries-exhausted", "circuit-open"]

    # After breaker_reset the next delivery is a half-open probe; its
    # success closes the circuit and resets the failure streak.
    now[0] += 31.0
    healthy[0] = True
    sink.emit(_alert(4))
    assert sink.flush(timeout=10.0)
    assert calls[0] == 3
    stats = sink.stats()
    assert stats["n_delivered"] == 1
    assert stats["consecutive_failures"] == 0
    assert not sink.circuit_open
    sink.close()


def test_full_queue_dead_letters_immediately(tmp_path):
    in_flight = threading.Event()
    release = threading.Event()

    def transport(url, payload, timeout):
        in_flight.set()
        release.wait(timeout=10.0)

    dead_path = tmp_path / "dead.jsonl"
    sink = WebhookSink(
        "http://example.invalid/hook",
        queue_size=1,
        dead_letter_path=str(dead_path),
        transport=transport,
    )
    sink.emit(_alert(1))
    assert in_flight.wait(timeout=10.0)  # worker is stuck delivering #1
    sink.emit(_alert(2))  # fills the queue
    sink.emit(_alert(3))  # overflows: dead-lettered, emit still instant
    stats = sink.stats()
    assert stats["n_queue_full"] == 1
    records = _read_dead_letters(dead_path)
    assert [r["seq"] for r in records] == [3]
    assert records[0]["dead_letter_reason"] == "queue-full"
    release.set()
    assert sink.flush(timeout=10.0)
    assert sink.stats()["n_delivered"] == 2
    sink.close()


def test_close_dead_letters_remaining_queue(tmp_path):
    in_flight = threading.Event()
    release = threading.Event()

    def transport(url, payload, timeout):
        in_flight.set()
        release.wait(timeout=10.0)

    dead_path = tmp_path / "dead.jsonl"
    sink = WebhookSink(
        "http://example.invalid/hook",
        dead_letter_path=str(dead_path),
        transport=transport,
    )
    sink.emit(_alert(1))
    assert in_flight.wait(timeout=10.0)
    sink.emit(_alert(2))
    release.set()
    sink.close()
    sink.close()  # idempotent
    # Whatever the worker did not deliver before close() is on disk, and an
    # emit after close() never vanishes either.
    sink.emit(_alert(3))
    recorded = {r["seq"] for r in _read_dead_letters(dead_path)}
    delivered = sink.stats()["n_delivered"]
    assert 3 in recorded
    assert delivered + len(recorded) >= 3


def test_hub_ingest_never_blocks_on_down_webhook(tmp_path):
    import numpy as np

    def transport(url, payload, timeout):
        raise OSError("permanently down")

    webhook = WebhookSink(
        "http://example.invalid/hook",
        max_retries=3,
        backoff=0.05,
        dead_letter_path=str(tmp_path / "dead.jsonl"),
        transport=transport,
        rng=random.Random(0),
    )
    queue = QueueSink()
    hub = MonitorHub(sinks=[webhook, queue])
    hub.register("t", "m", "DDM")
    rng = np.random.default_rng(7)
    values = np.concatenate(
        [(rng.random(500) < 0.1), (rng.random(500) < 0.65)]
    ).astype(float)
    started = time.perf_counter()
    hub.observe("t", "m", values)
    elapsed = time.perf_counter() - started
    # The flush returns at detector speed: all webhook retries/backoff burn
    # in the worker thread (6 alerts x 3 retries x 50ms+ would dwarf this).
    assert elapsed < 1.0
    # The healthy sink saw every alert despite the dead webhook.
    assert [a.seq for a in queue.drain()] == [1, 2, 3, 4, 5, 6]
    hub.close()
    assert webhook.stats()["n_dead_lettered"] == 6


def test_configuration_validation():
    with pytest.raises(ConfigurationError):
        WebhookSink("http://x", max_retries=-1)
    with pytest.raises(ConfigurationError):
        WebhookSink("http://x", backoff=2.0, backoff_cap=1.0)
    with pytest.raises(ConfigurationError):
        WebhookSink("http://x", jitter=-0.1)
    with pytest.raises(ConfigurationError):
        WebhookSink("http://x", breaker_threshold=0)
    with pytest.raises(ConfigurationError):
        WebhookSink("http://x", queue_size=0)


def test_build_sinks_wires_audit_log_webhook_and_breaker_journal(tmp_path):
    journal = EventJournal(capacity=8)
    assert build_sinks(None, None, None, journal) == []
    audit_path = str(tmp_path / "audit.jsonl")
    sinks = build_sinks(
        audit_path, "http://127.0.0.1:9/hook", str(tmp_path / "dead.jsonl"), journal
    )
    try:
        audit, webhook = sinks
        assert isinstance(audit, JsonlAuditSink) and audit.path == audit_path
        assert isinstance(webhook, WebhookSink)
        assert webhook.stats()["url"] == "http://127.0.0.1:9/hook"
        # The breaker callback the worker thread fires lands in the journal.
        webhook._on_breaker_open({"url": "u", "consecutive_failures": 5})
        (event,) = journal.events(kind="webhook_breaker_open")
        assert event["consecutive_failures"] == 5
    finally:
        for sink in sinks:
            sink.close()
