"""Unit tests of :class:`QueueSink`, the hub's alert buffer.

The buffer holds each alert as a plain tuple, which the garbage collector
stops tracking; a drain hands back the :class:`DriftAlert` objects that
were emitted, and the loss/replay counters count as they always did.
"""

from __future__ import annotations

import gc

from repro.serving.sinks import DriftAlert, QueueSink


def _alerts(count: int, redelivered_every: int = 3) -> list:
    return [
        DriftAlert(
            "t",
            f"m{i % 4}",
            "drift" if i % 2 else "warning",
            100 + i,
            "Ddm",
            i // 2,
            seq=i + 1,
            ts=1.7e9 + i / 8,
            redelivered=i % redelivered_every == 0,
        )
        for i in range(count)
    ]


def test_drain_returns_the_emitted_alerts():
    sink = QueueSink()
    emitted = _alerts(10)
    for alert in emitted:
        sink.emit(alert)
    assert len(sink) == 10
    drained = sink.drain()
    assert drained == emitted
    assert all(type(alert) is DriftAlert for alert in drained)
    assert [alert.redelivered for alert in drained] == [
        alert.redelivered for alert in emitted
    ]
    assert len(sink) == 0 and sink.drain() == []


def test_counters_count_evictions_and_redeliveries():
    sink = QueueSink(maxlen=4)
    emitted = _alerts(10)
    for alert in emitted:
        sink.emit(alert)
    assert sink.n_dropped == 6
    assert sink.n_redelivered == sum(alert.redelivered for alert in emitted) == 4
    assert sink.drain() == emitted[-4:]
    # Lifetime counters: a drain does not reset them.
    assert (sink.n_dropped, sink.n_redelivered) == (6, 4)
    assert sink.stats() == {"n_buffered": 0, "n_dropped": 6, "n_redelivered": 4}


def test_buffered_alerts_are_not_tracked_by_the_collector():
    sink = QueueSink()
    for alert in _alerts(50):
        sink.emit(alert)
    gc.collect()
    assert not any(gc.is_tracked(entry) for entry in sink._alerts)
