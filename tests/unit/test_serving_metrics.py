"""The hub's ingest-rate meter stays bounded however often it is fed."""

import pytest

from repro.serving.metrics import RateMeter


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_rate_meter_merges_adds_into_one_bucket_per_second():
    clock = _FakeClock()
    meter = RateMeter(window=60.0, clock=clock)
    # 10,000 flushes of 2 events over 50 s, all inside one window.
    for index in range(10_000):
        clock.now = index * 0.005
        meter.add(2)
    assert len(meter._buckets) <= 61
    assert meter.n_total == 20_000
    clock.now = 50.0
    assert meter.rate() == pytest.approx(20_000 / 50.0)


def test_rate_meter_forgets_whole_seconds_past_the_window():
    clock = _FakeClock()
    meter = RateMeter(window=60.0, clock=clock)
    # 100 events per second for 100 s, then a rate at the end.
    for index in range(10_000):
        clock.now = index * 0.01
        meter.add(1)
    assert len(meter._buckets) <= 61
    clock.now = 100.0
    # Seconds 40..99 are inside the window: 60 s of 100 events each.
    assert meter.rate() == pytest.approx(6_000 / 60.0)
    assert meter.n_total == 10_000
    clock.now = 200.0
    assert meter.rate() == 0.0
    assert not meter._buckets
