"""Prometheus text exposition (format 0.0.4) for the serving hubs.

:func:`hub_exposition` renders a :class:`~repro.serving.hub.MonitorHub` or a
:class:`~repro.serving.sharded.ShardedHub` as the plain-text format every
Prometheus-compatible scraper ingests.  The mapping is registry-driven, not
hand-enumerated: every ``n_*`` key the hub's ``stats()`` / ``metrics()``
dicts expose becomes a ``repro_hub_n_*`` sample automatically (a counter
added in a future PR shows up in the exposition without touching this
module — ``tests/unit/test_obs_prom.py`` pins that invariant), every
:class:`~repro.serving.metrics.LatencyWindow` summary becomes a Prometheus
summary with ``quantile`` labels, and sharded clusters additionally emit
each live shard's counters under a ``shard`` label next to the merged
totals.

Two instruments live here rather than in :mod:`repro.serving.metrics`
because their output shape is the exposition's: :class:`Histogram`
(fixed-bucket, cumulative, mergeable across processes) and
:class:`UpdateTimings` (per-detector-class update-time histograms plus
top-K slowest-monitor cost attribution, fed by the hub's ``update_batch``
timing seam).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "Histogram",
    "TimingRecorder",
    "UpdateTimings",
    "hub_exposition",
    "metric_name",
]

#: Hub counters that can go down (or describe capacity) — exposed as gauges;
#: every other ``n_*`` key is a monotonic counter.
GAUGE_KEYS = frozenset(
    {
        "n_monitors",
        "n_tenants",
        "n_shards",
        "n_alive_shards",
        "n_trace_retained",
        "n_journal_retained",
    }
)

#: Top-K size of the slowest-monitor attribution in the exposition.
TOP_K_MONITORS = 10


def metric_name(counter_key: str) -> str:
    """Exposition name of a hub-level ``n_*`` counter key (``repro_hub_…``)."""
    return f"repro_hub_{counter_key}"


class Histogram:
    """Fixed-bucket cumulative histogram, mergeable across processes.

    ``snapshot()`` is a plain JSON/pickle-safe dict (``buckets`` as
    ``[le, cumulative_count]`` pairs plus ``sum``/``count``), which is how
    per-shard histograms travel over the worker pipes before
    :meth:`merge_snapshots` combines them in the parent.
    """

    #: Default bucket upper bounds in seconds, sized for ``update_batch``
    #: calls (microseconds for a small chunk, up to a second for a huge one).
    DEFAULT_BUCKETS: Tuple[float, ...] = (
        1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
        1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
    )

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        edges = tuple(float(edge) for edge in (buckets or self.DEFAULT_BUCKETS))
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigurationError(
                "histogram buckets must be a non-empty strictly ascending "
                f"sequence, got {buckets!r}"
            )
        # Boxed-float storage beats array.array here: bisect over packed
        # doubles boxes a fresh float per comparison, while pre-boxed
        # floats compare object-to-object — measurably faster on the warm
        # per-update hot path.
        self._edges = edges
        #: Per-bucket (non-cumulative) counts; the extra slot is +Inf.
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self._counts[bisect_left(self._edges, value)] += 1
        self._sum += value
        self._count += 1

    def snapshot(self) -> Dict[str, Any]:
        buckets: List[List[float]] = []
        cumulative = 0
        for edge, count in zip(self._edges, self._counts):
            cumulative += count
            buckets.append([edge, cumulative])
        return {"buckets": buckets, "sum": self._sum, "count": self._count}

    @staticmethod
    def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
        """Sum snapshots bucket-wise (same-edge histograms from N shards)."""
        acc: Dict[float, int] = {}
        total = 0
        sigma = 0.0
        for snap in snapshots:
            for edge, cumulative in snap["buckets"]:
                acc[float(edge)] = acc.get(float(edge), 0) + int(cumulative)
            total += int(snap["count"])
            sigma += float(snap["sum"])
        return {
            "buckets": [[edge, acc[edge]] for edge in sorted(acc)],
            "sum": sigma,
            "count": total,
        }


#: Attribution-row layout: ``[detector, sampled_seconds, n_updates,
#: sampled_values, n_sampled]`` (see :class:`TimingRecorder`).
_ROW_SECONDS = 1
_ROW_UPDATES = 2
_ROW_VALUES = 3
_ROW_SAMPLED = 4


class TimingRecorder:
    """Pre-resolved ``(class histogram, monitor row)`` handle with sampled
    timing; see :meth:`UpdateTimings.recorder`.

    Timing every ``update_batch`` call costs two clock reads plus a
    histogram insert — measurably above the <2% ingest-overhead budget for
    cheap detectors.  The hot path therefore *counts* every call via
    :meth:`tick` (one list-slot increment) but only *times* one call in
    :data:`SAMPLE_EVERY`, starting with the first.  The snapshot scales the
    sampled sums by ``n_updates / n_sampled`` — exact whenever every call
    was sampled (single updates, the direct :meth:`UpdateTimings.observe`
    path), an unbiased estimate otherwise.
    """

    #: Hot-path sampling period (power of two — :meth:`tick` masks with
    #: ``SAMPLE_EVERY - 1``).
    SAMPLE_EVERY = 8

    __slots__ = ("_histogram", "_row")

    def __init__(self, histogram: Histogram, row: List[Any]) -> None:
        self._histogram = histogram
        self._row = row

    def tick(self) -> bool:
        """Count one update; True when this call's duration should be timed."""
        row = self._row
        count = row[_ROW_UPDATES] = row[_ROW_UPDATES] + 1
        return (count & (self.SAMPLE_EVERY - 1)) == 1

    def record(self, seconds: float, n_values: int) -> None:
        """Record one *sampled* duration (follows a True :meth:`tick`)."""
        self._histogram.observe(seconds)
        row = self._row
        row[_ROW_SECONDS] += seconds
        row[_ROW_VALUES] += n_values
        row[_ROW_SAMPLED] += 1


class UpdateTimings:
    """Per-detector-class update-time histograms + per-monitor attribution.

    The hub's ``_feed`` seam reports every ``update_batch`` call here; the
    snapshot answers both "how is DDM's update-time distribution shifting"
    (class histograms) and "which tenant's monitors burn the CPU" (top-K
    monitors by cumulative update seconds).
    """

    def __init__(self, top_k: int = TOP_K_MONITORS) -> None:
        if top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {top_k}")
        self._top_k = top_k
        self._by_class: Dict[str, Histogram] = {}
        #: ``(tenant, monitor_id) -> [detector, sampled_seconds, n_updates,
        #: sampled_values, n_sampled]``
        self._by_monitor: Dict[Tuple[str, str], List[Any]] = {}

    def observe(
        self,
        detector: str,
        tenant: str,
        monitor_id: str,
        seconds: float,
        n_values: int,
    ) -> None:
        """Record one fully-measured update (every call timed — exact)."""
        recorder = self.recorder(detector, tenant, monitor_id)
        recorder.tick()
        recorder.record(seconds, n_values)

    def recorder(
        self, detector: str, tenant: str, monitor_id: str
    ) -> "TimingRecorder":
        """A bound per-monitor recorder for the hub's per-update hot path.

        Resolves the class histogram and the monitor's attribution row once;
        the returned handle then counts every call via
        :meth:`~TimingRecorder.tick` and times only the sampled ones —
        cheap enough to run on every ``update_batch`` call
        (``benchmarks/bench_obs_overhead.py`` pins the bound).
        """
        histogram = self._by_class.get(detector)
        if histogram is None:
            histogram = self._by_class[detector] = Histogram()
        row = self._by_monitor.get((tenant, monitor_id))
        if row is None:
            row = self._by_monitor[(tenant, monitor_id)] = [
                detector, 0.0, 0, 0, 0,
            ]
        return TimingRecorder(histogram, row)

    def snapshot(self) -> Dict[str, Any]:
        def estimate(row: List[Any]) -> Tuple[float, int]:
            """Scale sampled sums to the full call count (exact when every
            call was sampled)."""
            _, seconds, n_updates, n_values, n_sampled = row
            if n_sampled in (0, n_updates):
                return seconds, n_values
            scale = n_updates / n_sampled
            return seconds * scale, round(n_values * scale)

        slowest = sorted(
            self._by_monitor.items(),
            key=lambda item: estimate(item[1])[0],
            reverse=True,
        )[: self._top_k]
        return {
            "classes": {
                name: histogram.snapshot()
                for name, histogram in self._by_class.items()
            },
            "monitors": [
                {
                    "tenant": tenant,
                    "monitor_id": monitor_id,
                    "detector": row[0],
                    "seconds": round(estimate(row)[0], 9),
                    "n_updates": row[_ROW_UPDATES],
                    "n_values": estimate(row)[1],
                }
                for (tenant, monitor_id), row in slowest
            ],
        }

    @staticmethod
    def merge_snapshots(
        snapshots: Iterable[Mapping[str, Any]], top_k: int = TOP_K_MONITORS
    ) -> Dict[str, Any]:
        """Merge per-shard snapshots: histograms sum, top-K re-ranks."""
        classes: Dict[str, List[Mapping[str, Any]]] = {}
        monitors: List[Dict[str, Any]] = []
        for snap in snapshots:
            for name, histogram in snap.get("classes", {}).items():
                classes.setdefault(name, []).append(histogram)
            monitors.extend(snap.get("monitors", []))
        monitors.sort(key=lambda row: row["seconds"], reverse=True)
        return {
            "classes": {
                name: Histogram.merge_snapshots(parts)
                for name, parts in classes.items()
            },
            "monitors": monitors[:top_k],
        }


# ------------------------------------------------------------- text format


def _escape(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


#: Sample-name suffixes that belong to their base family (histogram/summary
#: series components, per the exposition spec).
_FAMILY_SUFFIXES = ("_bucket", "_sum", "_count")


class _Exposition:
    """Buffers samples grouped per family.

    The text format requires every line of a metric family to form one
    contiguous block; a sharded hub emits the same families once per shard,
    so samples are buffered per family and rendered grouped, in family
    registration order.
    """

    def __init__(self) -> None:
        self._meta: Dict[str, Tuple[str, str]] = {}
        self._order: List[str] = []
        self._samples: Dict[str, List[str]] = {}

    def family(self, name: str, kind: str, help_text: str) -> None:
        if name in self._meta:
            return
        self._meta[name] = (kind, help_text)
        self._order.append(name)
        self._samples[name] = []

    def _family_of(self, sample_name: str) -> str:
        if sample_name in self._meta:
            return sample_name
        for suffix in _FAMILY_SUFFIXES:
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if base in self._meta:
                    return base
        self.family(sample_name, "untyped", sample_name)
        return sample_name

    def sample(
        self, name: str, labels: Optional[Mapping[str, Any]], value: Any
    ) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape(val)}"' for key, val in labels.items()
            )
            line = f"{name}{{{rendered}}} {_fmt(value)}"
        else:
            line = f"{name} {_fmt(value)}"
        self._samples[self._family_of(name)].append(line)

    def render(self) -> str:
        lines: List[str] = []
        for name in self._order:
            kind, help_text = self._meta[name]
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(self._samples[name])
        return "\n".join(lines) + "\n"


def _is_latency_summary(value: Any) -> bool:
    return isinstance(value, Mapping) and {"count", "p50", "p95"} <= set(value)


def _emit_counters(
    out: _Exposition,
    prefix: str,
    flat: Mapping[str, Any],
    labels: Optional[Mapping[str, Any]] = None,
) -> None:
    """Emit every ``n_*`` integer key of ``flat`` as ``<prefix>_<key>``."""
    for key in sorted(flat):
        value = flat[key]
        if not key.startswith("n_") or isinstance(value, bool):
            continue
        if not isinstance(value, (int, float)):
            continue
        name = f"{prefix}_{key}"
        kind = "gauge" if key in GAUGE_KEYS else "counter"
        out.family(name, kind, f"hub {key} counter")
        out.sample(name, labels, value)


def _emit_summary(
    out: _Exposition,
    name: str,
    summary: Mapping[str, Any],
    labels: Optional[Mapping[str, Any]] = None,
) -> None:
    """A LatencyWindow ``summary_ms()`` dict as a Prometheus summary.

    Quantiles cover the retained window; ``_count`` is the lifetime
    ``n_total`` (the summary-count convention), with the window size as a
    separate ``_window`` gauge so the two are never conflated again.
    """
    out.family(name, "summary", f"{name} over the retained window (ms)")
    for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
        out.sample(name, {**(labels or {}), "quantile": quantile}, summary[key])
    out.sample(f"{name}_count", labels, summary.get("n_total", summary["count"]))
    window_name = f"{name}_window"
    out.family(window_name, "gauge", f"samples retained in the {name} window")
    out.sample(window_name, labels, summary["count"])


def _emit_update_timings(out: _Exposition, snapshot: Mapping[str, Any]) -> None:
    name = "repro_detector_update_seconds"
    out.family(name, "histogram", "update_batch latency per detector class")
    for detector in sorted(snapshot.get("classes", {})):
        histogram = snapshot["classes"][detector]
        for edge, cumulative in histogram["buckets"]:
            out.sample(
                f"{name}_bucket",
                {"detector": detector, "le": _fmt(edge)},
                cumulative,
            )
        out.sample(
            f"{name}_bucket",
            {"detector": detector, "le": "+Inf"},
            histogram["count"],
        )
        out.sample(f"{name}_sum", {"detector": detector}, histogram["sum"])
        out.sample(f"{name}_count", {"detector": detector}, histogram["count"])
    seconds_name = "repro_monitor_update_seconds_total"
    values_name = "repro_monitor_update_values_total"
    out.family(
        seconds_name, "counter", "cumulative update time of the slowest monitors"
    )
    out.family(
        values_name, "counter", "values consumed by the slowest monitors"
    )
    for row in snapshot.get("monitors", []):
        labels = {
            "tenant": row["tenant"],
            "monitor": row["monitor_id"],
            "detector": row["detector"],
        }
        out.sample(seconds_name, labels, row["seconds"])
        out.sample(values_name, labels, row["n_values"])


def _emit_wal(
    out: _Exposition,
    wal: Optional[Mapping[str, Any]],
    labels: Optional[Mapping[str, Any]] = None,
) -> None:
    if not wal:
        return
    _emit_counters(out, "repro_wal", wal, labels)
    summary = wal.get("fsync_latency_ms")
    if _is_latency_summary(summary):
        _emit_summary(out, "repro_wal_fsync_latency_ms", summary, labels)


def _emit_sinks(
    out: _Exposition,
    sinks: Iterable[Mapping[str, Any]],
    labels: Optional[Mapping[str, Any]] = None,
) -> None:
    for index, sink in enumerate(sinks):
        sink_labels = {
            **(labels or {}),
            "sink": sink.get("sink", "?"),
            "index": str(index),
        }
        _emit_counters(out, "repro_sink", sink, sink_labels)


def _emit_hub_body(
    out: _Exposition, metrics: Mapping[str, Any], shard: Optional[str]
) -> None:
    """Shared emission of one hub's ``metrics()`` dict (parent or shard)."""
    prefix = "repro_shard" if shard is not None else "repro_hub"
    labels = {"shard": shard} if shard is not None else None
    _emit_counters(out, prefix, metrics, labels)
    trace = metrics.get("trace")
    if isinstance(trace, Mapping):
        _emit_counters(out, prefix, trace, labels)
    rate_name = f"{prefix}_ingest_rate"
    out.family(rate_name, "gauge", "events/second over the last minute")
    out.sample(rate_name, labels, metrics.get("ingest_rate", 0.0))
    flush = metrics.get("flush_latency_ms")
    if _is_latency_summary(flush):
        _emit_summary(out, f"{prefix}_flush_latency_ms", flush, labels)
    _emit_wal(out, metrics.get("wal"), labels)
    _emit_sinks(out, metrics.get("sinks", ()), labels)


def hub_exposition(hub: Any) -> str:
    """Render a hub (single-process or sharded) as Prometheus text.

    Both hubs answer ``stats()`` / ``metrics()`` / ``journal`` alike; a
    sharded cluster's ``metrics()`` additionally lists its live shards, so
    it emits its merged totals as ``repro_hub_*`` plus every live shard's
    counters as ``repro_shard_*{shard="N"}``, with per-detector-class
    histograms merged across shards.
    """
    out = _Exposition()
    stats = hub.stats()
    metrics = hub.metrics()
    # Union of the two dicts' counters: stats carries the registry-facing
    # ones (n_drifts, n_warnings…), metrics the operational ones.
    top: Dict[str, Any] = dict(metrics)
    for key, value in stats.items():
        top.setdefault(key, value)
    _emit_hub_body(out, top, shard=None)
    shards = metrics.get("shards")
    if isinstance(shards, list):
        timing_parts = []
        for position, shard_metrics in enumerate(shards):
            label = str(shard_metrics.get("shard", position))
            _emit_hub_body(out, shard_metrics, shard=label)
            part = shard_metrics.get("detector_update")
            if part:
                timing_parts.append(part)
        if timing_parts:
            _emit_update_timings(out, UpdateTimings.merge_snapshots(timing_parts))
    else:
        timings = metrics.get("detector_update")
        if timings:
            _emit_update_timings(out, timings)
    journal = hub.journal
    name = "repro_journal_events_total"
    out.family(name, "counter", "operational journal events by kind")
    counts = journal.counts()
    for kind in sorted(counts):
        out.sample(name, {"kind": kind}, counts[kind])
    _emit_counters(out, "repro_hub", journal.stats())
    return out.render()
