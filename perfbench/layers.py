"""Per-layer metrics from the traced run's spans.

The traced server writes one span file per process (see
``traced_server.py``).  Here those spans are cut to the timed window,
matched to the client's requests, summed per layer, and exported as one
Chrome trace per workload.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from wire import Exchange

DETECTOR_CLASSES = (
    "Optwin",
    "Ddm",
    "HddmA",
    "Stepd",
    "Eddm",
    "Adwin",
    "Kswin",
    "Ecdd",
    "PageHinkley",
    "Rddm",
)
#: Shard workers reported by name; the sharded workload runs two.
N_SHARDS = 2


class LayerMismatch(AssertionError):
    """Spans and client requests do not line up."""


def load_spans(directory: Path) -> List[Dict[str, Any]]:
    spans: List[Dict[str, Any]] = []
    for path in sorted(directory.glob("spans-*.json")):
        spans.extend(json.loads(path.read_text(encoding="utf-8")))
    return spans


def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (0.0 for no values)."""
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _end(span: Mapping[str, Any]) -> float:
    return float(span["ts"]) + float(span["dur"])


def match_requests(
    spans: Sequence[Dict[str, Any]],
    server_pid: int,
    connections: Mapping[str, Tuple[set, Sequence[Exchange]]],
    window: Tuple[float, float],
) -> Dict[str, List[Tuple[Exchange, Dict[str, Any]]]]:
    """Pair each timed request with the server's hub-entry span for it.

    Within one connection requests are served in order, so the k-th timed
    request matches the k-th entry span of that connection; a span's
    monitor tells which connection it belongs to.
    """
    entries = sorted(
        (
            s
            for s in spans
            if s["pid"] == server_pid
            and s["name"] in ("hub.ingest", "hub.observe", "sharded.ingest", "sharded.observe")
            and window[0] <= s["ts"] <= window[1]
        ),
        key=lambda s: s["ts"],
    )
    matched = {}
    for name, (monitors, exchanges) in connections.items():
        mine = [s for s in entries if s["args"]["monitor"] in monitors]
        answered = [e for e in exchanges if e.received is not None]
        if len(mine) != len(answered):
            raise LayerMismatch(
                f"connection {name}: {len(answered)} answered requests but "
                f"{len(mine)} hub-entry spans in the window"
            )
        matched[name] = list(zip(answered, mine))
    return matched


def layer_metrics(
    spans: Sequence[Dict[str, Any]],
    window: Tuple[float, float],
    worker_pids: Sequence[int],
    primary: Sequence[Tuple[Exchange, Dict[str, Any]]],
    scheduled: Iterable[Exchange],
    cpu: Mapping[str, float],
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    A layer that did no work in the window reports zeros.  ``primary`` are
    the requests (with their hub-entry spans) whose path the server split
    describes; ``scheduled`` the requests that had a due time to keep;
    ``cpu`` holds CPU seconds of the window per process role.
    """
    start, stop = window
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if start <= span["ts"] <= stop:
            by_name[span["name"]].append(span)
    out: Dict[str, Tuple[float, str]] = {}

    lags = [e.sent - e.due for e in scheduled]
    out["client.gen_lag_p99_ms"] = (pct(lags, 99) * 1e3, "ms")
    out["client.cpu_s"] = (cpu["client"], "s")

    pre = [span["ts"] - e.sent for e, span in primary]
    post = [e.received - _end(span) for e, span in primary]
    out["server.pre_hub_ms_p50"] = (pct(pre, 50) * 1e3, "ms")
    out["server.pre_hub_ms_p99"] = (pct(pre, 99) * 1e3, "ms")
    out["server.post_hub_ms_p50"] = (pct(post, 50) * 1e3, "ms")
    out["server.cpu_s"] = (cpu["server"], "s")

    hub = by_name["hub.ingest"] + by_name["hub.observe"]
    hub_ids = {s["span_id"] for s in hub}
    busy = sum(s["dur"] for s in hub)
    inner = sum(
        s["dur"]
        for name in ("detector.update_batch", "wal.append_alert", "wal.append_watermark", "wal.commit", "sink.emit")
        for s in by_name[name]
        if s["parent_id"] in hub_ids
    )
    values = sum(s["args"]["n"] for s in hub)
    out["hub.calls"] = (float(len(hub)), "count")
    out["hub.busy_s"] = (busy, "s")
    out["hub.self_s"] = (busy - inner, "s")
    out["hub.eps_ceiling"] = (values / busy if busy > 0 else 0.0, "values/s")

    cells: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0, 0])
    for span in by_name["detector.update_batch"]:
        n = span["args"]["n"]
        cell = cells[(span["args"]["detector"], "chunk1" if n == 1 else "bulk")]
        cell[0] += 1
        cell[1] += span["dur"]
        cell[2] += n
    for cls in DETECTOR_CLASSES:
        for kind in ("chunk1", "bulk"):
            calls, busy_s, n_values = cells.get((cls, kind), (0, 0.0, 0))
            prefix = f"detector.{cls}.{kind}"
            out[f"{prefix}.calls"] = (float(calls), "count")
            out[f"{prefix}.busy_s"] = (busy_s, "s")
            out[f"{prefix}.us_per_value"] = (busy_s / n_values * 1e6 if n_values else 0.0, "us/value")

    commits = by_name["wal.commit"]
    appends = len(by_name["wal.append_alert"]) + len(by_name["wal.append_watermark"])
    out["wal.appends"] = (float(appends), "count")
    out["wal.commits"] = (float(len(commits)), "count")
    out["wal.commit_s"] = (sum(s["dur"] for s in commits), "s")
    out["wal.bytes"] = (float(_wal_bytes(spans, window)), "bytes")

    out["sinks.emits"] = (float(len(by_name["sink.emit"])), "count")
    out["sinks.emit_s"] = (sum(s["dur"] for s in by_name["sink.emit"]), "s")

    parents = by_name["sharded.ingest"] + by_name["sharded.observe"]
    workers = sorted(worker_pids)
    per_shard = {pid: sum(s["dur"] for s in hub if s["pid"] == pid) for pid in workers}
    out["sharded.calls"] = (float(len(parents)), "count")
    out["sharded.busy_s"] = (sum(s["dur"] for s in parents), "s")
    for index in range(N_SHARDS):
        busy_shard = per_shard[workers[index]] if index < len(workers) else 0.0
        out[f"sharded.worker_busy_s.shard-{index:02d}"] = (busy_shard, "s")
    worker_hub = [s for s in hub if s["pid"] in per_shard]
    out["sharded.transport_s"] = (_transport(parents, worker_hub), "s")
    shard_busy = list(per_shard.values())
    mean = sum(shard_busy) / len(shard_busy) if shard_busy else 0.0
    out["sharded.skew"] = (max(shard_busy) / mean if mean > 0 else 0.0, "ratio")
    out["sharded.worker_cpu_s"] = (cpu["workers"], "s")
    return out


def _wal_bytes(spans: Sequence[Dict[str, Any]], window: Tuple[float, float]) -> int:
    """Bytes appended to the WALs in the window, summed over processes."""
    total = 0
    by_pid: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if span["name"] == "wal.commit":
            by_pid[span["pid"]].append(span)
    for commits in by_pid.values():
        commits.sort(key=lambda s: s["ts"])
        before = [s for s in commits if s["ts"] < window[0]]
        inside = [s for s in commits if window[0] <= s["ts"] <= window[1]]
        if inside:
            base = before[-1]["args"]["bytes_written"] if before else 0
            total += inside[-1]["args"]["bytes_written"] - base
    return total


def _transport(parents: Sequence[Dict[str, Any]], worker_hub: Sequence[Dict[str, Any]]) -> float:
    """Σ over parent calls of (parent busy − slowest shard's busy inside it)."""
    worker_hub = sorted(worker_hub, key=lambda s: s["ts"])
    starts = [s["ts"] for s in worker_hub]
    total = 0.0
    for parent in parents:
        lo = int(np.searchsorted(starts, parent["ts"]))
        busiest: Dict[int, float] = defaultdict(float)
        for span in worker_hub[lo:]:
            if span["ts"] > _end(parent):
                break
            if _end(span) <= _end(parent):
                busiest[span["pid"]] += span["dur"]
        total += parent["dur"] - max(busiest.values(), default=0.0)
    return total


def chrome_spans(
    spans: Sequence[Dict[str, Any]],
    matched: Mapping[str, Sequence[Tuple[Exchange, Dict[str, Any]]]],
    window: Tuple[float, float],
    server_pid: int,
    worker_pids: Sequence[int],
) -> List[Dict[str, Any]]:
    """Window spans of client and server, linked into one tree per request.

    Each client request becomes a ``client.request`` span whose request id
    is the trace id of everything the server did for it: the hub-entry span
    hangs under the client span, a shard worker's hub span under the parent
    call that contains it, and deeper spans under their recorded parents.
    """
    labels = {server_pid: "server"}
    labels.update({pid: f"shard-{i:02d}" for i, pid in enumerate(sorted(worker_pids))})
    timed = [dict(s) for s in spans if window[0] <= s["ts"] <= window[1]]
    by_id = {s["span_id"]: s for s in timed}
    out: List[Dict[str, Any]] = []
    for conn, pairs in matched.items():
        for k, (exchange, entry) in enumerate(pairs):
            request_id = f"{conn}{k}"
            client_id = f"client:{request_id}"
            out.append(
                {
                    "name": "client.request",
                    "trace_id": request_id,
                    "span_id": client_id,
                    "parent_id": None,
                    "process": "client",
                    "pid": os.getpid(),
                    "ts": exchange.sent,
                    "dur": exchange.received - exchange.sent,
                    "args": {"connection": conn, "due": exchange.due},
                }
            )
            server_span = by_id.get(entry["span_id"])
            if server_span is not None:
                server_span["parent_id"] = client_id
                server_span["trace_id"] = request_id
    parents = sorted(
        (s for s in timed if s["name"].startswith("sharded.")), key=lambda s: s["ts"]
    )
    starts = [p["ts"] for p in parents]
    for span in timed:
        if span["pid"] != server_pid and span["name"].startswith("hub.") and parents:
            i = int(np.searchsorted(starts, span["ts"], side="right")) - 1
            if i >= 0 and _end(span) <= _end(parents[i]):
                span["parent_id"] = parents[i]["span_id"]
    for span in sorted(timed, key=lambda s: s["ts"]):
        if "trace_id" not in span:
            parent = by_id.get(span["parent_id"]) if span["parent_id"] else None
            span["trace_id"] = parent.get("trace_id", "-") if parent else "-"
        span["process"] = labels.get(span["pid"], str(span["pid"]))
    return out + timed
