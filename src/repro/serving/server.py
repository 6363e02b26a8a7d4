"""Asyncio JSON-lines TCP server exposing a :class:`MonitorHub` (or a
multi-process :class:`~repro.serving.sharded.ShardedHub`).

External processes stream error values to hosted monitors over a plain TCP
connection, one JSON object per line (newline-delimited JSON, UTF-8).  Every
request carries an ``"op"`` field; every response carries ``"ok"`` plus
op-specific payload, and errors come back as ``{"ok": false, "error": ...}``
without killing the connection.

Requests are decoded with ``orjson`` (strict RFC 8259): a line that is not
UTF-8, nests deeper than :data:`MAX_NESTING` levels, or holds ``NaN``,
``Infinity`` or a number that overflows float64 is answered with
``invalid JSON: ...`` and reaches no monitor.  Responses are encoded with
the standard ``json`` module, which keeps writing non-finite floats in
``metrics`` answers as ``NaN``/``Infinity``.

Supported operations::

    {"op": "ping"}
    {"op": "register", "tenant": "t", "monitor": "m",
     "detector": "OPTWIN", "params": {"rho": 0.5}, "exist_ok": true}
    {"op": "observe", "tenant": "t", "monitor": "m", "values": [0, 1, 0]}
    {"op": "ingest", "events": [["t", "m", [0, 1]], ["t", "m2", 1.0]]}
    {"op": "stats"}                      # hub-wide
    {"op": "stats", "tenant": "t"}       # per tenant
    {"op": "stats", "tenant": "t", "monitor": "m"}
    {"op": "alerts"}                     # drain buffered alerts
    {"op": "alerts_history", "tenant": "t", "monitor": "m",
     "since": 1e9, "until": 2e9, "limit": 100}   # WAL-backed, all optional
    {"op": "metrics"}                    # rates, latency percentiles, WAL/sinks
    {"op": "metrics_prom"}               # Prometheus text exposition
    {"op": "trace"}                      # drain spans as Chrome trace JSON
    {"op": "events", "kind": "slow_flush", "limit": 100}   # journal, all optional
    {"op": "snapshot"}                   # checkpoint the hub now

``observe`` responds with lifetime stream positions (``drifts`` /
``warnings``) and the monitor's counters, so a client can react to a drift
from the response alone; the ``alerts`` op additionally drains the hub's
alert buffer for clients that poll transitions out of band.

Hub operations run on a dedicated single-thread executor rather than inline
on the event loop: the WAL fsyncs and checkpoint writes inside ``observe`` /
``ingest`` are blocking I/O that would stall every other connection, the
metrics endpoint, and the signal handlers.  The single worker thread keeps
the old serialisation guarantee — all detector mutations still execute one
at a time, in submission order, without locks — and each connection awaits
its dispatch before reading the next line, so per-connection response
ordering and the WAL's exactly-once append order are unchanged.  Throughput
comes from batching (send chunks, not single values) — ``perfbench/``
measures it over the wire.
"""

from __future__ import annotations

import asyncio
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np
import orjson

from repro.exceptions import ReproError
from repro.obs.prom import hub_exposition
from repro.obs.trace import chrome_trace, write_chrome_trace
from repro.serving.hub import MonitorHub
from repro.serving.sharded import ShardedHub

__all__ = ["ServingServer", "Hub", "MAX_LINE_BYTES", "MAX_NESTING"]

logger = logging.getLogger(__name__)

#: Upper bound of one request line (protects the loop from unbounded reads);
#: 16 MiB fits chunks of ~1M values.
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Deepest ``[``/``{`` nesting a request line may have, counting brackets
#: outside string literals.  ``orjson`` before 3.9.15 recurses once per
#: level on the dispatch thread's stack with no limit of its own (an 8 MiB
#: stack overflows between 100,000 and 150,000 levels), so a deeper line is
#: refused before decoding.  Later releases stop at 1,024 levels themselves;
#: staying below that leaves this guard the one that answers at the limit,
#: whichever release is installed.
MAX_NESTING = 512

#: Every byte except the four brackets and the double quote
#: (``bytes.translate`` deletes them).
_NON_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"')))

#: The hubs a server can front.  Both answer every call the server makes
#: with the same return shapes, so the server never tells them apart.
Hub = Union[MonitorHub, ShardedHub]


class ServingServer:
    """JSON-lines TCP front-end over a hub.

    Parameters
    ----------
    hub:
        The hub to serve — a single-process :class:`MonitorHub` or a
        multi-process :class:`~repro.serving.sharded.ShardedHub`.
    host, port:
        Listen address.  Port ``0`` binds an ephemeral port; read the actual
        one from :attr:`port` after :meth:`start`.
    trace_dir:
        When set, every ``trace`` op also writes the drained spans to a
        numbered Chrome ``trace_event`` JSON file in this directory
        (``trace-0001.json``, ...) — drop it on https://ui.perfetto.dev.
    """

    def __init__(
        self,
        hub: Hub,
        host: str = "127.0.0.1",
        port: int = 7737,
        trace_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self._hub = hub
        self._host = host
        self._requested_port = port
        self._trace_dir = Path(trace_dir) if trace_dir else None
        self._n_trace_dumps = 0
        self._server: Optional[asyncio.AbstractServer] = None
        # Dispatch offload: one worker thread, created on start().  A single
        # worker is load-bearing — it serialises all hub mutations (the
        # no-locks invariant the hub relies on) while keeping the event loop
        # free of the WAL fsync / checkpoint writes inside hub ops.
        self._dispatch_executor: Optional[ThreadPoolExecutor] = None

    @property
    def hub(self) -> Hub:
        """The hub this server fronts."""
        return self._hub

    @property
    def port(self) -> int:
        """The bound port (the requested one until :meth:`start` runs)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._requested_port

    async def start(self) -> None:
        """Bind the listening socket and start accepting connections."""
        if self._dispatch_executor is None:
            self._dispatch_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serving-dispatch"
            )
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self._host,
            port=self._requested_port,
            limit=MAX_LINE_BYTES,
        )

    async def stop(self) -> None:
        """Stop accepting connections and quiesce the dispatch thread.

        After this returns, no hub operation is in flight and none can
        start (late submissions from a still-open connection fail and
        close that connection) — which is what lets the shutdown path
        checkpoint and close the hub from the event-loop thread without
        racing the dispatch thread.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatch_executor is not None:
            executor, self._dispatch_executor = self._dispatch_executor, None
            # shutdown(wait=True) drains the queued dispatches; run it on a
            # throwaway default-executor thread so the wait does not block
            # the loop that must keep serving those dispatches' responses.
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, executor.shutdown)

    async def serve_forever(self) -> None:
        """Run until cancelled (call :meth:`start` first)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------ connection

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        logger.debug("client connected: %s", peer)
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(_encode({"ok": False, "error": "request too large"}))
                    await writer.drain()
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                executor = self._dispatch_executor
                if executor is None:
                    break  # server stopped while this connection was idle
                try:
                    response = await loop.run_in_executor(
                        executor, self._dispatch_line, stripped
                    )
                except RuntimeError:
                    # stop() shut the executor between the check above and
                    # the submission; the hub is quiescing — drop the line.
                    break
                writer.write(_encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancelled the handler mid-read; close the
            # connection quietly instead of surfacing the cancellation to
            # asyncio's connection-lost callback.
            pass
        finally:
            # close() without awaiting wait_closed(): the transport finishes
            # closing on the loop, and the handler task never parks inside a
            # close wait where event-loop teardown would cancel it noisily.
            writer.close()
            logger.debug("client disconnected: %s", peer)

    def _dispatch_line(self, line: bytes) -> Dict[str, Any]:
        if _nests_too_deep(line):
            return {
                "ok": False,
                "error": f"invalid JSON: nesting deeper than {MAX_NESTING} levels",
            }
        try:
            request = orjson.loads(line)
        except orjson.JSONDecodeError as exc:
            return {"ok": False, "error": f"invalid JSON: {exc.msg}"}
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        try:
            return self._dispatch(request)
        except ReproError as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive  # repro: allow(broad-except) -- the failure is surfaced to the caller as an error response (and logged with traceback); a request handler that re-raised would kill the connection for every other pipelined request
            logger.exception("unexpected error serving request")
            return {"ok": False, "error": f"internal error: {exc}"}

    # -------------------------------------------------------------- dispatch

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "register":
            return self._op_register(request)
        if op == "observe":
            return self._op_observe(request)
        if op == "ingest":
            return self._op_ingest(request)
        if op == "stats":
            return {
                "ok": True,
                "stats": self._hub.stats(
                    request.get("tenant"), request.get("monitor")
                ),
            }
        if op == "alerts":
            alerts, n_dropped = self._hub.drain_alerts()
            return {
                "ok": True,
                "alerts": [alert.to_dict() for alert in alerts],
                "n_dropped": n_dropped,
            }
        if op == "alerts_history":
            return {
                "ok": True,
                "alerts": self._hub.alerts_history(
                    tenant=request.get("tenant"),
                    monitor_id=request.get("monitor"),
                    since=request.get("since"),
                    until=request.get("until"),
                    limit=_as_limit(request.get("limit", 1000)),
                ),
            }
        if op == "metrics":
            return {"ok": True, "metrics": self._hub.metrics()}
        if op == "metrics_prom":
            return {"ok": True, "exposition": hub_exposition(self._hub)}
        if op == "trace":
            return self._op_trace()
        if op == "events":
            limit = request.get("limit")
            return {
                "ok": True,
                "events": self._hub.journal_events(
                    limit=None if limit is None else _as_limit(limit),
                    kind=request.get("kind"),
                ),
            }
        if op == "snapshot":
            path = self._hub.checkpoint()
            return {"ok": True, "checkpoint": str(path)}
        if op == "reshard":
            return self._op_reshard(request)
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _op_trace(self) -> Dict[str, Any]:
        """Drain all finished spans as a Chrome ``trace_event`` document.

        On a sharded hub the drain covers the parent and every live worker,
        so one response holds the whole fan-out.  Destructive (the rings
        clear); with a ``trace_dir`` the document is also written to a
        numbered file for offline Perfetto sessions.
        """
        spans = self._hub.drain_trace()
        document = chrome_trace(spans)
        path: Optional[str] = None
        if self._trace_dir is not None and spans:
            self._n_trace_dumps += 1
            target = self._trace_dir / f"trace-{self._n_trace_dumps:04d}.json"
            path = str(write_chrome_trace(target, spans))
        return {
            "ok": True,
            "n_spans": len(spans),
            "trace": document,
            "path": path,
        }

    def _op_reshard(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Live-migrate a sharded hub to a new worker count.

        The reshard runs on the single dispatch thread (like every other
        hub op): no ingest can interleave with the migration, which is
        exactly the quiesce the protocol needs.  A single-process hub
        refuses with a ``ConfigurationError`` (an ``ok: false`` response).
        """
        shards = request.get("shards")
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            return {"ok": False, "error": "reshard needs 'shards': a positive integer"}
        return {"ok": True, **self._hub.reshard(shards)}

    def _op_register(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant, monitor = _identity(request)
        registered = self._hub.register(
            tenant,
            monitor,
            detector=request.get("detector", "OPTWIN"),
            params=request.get("params"),
            exist_ok=bool(request.get("exist_ok", False)),
        )
        return {
            "ok": True,
            "tenant": tenant,
            "monitor": monitor,
            "detector": registered["detector"],
            "n_seen": registered["n_seen"],
        }

    def _op_ingest(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Interleaved multi-monitor batch — one request, one hub flush.

        On a sharded hub this is the op that actually buys multi-core
        parallelism over the wire: the hub fans the batch out as one message
        per shard and the workers flush concurrently, where per-monitor
        ``observe`` requests serialize on the event loop.
        """
        events = _op_ingest_events(request.get("events"))
        span = self._hub.tracer.begin("server.ingest", n_events=len(events))
        try:
            results = self._hub.ingest(
                events,
                trace_ctx=span.context() if span is not None else None,
            )
        finally:
            if span is not None:
                span.end()
        return {
            "ok": True,
            "results": [
                {
                    "tenant": outcome.tenant,
                    "monitor": outcome.monitor_id,
                    "n": outcome.n_processed,
                    "drifts": outcome.drift_positions,
                    "warnings": outcome.warning_positions,
                }
                for outcome in results
            ],
        }

    def _op_observe(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant, monitor = _identity(request)
        values = request.get("values")
        if not isinstance(values, list) or not values:
            return {"ok": False, "error": "observe needs a non-empty values list"}
        outcome, stats = self._hub.observe_with_stats(tenant, monitor, values)
        return {
            "ok": True,
            "tenant": tenant,
            "monitor": monitor,
            "n": outcome.n_processed,
            "drifts": outcome.drift_positions,
            "warnings": outcome.warning_positions,
            "counters": {
                "n_seen": stats["n_seen"],
                "n_drifts": stats["n_drifts"],
                "n_warnings": stats["n_warnings"],
            },
        }


def _nests_too_deep(line: bytes) -> bool:
    """Whether ``[``/``{`` brackets outside string literals in ``line`` nest
    deeper than :data:`MAX_NESTING`.

    Escape pairs are dropped first (so an escaped quote does not end a
    string), then everything but brackets and quotes.  A line with few
    opening brackets is answered there; otherwise the pieces between quotes
    that lie inside strings are cut out before the depth is summed.  Up to
    its first syntax error — as far as the decoder ever recurses — a line is
    valid JSON, so this finds exactly the brackets the decoder nests on.
    """
    if b"\\" in line:
        line = line.replace(b"\\\\", b"").replace(b'\\"', b"")
    structure = line.translate(None, _NON_STRUCTURE)
    if structure.count(b"[") + structure.count(b"{") <= MAX_NESTING:
        return False
    brackets = b"".join(structure.split(b'"')[::2])
    # '[' and '{' have bit 1 set, ']' and '}' do not: a +1/-1 step each.
    steps = (np.frombuffer(brackets, dtype=np.uint8) & 2).view(np.int8) - 1
    return int(np.cumsum(steps, dtype=np.int32).max()) > MAX_NESTING


def _op_ingest_events(raw: Any) -> list:
    if not isinstance(raw, list) or not raw:
        raise ReproError("ingest needs a non-empty events list")
    events = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 3:
            raise ReproError(
                "each ingest event must be a [tenant, monitor, values] triple"
            )
        events.append((str(item[0]), str(item[1]), item[2]))
    return events


def _as_limit(limit: Any) -> int:
    """A request's ``limit`` as an int; anything else is an error response."""
    try:
        return int(limit)
    except (TypeError, ValueError):
        raise ReproError(f"limit must be an integer, got {limit!r}") from None


def _identity(request: Dict[str, Any]) -> tuple:
    tenant = request.get("tenant")
    monitor = request.get("monitor")
    if not tenant or not monitor:
        raise ReproError("request needs both 'tenant' and 'monitor' fields")
    return str(tenant), str(monitor)


def _encode(response: Dict[str, Any]) -> bytes:
    return (json.dumps(response, separators=(",", ":")) + "\n").encode("utf-8")
