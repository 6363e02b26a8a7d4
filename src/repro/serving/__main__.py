"""``python -m repro.serving`` — run the drift-monitoring TCP server.

Example
-------
Start a server that checkpoints every 10 000 observed values and audits
alerts to a JSON-lines file::

    python -m repro.serving --port 7737 \
        --checkpoint-dir ./checkpoints --checkpoint-every 10000 \
        --audit-log ./alerts.jsonl

With ``--shards N`` the ``(tenant, monitor_id)`` keyspace is partitioned
across N worker processes (a :class:`~repro.serving.sharded.ShardedHub`):
each shard checkpoints into its own ``shard-NN/`` directory under
``--checkpoint-dir``, alerts audit to ``<audit-log>.shard-NN`` (one file per
shard), and ``--checkpoint-every`` counts values per shard.

On startup the server resumes every monitor from the checkpoint directory if
a checkpoint exists, prints a ``READY host=... port=...`` line to stdout (use
``--port 0`` for an ephemeral port and parse the line), and on SIGINT/SIGTERM
writes a final checkpoint before exiting.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.httpd import MetricsServer
from repro.obs.journal import EventJournal
from repro.obs.prom import hub_exposition
from repro.obs.trace import Tracer, write_chrome_trace
from repro.serving.hub import MonitorHub
from repro.serving.server import Hub, ServingServer
from repro.serving.sharded import ShardedHub
from repro.serving.sinks import build_sinks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Serve drift monitors over a JSON-lines TCP protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7737, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="partition monitors across N worker processes "
        "(0 = single-process hub)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for hub checkpoints (resumed from on startup); with "
        "--shards, each shard owns a shard-NN/ subdirectory",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint automatically after every N observed values "
        "(per shard when sharded)",
    )
    parser.add_argument(
        "--audit-log",
        default=None,
        metavar="PATH",
        help="append drift/warning alerts to this JSON-lines file "
        "(with --shards: one file per shard, suffixed .shard-NN)",
    )
    parser.add_argument(
        "--wal-dir",
        default=None,
        metavar="PATH",
        help="directory of the durable alert write-ahead log (with --shards: "
        "one shard-NN/ subdirectory per shard); enables crash-safe alert "
        "delivery, the alerts_history op, and replay-after-restore",
    )
    parser.add_argument(
        "--wal-fsync",
        choices=("batch", "always", "off"),
        default="batch",
        help="WAL durability mode: fsync once per ingest flush (batch, "
        "default), per record (always), or never (off)",
    )
    parser.add_argument(
        "--webhook",
        default=None,
        metavar="URL",
        help="POST every alert to this URL (bounded retries with backoff, "
        "circuit breaker; a down endpoint never blocks ingest)",
    )
    parser.add_argument(
        "--webhook-dead-letter",
        default=None,
        metavar="PATH",
        help="JSON-lines file for alerts the webhook could not deliver "
        "(with --shards: one file per shard, suffixed .shard-NN)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --shards: kill a worker that takes longer than this to "
        "reply (a hung worker counts as dead and can be respawned); the "
        "server defaults to 60s so one wedged worker cannot freeze every "
        "connection forever; 0 waits forever",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the Prometheus text exposition on GET /metrics at this "
        "port (0 = ephemeral; a METRICS line on stdout reports the bound "
        "port); sharded clusters merge per-shard series under shard labels",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        metavar="RATE",
        help="sample this fraction of ingest requests into the tracer "
        "(0 disables tracing, 1 traces everything; sharded fan-outs carry "
        "the trace into every worker)",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write drained traces as Chrome trace_event JSON files into "
        "this directory (the 'trace' wire op dumps and clears; a final dump "
        "happens at shutdown) — open them at https://ui.perfetto.dev",
    )
    parser.add_argument(
        "--journal-jsonl",
        default=None,
        metavar="PATH",
        help="mirror the hub's operational event journal (shard respawns, "
        "reshard stages, WAL rotations, slow flushes, ...) to this "
        "JSON-lines file",
    )
    return parser


def build_hub(args: argparse.Namespace) -> Hub:
    """Construct the hub the server fronts (sharded when ``--shards`` > 0).

    Called *before* the event loop starts so shard workers never fork from a
    process that already owns a running loop.
    """
    tracer = Tracer(sample_rate=args.trace_sample, process="hub")
    journal = EventJournal(capacity=512, jsonl_path=args.journal_jsonl)
    if args.shards > 0:
        # Hub ops serialize through the server's single dispatch thread, so
        # an unbounded wait on one hung worker would stall every request
        # behind it; default to a generous timeout (0 opts back into
        # waiting forever).
        timeout = args.request_timeout
        if timeout is None:
            timeout = 60.0
        elif timeout <= 0:
            timeout = None
        return ShardedHub(
            args.shards,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            audit_log=args.audit_log,
            wal_dir=args.wal_dir,
            wal_fsync=args.wal_fsync,
            webhook=args.webhook,
            webhook_dead_letter=args.webhook_dead_letter,
            request_timeout=timeout,
            tracer=tracer,
            journal=journal,
        )
    return MonitorHub(
        checkpoint_dir=args.checkpoint_dir,
        sinks=build_sinks(
            args.audit_log, args.webhook, args.webhook_dead_letter, journal
        ),
        checkpoint_every=args.checkpoint_every,
        wal_dir=args.wal_dir,
        wal_fsync=args.wal_fsync,
        tracer=tracer,
        journal=journal,
    )


async def run(args: argparse.Namespace, hub: Hub) -> int:
    server = ServingServer(hub, host=args.host, port=args.port, trace_dir=args.trace_dir)
    await server.start()

    metrics_server: Optional[MetricsServer] = None
    if args.metrics_port is not None:
        metrics_server = MetricsServer(
            lambda: hub_exposition(hub), host=args.host, port=args.metrics_port
        )
        await metrics_server.start()

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)

    print(
        f"READY host={args.host} port={server.port} "
        f"shards={max(args.shards, 0)} "
        f"monitors={len(hub)} events={hub.n_events}",
        flush=True,
    )
    if metrics_server is not None:
        print(
            f"METRICS host={args.host} port={metrics_server.port}",
            flush=True,
        )
    serve_task = asyncio.ensure_future(server.serve_forever())
    try:
        await stop.wait()
    finally:
        serve_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serve_task
        await server.stop()
        if metrics_server is not None:
            await metrics_server.stop()
        if args.trace_dir:
            # Flush whatever the tracer still holds so a sampled session
            # always leaves at least one loadable dump behind.
            spans = hub.drain_trace()
            if spans:
                final = Path(args.trace_dir) / "trace-final.json"
                print(f"TRACE {write_chrome_trace(final, spans)}", flush=True)
        if args.checkpoint_dir:
            try:
                path = hub.checkpoint()  # repro: allow(async-blocking) -- shutdown path: server.stop() already quiesced the dispatch thread and closed the listener, so no connection is waiting on this loop while the final checkpoint writes
                print(f"CHECKPOINT {path}", flush=True)
            except Exception as exc:  # repro: allow(broad-except) -- shutdown path: the failure is surfaced as CHECKPOINT-FAILED on stderr and the last successful checkpoint is still on disk; crashing here would skip closing healthy shards and sinks
                # A dead worker, a full disk, a corrupt directory — whatever
                # the cause, crashing out of shutdown would also skip
                # closing the healthy shards and the audit sinks.  The last
                # successful checkpoint is still on disk.
                print(f"CHECKPOINT-FAILED {exc}", file=sys.stderr, flush=True)
        hub.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    hub = build_hub(args)
    try:
        return asyncio.run(run(args, hub))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C race
        return 130


if __name__ == "__main__":
    sys.exit(main())
