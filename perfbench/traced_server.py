"""Run ``python -m repro.serving`` with timing wrappers around each layer.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_server.py SPANS_DIR [server arguments ...]

Before the server's ``main`` runs, the public calls of every layer are
wrapped so that each call records one span — name, start, end, parent span
and a few arguments — with ``time.monotonic`` (``CLOCK_MONOTONIC``, one epoch
for the benchmark client and every server process):

* ``MonitorHub.ingest`` / ``observe_with_stats``            → ``hub.*``
* ``update_batch`` of every exported detector class,
  outermost call only (subclasses delegate through ``super()``) → ``detector.update_batch``
* ``AlertWal.append_alert`` / ``append_watermark`` / ``commit`` → ``wal.*``
* ``emit`` of every alert sink class                        → ``sink.emit``
* ``ShardedHub.ingest`` / ``observe_with_stats``            → ``sharded.*``

Spans stay in memory and are written to ``SPANS_DIR/spans-<pid>.json`` when
the process ends.  Shard workers inherit the wrappers through ``fork`` and
write theirs from the wrapped ``MonitorHub.close``, which a worker calls
when it is told to stop.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, Optional[int], Dict[str, Any]]


class SpanRecorder:
    """Per-process in-memory span store plus the wrappers that fill it."""

    def __init__(self, directory: str) -> None:
        self.directory = Path(directory)
        self.spans: List[Span] = []
        self._seq = 0
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        # A forked worker starts with its own, empty record.
        self.spans = []
        self._seq = 0
        self._local = threading.local()

    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.in_detector = False
        return local

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        describe: Callable[[Any, tuple, Any], Dict[str, Any]],
        detector: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper."""
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(obj: Any, *args: Any, **kwargs: Any) -> Any:
            state = recorder._state()
            if detector and state.in_detector:
                return original(obj, *args, **kwargs)
            recorder._seq += 1
            span_id = recorder._seq
            parent = state.stack[-1] if state.stack else None
            state.stack.append(span_id)
            if detector:
                state.in_detector = True
            result: Any = None
            start = time.monotonic()
            try:
                result = original(obj, *args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                state.stack.pop()
                if detector:
                    state.in_detector = False
                recorder.spans.append(
                    (name, start, end, span_id, parent, describe(obj, args, result))
                )

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from repro.core.base import DriftDetector
        from repro.detectors import exported_detector_classes
        from repro.serving.hub import MonitorHub
        from repro.serving.sharded import ShardedHub
        from repro.serving.sinks import AlertSink
        from repro.serving.wal import AlertWal

        def events_info(_obj: Any, args: tuple, result: Any) -> Dict[str, Any]:
            events = args[0] if args else ()
            first = events[0] if events else ("", "", None)
            values = sum(o.n_processed for o in result) if result else 0
            return {"monitor": f"{first[0]}/{first[1]}", "n": values}

        def observe_info(_obj: Any, args: tuple, result: Any) -> Dict[str, Any]:
            values = result[0].n_processed if result else 0
            return {"monitor": f"{args[0]}/{args[1]}", "n": values}

        def detector_info(obj: Any, _args: tuple, result: Any) -> Dict[str, Any]:
            return {
                "detector": type(obj).__name__,
                "n": result.n_processed if result is not None else 0,
            }

        def commit_info(obj: AlertWal, _args: tuple, _result: Any) -> Dict[str, Any]:
            return {"bytes_written": obj.stats()["bytes_written"]}

        def no_info(_obj: Any, _args: tuple, _result: Any) -> Dict[str, Any]:
            return {}

        def sink_info(obj: Any, _args: tuple, _result: Any) -> Dict[str, Any]:
            return {"sink": type(obj).__name__}

        self.wrap(MonitorHub, "ingest", "hub.ingest", events_info)
        self.wrap(MonitorHub, "observe_with_stats", "hub.observe", observe_info)
        self.wrap(ShardedHub, "ingest", "sharded.ingest", events_info)
        self.wrap(ShardedHub, "observe_with_stats", "sharded.observe", observe_info)
        for cls in (DriftDetector,) + tuple(exported_detector_classes()):
            if "update_batch" in cls.__dict__:
                self.wrap(cls, "update_batch", "detector.update_batch", detector_info, detector=True)
        self.wrap(AlertWal, "append_alert", "wal.append_alert", no_info)
        self.wrap(AlertWal, "append_watermark", "wal.append_watermark", no_info)
        self.wrap(AlertWal, "commit", "wal.commit", commit_info)
        for sink_cls in AlertSink.__subclasses__():
            if "emit" in sink_cls.__dict__:
                self.wrap(sink_cls, "emit", "sink.emit", sink_info)

        close = MonitorHub.close

        @functools.wraps(close)
        def close_and_flush(hub: MonitorHub) -> None:
            close(hub)
            self.flush()

        MonitorHub.close = close_and_flush  # type: ignore[method-assign]

    def flush(self) -> None:
        """Write this process's spans (all of them, replacing older dumps)."""
        pid = os.getpid()
        document = [
            {
                "name": name,
                "span_id": f"{pid}:{span_id}",
                "parent_id": f"{pid}:{parent}" if parent is not None else None,
                "pid": pid,
                "ts": start,
                "dur": end - start,
                "args": args,
            }
            for name, start, end, span_id, parent, args in self.spans
        ]
        self.directory.mkdir(parents=True, exist_ok=True)
        target = self.directory / f"spans-{pid}.json"
        scratch = target.with_suffix(".tmp")
        scratch.write_text(json.dumps(document), encoding="utf-8")
        os.replace(scratch, target)


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: traced_server.py SPANS_DIR [server arguments ...]", file=sys.stderr)
        return 2
    recorder = SpanRecorder(argv[0])
    recorder.install()
    from repro.serving.__main__ import main as serve

    try:
        return serve(argv[1:])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
