"""The load generator: one thread, JSON-lines over TCP, at most two sockets.

Requests are encoded before a loop starts.  Inside a loop the client only
writes pre-encoded bytes, splits what it reads on newlines and stamps each
line with ``time.monotonic``; responses are parsed after the loop ends, so
the generator's own cost stays out of the latencies it measures.
"""

from __future__ import annotations

import json
import select
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Bytes per ``recv`` call.
_RECV_BYTES = 1 << 20
#: Longest ``select`` sleep of the open loop (it re-checks its deadline).
_IDLE_WAIT = 0.05


class ConnectionDropped(RuntimeError):
    """The server closed a connection with requests still outstanding."""


def connect(port: int, timeout: float = 10.0) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


@dataclass
class Exchange:
    """Timestamps of one request/response pair (``time.monotonic`` seconds).

    ``due`` is when the request was scheduled to go out, ``sent`` when its
    first byte went to the kernel, ``received`` when its response line was
    read (``None`` if it never came back).
    """

    due: float
    sent: float
    received: Optional[float] = None
    line: bytes = b""

    @property
    def latency(self) -> float:
        """Seconds from the due time to the response (open-loop latency)."""
        assert self.received is not None
        return self.received - self.due

    def response(self) -> Dict[str, Any]:
        return json.loads(self.line)


class _Lines:
    """Newline splitter over a socket's byte stream."""

    def __init__(self) -> None:
        self._pending = b""

    def feed(self, data: bytes) -> List[bytes]:
        self._pending += data
        if b"\n" not in data:
            return []
        *lines, self._pending = self._pending.split(b"\n")
        return lines


def pipeline(sock: socket.socket, payloads: Sequence[bytes], timeout: float) -> List[bytes]:
    """Send every request at once, then read one response line per request."""
    sock.settimeout(timeout)
    sock.sendall(b"".join(payloads))
    lines = _Lines()
    replies: List[bytes] = []
    while len(replies) < len(payloads):
        data = sock.recv(_RECV_BYTES)
        if not data:
            raise ConnectionDropped(
                f"connection closed after {len(replies)}/{len(payloads)} replies"
            )
        replies.extend(lines.feed(data))
    return replies


def closed_loop(
    sock: socket.socket,
    payloads: Iterable[bytes],
    stop_at: Optional[float],
    timeout: float,
) -> List[Exchange]:
    """Send requests one after another, each when the previous one returned.

    Goes through ``payloads`` in order and stops early once ``stop_at``
    (a monotonic time) has passed.  A request is due when the previous
    response arrived, so ``sent - due`` is the generator's own lag.
    """
    sock.settimeout(timeout)
    lines = _Lines()
    exchanges: List[Exchange] = []
    due = time.monotonic()
    for payload in payloads:
        if stop_at is not None and due >= stop_at:
            break
        sent = time.monotonic()
        sock.sendall(payload)
        got: List[bytes] = []
        while not got:
            data = sock.recv(_RECV_BYTES)
            if not data:
                raise ConnectionDropped(
                    f"connection closed after {len(exchanges)} replies"
                )
            got = lines.feed(data)
        received = time.monotonic()
        exchanges.append(Exchange(due, sent, received, got[0]))
        due = received
    return exchanges


@dataclass
class Stream:
    """One connection's traffic for :func:`open_loop`.

    With ``dues``, request ``i`` is due at ``dues[i]`` (an open loop).
    Without, the stream is a closed loop: the first request is due at
    ``start``, each later one when the previous response arrives, and none
    is due at or after ``stop_at``.
    """

    sock: socket.socket
    payloads: Sequence[bytes]
    dues: Optional[Sequence[float]] = None
    start: float = 0.0
    stop_at: float = 0.0
    exchanges: List[Exchange] = field(default_factory=list)
    dropped: bool = False
    _next: int = 0
    _out: memoryview = field(default_factory=lambda: memoryview(b""))
    _n_received: int = 0
    _lines: _Lines = field(default_factory=_Lines)

    def _outstanding(self) -> int:
        return len(self.exchanges) - self._n_received

    def _send_due(self, now: float) -> None:
        while True:
            due = self._next_due()
            if due is None or due > now:
                return
            self.exchanges.append(Exchange(due, now))
            self._out = memoryview(self.payloads[self._next])
            self._next += 1
            self._flush()
            now = time.monotonic()

    def _flush(self) -> None:
        try:
            n = self.sock.send(self._out)
        except BlockingIOError:
            return
        self._out = self._out[n:]

    def _read(self) -> None:
        try:
            data = self.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        now = time.monotonic()
        if not data:
            self.dropped = True
            return
        for line in self._lines.feed(data):
            if self._n_received < len(self.exchanges):
                exchange = self.exchanges[self._n_received]
                exchange.received = now
                exchange.line = line
                self._n_received += 1

    def _next_due(self) -> Optional[float]:
        if self._out or self._next >= len(self.payloads):
            return None
        if self.dues is not None:
            return self.dues[self._next]
        if self._outstanding():
            return None
        due = self.exchanges[-1].received if self.exchanges else self.start
        assert due is not None
        return due if due < self.stop_at else None

    def _last_due(self) -> float:
        if self.dues is not None:
            return self.dues[-1] if self.dues else 0.0
        return self.stop_at

    def _busy(self) -> bool:
        if self.dropped:
            return False
        return self._next_due() is not None or bool(self._out) or self._outstanding() > 0


def open_loop(streams: Sequence[Stream], drain_timeout: float) -> None:
    """Run every stream's schedule on one thread until all responses are in.

    Requests go out at their due times whatever the server's state; a
    request whose due time passes while the previous one is still being
    written goes out right after it (the generator's lag, ``sent - due``).
    A closed-loop stream's request is due when its previous response was
    read.
    Gives up ``drain_timeout`` seconds after the last due time; requests
    still unanswered then stay with ``received=None`` (timeouts).
    """
    for stream in streams:
        stream.sock.setblocking(False)
    last_due = max((s._last_due() for s in streams), default=time.monotonic())
    give_up = last_due + drain_timeout
    try:
        while True:
            now = time.monotonic()
            for stream in streams:
                if not stream.dropped:
                    stream._send_due(now)
            active = [s for s in streams if s._busy()]
            if not active or now > give_up:
                return
            dues = [d for d in (s._next_due() for s in active) if d is not None]
            wait = max(0.0, min(dues) - time.monotonic()) if dues else _IDLE_WAIT
            readers = [s.sock for s in active if s._outstanding() > 0]
            writers = [s.sock for s in active if s._out]
            readable, writable, _ = select.select(readers, writers, [], min(wait, _IDLE_WAIT))
            for stream in active:
                if stream.sock in writable:
                    stream._flush()
                if stream.sock in readable:
                    stream._read()
    finally:
        for stream in streams:
            stream.sock.setblocking(True)
