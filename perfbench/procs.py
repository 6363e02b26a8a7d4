"""Process control for the benchmark.

The server under test runs in a session of its own.  Teardown is owned here
and runs on every exit path: SIGTERM with a bounded wait (the server's
graceful shutdown), then SIGKILL to the whole process group regardless, then
reaping.  A sharded server's forked workers keep the parent's pipe ends open,
so a server that dies hard leaves them running; the benchmark therefore makes
itself a child subreaper, adopts such orphans, kills them with the group and
reaps them, and fails loudly if anything of the session is still alive.

CPU seconds and peak RSS of every process are read from ``/proc`` from the
outside; nothing inside the server is asked.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import select
import signal
import subprocess
import time
from typing import Dict, Iterator, List, Optional, Sequence

_PR_SET_PDEATHSIG = 1
_PR_SET_TIMERSLACK = 29
_PR_SET_CHILD_SUBREAPER = 36
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ProcessLeftRunning(RuntimeError):
    """A process of the server's session survived teardown."""


def _prctl(option: int, value: int) -> bool:
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl(option, value, 0, 0, 0) == 0


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``)."""
    return _prctl(_PR_SET_CHILD_SUBREAPER, 1)


def die_with_parent() -> bool:
    """Have the kernel SIGKILL this process when its parent exits."""
    return _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def tighten_timer_slack() -> bool:
    """Wake from ``select`` timeouts within 1 ns instead of the default 50 us."""
    return _prctl(_PR_SET_TIMERSLACK, 1)


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` from ``state`` onwards, or None."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    return raw[raw.rindex(")") + 2 :].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process (0.0 once it is gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of one process in MiB."""
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def pin(pid: int, cpu: int) -> None:
    """Restrict every thread of ``pid`` (and threads it starts later) to ``cpu``.

    Best effort: where affinity cannot be set the process keeps running
    wherever the scheduler puts it.
    """
    with contextlib.suppress(OSError):
        for tid in os.listdir(f"/proc/{pid}/task"):
            os.sched_setaffinity(int(tid), {cpu})


def _all_pids() -> Iterator[int]:
    for name in os.listdir("/proc"):
        if name.isdigit():
            yield int(name)


def children(pid: int) -> List[int]:
    """Live direct children of ``pid``, in pid order."""
    found = []
    for candidate in _all_pids():
        fields = _stat_fields(candidate)
        if fields and fields[0] != "Z" and int(fields[1]) == pid:
            found.append(candidate)
    return sorted(found)


def session_members(sid: int) -> Dict[int, str]:
    """``pid -> state`` of every process whose session id is ``sid``."""
    members = {}
    for candidate in _all_pids():
        fields = _stat_fields(candidate)
        if fields and int(fields[3]) == sid:
            members[candidate] = fields[0]
    return members


def reap_orphans() -> None:
    """Reap adopted children that have exited, without blocking."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


_HELD = {signal.SIGINT, signal.SIGTERM}


@contextlib.contextmanager
def signals_blocked() -> Iterator[None]:
    """Hold SIGINT/SIGTERM back so a signal cannot cut start or teardown short."""
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _release_signals() -> None:
    """Run in the server before exec: a blocked mask would survive the exec."""
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _HELD)


class ServerProcess:
    """One server under test, in its own session, torn down by :meth:`stop`.

    Use as a context manager: leaving the block stops the server whatever
    the reason — a normal end, a failed check, a client timeout, or an
    interrupt delivered to the benchmark.
    """

    def __init__(
        self,
        argv: Sequence[str],
        env: Dict[str, str],
        cwd: str,
        ready_timeout: float = 60.0,
    ) -> None:
        self._argv = list(argv)
        self._env = env
        self._cwd = cwd
        self._ready_timeout = ready_timeout
        self.proc: Optional["subprocess.Popen[bytes]"] = None
        self.port: Optional[int] = None

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    @property
    def sid(self) -> int:
        """The server's session (and process group) id: its own pid."""
        return self.pid

    def __enter__(self) -> "ServerProcess":
        """Start the server.

        The server is started with SIGINT/SIGTERM held back, so an interrupt
        cannot land between the fork and ``self.proc`` being set; one that
        arrived meanwhile is raised when they are released, still inside the
        ``try`` that stops the server.
        """
        try:
            with signals_blocked():
                self.proc = subprocess.Popen(
                    self._argv,
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.PIPE,
                    env=self._env,
                    cwd=self._cwd,
                    start_new_session=True,
                    preexec_fn=_release_signals,
                )
        except BaseException:
            if self.proc is not None:
                self.stop()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def wait_ready(self) -> int:
        """Block until the server prints ``READY ... port=N``; return N."""
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + self._ready_timeout
        pending = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"server gave no READY line in {self._ready_timeout}s")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"server exited before READY (code {self.proc.poll()})"
                )
            pending += chunk
            for line in pending.split(b"\n")[:-1]:
                if line.startswith(b"READY "):
                    fields = dict(
                        item.split("=", 1)
                        for item in line.decode().split()[1:]
                        if "=" in item
                    )
                    self.port = int(fields["port"])
                    return self.port

    def processes(self) -> List[int]:
        """The server's pid followed by its live children (shard workers)."""
        return [self.pid] + children(self.pid)

    def stop(self, grace: float = 20.0, settle: float = 10.0) -> None:
        """SIGTERM, bounded wait, SIGKILL the group regardless, reap, verify.

        Raises :class:`ProcessLeftRunning` when a process of the session is
        still alive ``settle`` seconds after the group kill.  An interrupt
        that lands before the signals are blocked is held until teardown
        has finished, then re-raised.
        """
        interrupt: Optional[KeyboardInterrupt] = None
        while True:
            try:
                self._stop(grace, settle)
                break
            except KeyboardInterrupt as exc:
                interrupt = exc
        if interrupt is not None:
            raise interrupt

    def _stop(self, grace: float, settle: float) -> None:
        assert self.proc is not None
        with signals_blocked():
            if self.proc.poll() is None:
                with contextlib.suppress(ProcessLookupError):
                    self.proc.send_signal(signal.SIGTERM)
                with contextlib.suppress(subprocess.TimeoutExpired):
                    self.proc.wait(timeout=grace)
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(self.sid, signal.SIGKILL)
            self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            deadline = time.monotonic() + settle
            while True:
                reap_orphans()
                alive = {
                    pid: state
                    for pid, state in session_members(self.sid).items()
                    if state != "Z"
                }
                if not alive:
                    return
                if time.monotonic() > deadline:
                    raise ProcessLeftRunning(
                        f"session {self.sid} still has live processes after "
                        f"SIGKILL: {sorted(alive)}"
                    )
                for pid in alive:
                    with contextlib.suppress(ProcessLookupError, PermissionError):
                        os.kill(pid, signal.SIGKILL)
                time.sleep(0.05)
