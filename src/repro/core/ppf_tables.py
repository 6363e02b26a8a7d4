"""Per-window-length cut tables (Section 3.4 of the OPTWIN paper).

The optimal split ``nu`` and the F/t thresholds depend only on the window
length, the robustness ``rho`` and the per-test confidences — never on the
data.  The paper therefore pre-computes them once and stores them in lists
indexed by ``|W|``.

:class:`CutTable` is that store for one configuration: five arrays indexed by
the window length, filled in length order up to the longest window asked for
so far, each length's search starting from the previous length's split.  The
scalar and the batched OPTWIN paths read the same arrays.  Tables are shared
process-wide through :func:`get_cut_table`, so thirty repetitions of an
experiment (or many detector instances inside a pipeline) fill them once.

A detector used as a library grows its table lazily, in process, as its
window grows.  The serving hubs instead fill a table to the detector's
``w_max`` when its first monitor enters, with :func:`build_in_child`: the
build runs in an ``os.fork`` child, which alone imports :mod:`scipy.special`
for the PPFs, and hands the five arrays back through a pipe.  A
:class:`~repro.serving.sharded.ShardedHub` builds once in its own process
and passes the result to its workers as a :data:`TableImage`.
"""

from __future__ import annotations

import os
import signal
import struct
import sys
import threading
from typing import Dict, NoReturn, Optional, Tuple

import numpy as np

from repro.core.optimal_cut import SplitSpec, optimal_split
from repro.exceptions import ConfigurationError, ReproError
from repro.stats.distributions import f_ppf, t_ppf

__all__ = ["CutTable", "TableImage", "build_in_child", "get_cut_table"]

#: Shortest window :func:`optimal_split` accepts; shorter entries stay zero.
_MIN_LENGTH = 4
_ARRAYS = ("n_hist", "f_critical", "t_critical", "f_warning", "t_warning")

#: A table's entries built elsewhere: ``(max_length, hint, data)``, where
#: ``data`` is the bytes of the five arrays up to ``max_length``, in
#: ``_ARRAYS`` order, and ``hint`` the split growth continues from.
TableImage = Tuple[int, Optional[int], bytes]


class CutTable:
    """Split size and F/t thresholds of one configuration, indexed by ``|W|``.

    Parameters
    ----------
    rho:
        Robustness parameter.
    confidence:
        Per-test confidence ``delta'`` of the drift tests.
    warning_confidence:
        Per-test confidence of the warning tests, or ``None`` when warnings
        are off (the warning arrays then stay zero).

    Attributes
    ----------
    max_length:
        Longest window length filled so far.  Entries up to it never change,
        so a reader may index them without the lock.
    n_hist:
        ``int64``; ``n_hist[L]`` is the historical sub-window size at
        ``|W| = L``.
    f_critical, t_critical:
        ``float64`` drift thresholds of that split.
    f_warning, t_warning:
        ``float64`` warning thresholds of that split.
    """

    def __init__(
        self, rho: float, confidence: float, warning_confidence: Optional[float]
    ) -> None:
        self.rho = rho
        self.confidence = confidence
        self.warning_confidence = warning_confidence
        self.max_length = _MIN_LENGTH - 1
        self.n_hist = np.zeros(_MIN_LENGTH, dtype=np.int64)
        self.f_critical = np.zeros(_MIN_LENGTH)
        self.t_critical = np.zeros(_MIN_LENGTH)
        self.f_warning = np.zeros(_MIN_LENGTH)
        self.t_warning = np.zeros(_MIN_LENGTH)
        #: The split at ``max_length`` when it was solved: the next length's
        #: search starts there.
        self._hint: Optional[int] = None
        self._lock = threading.Lock()

    def grow(self, max_length: int) -> None:
        """Fill the table for every window length up to ``max_length``."""
        _check_length(max_length)
        if max_length <= self.max_length:
            return
        with self._lock:
            start = self.max_length + 1
            if max_length < start:
                return
            if max_length >= self.n_hist.shape[0]:
                # Double the capacity, so a window growing one element at a
                # time copies each entry a bounded number of times.
                size = max(max_length + 1, 2 * self.n_hist.shape[0])
                for name in _ARRAYS:
                    grown = np.zeros(size, dtype=getattr(self, name).dtype)
                    grown[:start] = getattr(self, name)[:start]
                    setattr(self, name, grown)
            warning_confidence = self.warning_confidence
            hint = self._hint
            for length in range(start, max_length + 1):
                spec = self.split(length, hint)
                self.n_hist[length] = spec.nu_split
                self.f_critical[length] = spec.f_critical
                self.t_critical[length] = spec.t_critical
                if warning_confidence is not None:
                    self.f_warning[length] = f_ppf(
                        warning_confidence, spec.n_new - 1, spec.n_hist - 1
                    )
                    self.t_warning[length] = t_ppf(
                        warning_confidence, spec.degrees_of_freedom
                    )
                hint = spec.nu_split if spec.solved else None
            self._hint = hint
            self.max_length = max_length

    def split(self, length: int, hint: Optional[int] = None) -> SplitSpec:
        """The split at ``length`` (``hint``: the solved split at ``length - 1``)."""
        return optimal_split(length, self.rho, self.confidence, hint=hint)

    def image(self) -> TableImage:
        """This table's entries, for :meth:`adopt` in another process."""
        with self._lock:
            count = self.max_length + 1
            data = b"".join(getattr(self, name)[:count].tobytes() for name in _ARRAYS)
            return self.max_length, self._hint, data

    def adopt(self, image: TableImage) -> None:
        """Take the entries of an :meth:`image` that reaches further than this table."""
        with self._lock:
            if image[0] > self.max_length:
                self._install(image)

    def _install(self, image: TableImage) -> None:
        # The caller holds the lock.  The arrays are read-only views of the
        # image's bytes; growing past them allocates new ones.  Every entry
        # equals this table's own, so lock-free readers see no change.
        max_length, hint, data = image
        count = max_length + 1
        offset = 0
        for name in _ARRAYS:
            dtype = getattr(self, name).dtype
            setattr(self, name, np.frombuffer(data, dtype, count, offset))
            offset += count * dtype.itemsize
        self._hint = hint
        self.max_length = max_length


def _check_length(max_length: int) -> None:
    if max_length < _MIN_LENGTH:
        raise ConfigurationError(
            f"window length must be >= {_MIN_LENGTH}, got {max_length}"
        )


_TABLES: Dict[Tuple[float, float, Optional[float]], CutTable] = {}


def get_cut_table(
    rho: float, confidence: float, warning_confidence: Optional[float]
) -> CutTable:
    """Return the process-wide :class:`CutTable` of this configuration."""
    key = (rho, confidence, warning_confidence)
    table = _TABLES.get(key)
    if table is None:
        # setdefault is atomic, so racing callers share the first table.
        table = _TABLES.setdefault(key, CutTable(rho, confidence, warning_confidence))
    return table


# ------------------------------------------------------ build in a child

#: Frame header of a child's reply: the data's byte count (negative: the
#: length of an error message instead) and the hint (-1: none).
_HEADER = struct.Struct("<qq")


def build_in_child(table: CutTable, max_length: int) -> None:
    """Fill ``table`` to ``max_length``, building the entries in a forked child.

    The child builds a fresh table of the same class with :meth:`CutTable.
    grow`, writes its image to a pipe and exits; this process reads the
    image, reaps the child and installs the entries before returning, so no
    process outlives the call and only the child imports
    :mod:`scipy.special`.  The table's lock is held throughout: a second
    caller waits for this build instead of starting another.  Every entry
    equals an in-process build.  Where ``os.fork`` does not exist the table
    grows in process.

    Raises :class:`~repro.exceptions.ReproError` when the child fails or
    dies (the table is then unchanged).
    """
    _check_length(max_length)
    if max_length <= table.max_length:
        return
    if not hasattr(os, "fork"):
        table.grow(max_length)
        return
    with table._lock:
        if max_length > table.max_length:
            table._install(_image_from_child(table, max_length))


def _image_from_child(table: CutTable, max_length: int) -> TableImage:
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            _child_main(table, max_length, write_fd)
        finally:
            os._exit(1)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as stream:
            header = stream.read(_HEADER.size)
            # A child that died before its header leaves a short read.
            size, hint = (0, -1)
            if len(header) == _HEADER.size:
                size, hint = _HEADER.unpack(header)
            data = stream.read(abs(size))
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    expected = (max_length + 1) * 8 * len(_ARRAYS)
    if status == 0 and size == expected and len(data) == expected:
        return max_length, None if hint < 0 else hint, data
    if size < 0:
        reason = data.decode("utf-8", "replace")
    elif os.WIFSIGNALED(status):
        reason = f"killed by signal {os.WTERMSIG(status)}"
    else:
        reason = f"exited with status {os.waitstatus_to_exitcode(status)}"
    raise ReproError(
        f"building the cut table of rho={table.rho} to length {max_length} "
        f"failed in the child process: {reason}"
    )


def _child_main(table: CutTable, max_length: int, write_fd: int) -> NoReturn:
    """Build a fresh copy of ``table`` and write its image to ``write_fd``.

    Runs in the forked child and never returns.  It never touches the
    parent's table, whose lock the parent holds across the fork, and writes
    nothing but its pipe: handlers and the wakeup fd inherited from the
    parent (an event loop's, say) go back to the defaults first, and
    ``sys.stdout``/``sys.stderr`` and file descriptors 1 and 2 are
    silenced, so nothing the build prints (a library's warning, say)
    reaches a stream the parent's supervisor reads.
    """
    code = 1
    try:
        signal.set_wakeup_fd(-1)
        for signum in signal.valid_signals():
            if signal.getsignal(signum) not in (signal.SIG_DFL, None):
                signal.signal(signum, signal.SIG_DFL)
        sys.stdout = sys.stderr = open(os.devnull, "w")
        os.dup2(sys.stdout.fileno(), 1)
        os.dup2(sys.stdout.fileno(), 2)
        fresh = type(table)(table.rho, table.confidence, table.warning_confidence)
        fresh.grow(max_length)
        _, hint, data = fresh.image()
        frame = _HEADER.pack(len(data), -1 if hint is None else hint) + data
        code = 0
    except BaseException as exc:  # repro: allow(broad-except) -- the forked build child reports every failure to its parent through the pipe and exits; the parent raises it as a ReproError
        message = f"{type(exc).__name__}: {exc}".encode("utf-8", "replace")
        frame = _HEADER.pack(-len(message), -1) + message
    try:
        view = memoryview(frame)
        while view:
            view = view[os.write(write_fd, view) :]
    finally:
        os._exit(code)
