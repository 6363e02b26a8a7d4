"""CPU speed meters: one idle-priority loop per CPU, for the whole run.

On a shared virtual machine the speed of a CPU moves with the host's load:
the same Python loop ran anywhere from 35,000 to 50,000 blocks per CPU
second within one minute, and a halted vCPU can take milliseconds to wake.
Each meter is a process pinned to one CPU under ``SCHED_IDLE``, so it runs
only when nothing else wants that CPU and gives way at once when the server
or the client wakes up.  It does two things:

* the CPU never idles, so a request that arrives does not wait for the
  hypervisor to wake a halted vCPU;
* it counts blocks of a fixed Python loop against its own CPU time, so the
  benchmark knows how fast each CPU ran while the program was measured.

:meth:`Meters.snapshot` reads every meter's counters; :func:`speed` turns
two snapshots into blocks per CPU second.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing
import os
import time
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from procs import die_with_parent, signals_blocked

#: Loop iterations per counted block.
BLOCK = 1000
#: Blocks between two counter updates.
PUBLISH_EVERY = 16
#: Fewer meter CPU seconds than this in a phase leave its speed unknown.
MIN_SAMPLE_S = 0.1

Snapshot = Dict[int, Tuple[float, float]]  # cpu -> (blocks, meter CPU seconds)


def _counters() -> Any:
    """Two doubles (blocks, meter CPU seconds) in memory shared across fork."""
    return memoryview(mmap.mmap(-1, 16)).cast("d")


def _meter_main(cpu: int, counters: Any, parent: int) -> None:
    # SIGINT and SIGTERM stay blocked (the mask of the fork), so a meter
    # leaves a terminal's Ctrl-C to the benchmark; it dies with the
    # benchmark however that ends.
    die_with_parent()
    if os.getppid() != parent:
        return
    os.sched_setaffinity(0, {cpu})
    with contextlib.suppress(OSError, AttributeError):
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    blocks = 0
    while True:
        for _ in range(PUBLISH_EVERY):
            for _ in range(BLOCK):
                pass
        blocks += PUBLISH_EVERY
        counters[0] = blocks
        counters[1] = time.thread_time()


class Meters:
    """One meter per CPU of this process; a context manager that stops them.

    Leaving the block terminates and reaps every meter, whatever the reason.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._context = multiprocessing.get_context("fork")
        self._counters = {cpu: _counters() for cpu in self.cpus}
        self._procs: List[multiprocessing.process.BaseProcess] = []

    def __enter__(self) -> "Meters":
        """Start the meters, with SIGINT/SIGTERM held until all are owned."""
        try:
            with signals_blocked():
                for cpu in self.cpus:
                    proc = self._context.Process(
                        target=_meter_main, args=(cpu, self._counters[cpu], os.getpid()), daemon=True
                    )
                    self._procs.append(proc)
                    proc.start()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stop(self) -> None:
        for proc in self._procs:
            with contextlib.suppress(OSError, ValueError, AttributeError):
                proc.kill()
        for proc in self._procs:
            with contextlib.suppress(OSError, ValueError, AssertionError):
                proc.join()

    def snapshot(self) -> Snapshot:
        return {cpu: (c[0], c[1]) for cpu, c in self._counters.items()}


def per_cpu(before: Snapshot, after: Snapshot) -> Dict[int, float]:
    """Blocks per meter CPU second of each CPU whose meter ran long enough."""
    speeds = {}
    for cpu in before:
        seconds = after[cpu][1] - before[cpu][1]
        if seconds >= MIN_SAMPLE_S:
            speeds[cpu] = (after[cpu][0] - before[cpu][0]) / seconds
    return speeds


def speed(before: Snapshot, after: Snapshot, weights: Mapping[int, float]) -> float:
    """Blocks per meter CPU second between two snapshots.

    Each CPU's speed counts in proportion to ``weights`` (CPU seconds the
    measured processes spent there); a CPU whose meter barely ran in the
    phase is left out.  Returns 0.0 if no CPU has a usable speed.
    """
    speeds = per_cpu(before, after)
    total = weighted = 0.0
    for cpu, weight in weights.items():
        if weight > 0 and cpu in speeds:
            weighted += weight * speeds[cpu]
            total += weight
    return weighted / total if total else 0.0


def even(cpus: Sequence[int]) -> Dict[int, float]:
    """Equal weight on every CPU (for phases where nothing is pinned)."""
    return {cpu: 1.0 for cpu in cpus}
