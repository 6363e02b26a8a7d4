"""Serving benchmark: a client in another process, on the JSON-lines wire.

Run from the repository root::

    python3 perfbench/run.py --workload bulk-ingest --seed 1 --seconds 30 --trace 0

Each run generates its inputs from ``--seed``.  Three times over, it starts
a fresh ``python -m repro.serving`` in a session of its own, registers and
warms up the fleet, drives a timed window of a third of ``--seconds`` from
this process (one thread, at most two connections), stops the server, and
checks the drift positions the server returned against fresh detectors fed
the same values through the scalar ``update()``.  Human-readable lines go
first; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, pooled over the three
launches, each time-based one scaled to a reference CPU speed by the speed
the CPU meters (``meters.py``) saw while it was measured.
``--trace 1`` makes one plain launch and one with the server started
through ``traced_server.py``, and reports the per-layer metrics,
``trace.overhead.*`` (traced ÷ plain) and a Chrome trace under
``.perfbench-out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


import layers
import meters
import wire
from layers import pct
from meters import Meters
from procs import ServerProcess, become_subreaper, cpu_seconds, peak_rss_mb, pin, tighten_timer_slack
from workloads import (
    CLOSED_FORM_MIX,
    FULL_MIX,
    WARMUP_ROUNDS,
    CheckFailed,
    Ingest,
    Inputs,
    SEGMENT,
    Ledger,
    fleet,
    groups_of,
    ingest_plan,
    reference_subset,
    register_requests,
)

WORKLOADS = ("bulk-ingest", "mixed-sharded")
#: Gate metrics of ``--trace 0``, in BENCHMARK.json order, with units.
END_TO_END = {
    "setup_s": "s",
    "values_per_s": "values/s",
    "latency_mean_ms": "ms",
    "latency_tail_ms": "ms",
    "rss_mb": "MiB",
}
OUT_DIR = ".perfbench-out"
#: Servers launched per ``--trace 0`` run, one after another, each timed
#: for a third of ``--seconds``; the gate metrics pool them, so neither one
#: server process nor one stretch of a busy host sets a run's figures.
LAUNCHES = 3
#: ``latency_tail_ms`` is this percentile: a run answers 300-450 of the
#: requests it times, so the p90 has 30 or more beyond it and a p99 three.
TAIL_PERCENTILE = 90
#: Seconds a request may stay unanswered before it counts as timed out.
REQUEST_TIMEOUT = 60.0
#: Meter blocks per CPU second that the gates are scaled to (see
#: ``meters.py``); about what an unloaded CPU of a 2-vCPU VM runs.
REFERENCE_SPEED = 40_000.0


class Interrupted(KeyboardInterrupt):
    """SIGTERM delivered to the benchmark."""


def _on_sigterm(signum: int, frame: Any) -> None:
    raise Interrupted()


@dataclass
class Window:
    """What one timed window sent and got back, per connection."""

    start: float
    end: float
    plans: Dict[str, List[Any]]
    exchanges: Dict[str, List[wire.Exchange]]


@dataclass
class Measured:
    """One launch's numbers: set-up, window, resources, correctness."""

    setup_s: float
    window: Window
    ledger: Ledger
    cpu: Dict[str, float]
    rss_mb: float
    server_pid: int
    worker_pids: List[int]
    #: Meter speed (blocks per CPU second) during set-up and the window.
    setup_speed: float = 0.0
    window_speed: float = 0.0
    cpu_speeds: Dict[int, float] = field(default_factory=dict)
    spans: Optional[List[Dict[str, Any]]] = None


# ------------------------------------------------------------------ workloads


class Workload:
    """Fleet, server options and traffic of one named workload."""

    name = ""
    shards = 0

    def __init__(self, seed: int, seconds: float, scale: float) -> None:
        self.seconds = seconds

    def server_args(self, scratch: Path) -> List[str]:
        args = ["--port", "0"]
        if self.shards:
            args += ["--shards", str(self.shards), "--wal-dir", str(scratch / "wal"), "--wal-fsync", "batch"]
        return args

    def warmup_plan(self) -> List[Ingest]:
        """Round 0 for every monitor, then rounds up to the timed ones for OPTWIN.

        One round takes every detector past its first-use set-up; OPTWIN
        grows its cut tables lazily up to ``w_max`` and needs them all.
        """
        everyone = groups_of([m.index for m in self.monitors], 100)
        lazy = groups_of([m.index for m in self.monitors if m.detector == "Optwin"], 100)
        return ingest_plan(everyone, range(1)) + ingest_plan(lazy, range(1, WARMUP_ROUNDS))

    def prepare(self) -> None:
        """Encode every request the run can send, before any server starts."""
        raise NotImplementedError

    def run_window(self, conns: Dict[str, Any]) -> Window:
        raise NotImplementedError

    def summary(self, window: Window) -> Dict[str, Tuple[float, str]]:
        """The workload's user-facing numbers: ``name -> (value, unit)``."""
        raise NotImplementedError

    def primary(self, window: Window) -> Dict[str, List[int]]:
        """Per connection, the requests whose latency the gate reports.

        The layer split of the traced run describes the same requests.
        """
        raise NotImplementedError

    def reference_monitors(self) -> List[int]:
        return reference_subset(self.monitors)


def _scaled(n: int, scale: float, minimum: int) -> int:
    return max(minimum, int(round(n * scale)))


def _latency_ms(exchanges: Sequence[wire.Exchange]) -> List[float]:
    return [e.latency * 1e3 for e in exchanges if e.received is not None]


def _acked_values(window: Window, conn: str) -> int:
    """Values of the ``ingest`` requests on ``conn`` that were answered."""
    return sum(
        len(item.group) * SEGMENT
        for item, exchange in zip(window.plans[conn], window.exchanges[conn])
        if exchange.received is not None
    )


class BulkIngest(Workload):
    """Closed loop, one connection, ingest of 100 monitors × 1,024 values."""

    name = "bulk-ingest"

    def __init__(self, seed: int, seconds: float, scale: float) -> None:
        super().__init__(seed, seconds, scale)
        self.monitors = fleet(_scaled(1000, scale, 10), 20, CLOSED_FORM_MIX)
        self.inputs = Inputs(seed, self.monitors, (0.10, 0.55))
        self.groups = groups_of([m.index for m in self.monitors], 100)

    def _plan(self) -> Iterator[Ingest]:
        return (Ingest(r, g) for r in itertools.count(WARMUP_ROUNDS) for g in self.groups)

    def prepare(self) -> None:
        for item in itertools.islice(self._plan(), 8 * len(self.groups)):
            self.inputs.encode(item)
        for item in self.warmup_plan():
            self.inputs.encode(item)

    def run_window(self, conns: Dict[str, Any]) -> Window:
        start = time.monotonic()
        plan = self._plan()
        sent: List[Ingest] = []

        def payloads() -> Any:
            for item in plan:
                sent.append(item)
                yield self.inputs.encode(item)

        exchanges = wire.closed_loop(conns["A"], payloads(), start + self.seconds, REQUEST_TIMEOUT)
        end = exchanges[-1].received if exchanges else time.monotonic()
        return Window(start, end, {"A": sent[: len(exchanges)]}, {"A": exchanges})

    def summary(self, window: Window) -> Dict[str, Tuple[float, str]]:
        latencies = _latency_ms(window.exchanges["A"])
        return {
            "ingest_eps": (_acked_values(window, "A") / (window.end - window.start), "values/s"),
            "ingest_p50_ms": (pct(latencies, 50), "ms"),
            "ingest_p90_ms": (pct(latencies, 90), "ms"),
            "ingest_requests": (float(len(latencies)), "count"),
        }

    def primary(self, window: Window) -> Dict[str, List[int]]:
        return {"A": list(range(len(window.exchanges["A"])))}


class MixedSharded(Workload):
    """Two shards + WAL; closed-loop bulk ingest on A, closed-loop observes on B.

    A sends ``ingest`` requests of 50 monitors × 1,024 values to 900
    monitors of the closed-form mix; B sends single-value ``observe``
    requests to 100 other monitors that cycle all ten detectors.  The
    server answers each connection's requests in order on one dispatch
    thread, and A always has an ingest waiting, so each observe queues
    behind one ingest: its latency is an ingest's service time plus its
    own.  Open-loop schedules made this workload unsteady.  With ingests at
    5/s (later 4/s) and observes at 200/s (later 100/s) the dispatch thread
    was busy a share of the time that moved with the host's speed, and when
    the host slowed queues built: the observe p50 read 7, 53 and 12 ms in
    three runs of the same code.  Observes at 100/s against closed-loop
    ingests fell behind by one ingest per observe, and their p50 read 2.4 s.
    """

    name = "mixed-sharded"
    shards = 2
    #: Upper bounds on each connection's request rate, for sizing its plan.
    MAX_INGEST_RATE = 80.0
    MAX_OBSERVE_RATE = 200.0

    def __init__(self, seed: int, seconds: float, scale: float) -> None:
        super().__init__(seed, seconds, scale)
        split = _scaled(900, scale, 10)
        self.monitors = fleet(split, 20, CLOSED_FORM_MIX) + fleet(_scaled(100, scale, 10), 20, FULL_MIX, split)
        self.inputs = Inputs(seed, self.monitors, (0.10, 0.55))
        self.a_monitors = [m.index for m in self.monitors[:split]]
        self.b_monitors = [m.index for m in self.monitors[split:]]
        groups = groups_of(self.a_monitors, 50)
        n_a = int(self.MAX_INGEST_RATE * seconds) + 1
        n_b = int(self.MAX_OBSERVE_RATE * seconds) + 1
        rounds = WARMUP_ROUNDS + (n_a + len(groups) - 1) // len(groups)
        self.a_plan = ingest_plan(groups, range(WARMUP_ROUNDS, rounds))[:n_a]
        self.b_plan = self.inputs.observes(self.b_monitors, n_b)
        self.a_payloads: List[bytes] = []
        self.b_payloads: List[bytes] = []

    def prepare(self) -> None:
        for item in self.warmup_plan():
            self.inputs.encode(item)
        self.a_payloads = [self.inputs.encode(i) for i in self.a_plan]
        self.b_payloads = [self.inputs.encode(i) for i in self.b_plan]

    def run_window(self, conns: Dict[str, Any]) -> Window:
        start = time.monotonic() + 0.05
        a = wire.Stream(conns["A"], self.a_payloads, start=start, stop_at=start + self.seconds)
        b = wire.Stream(conns["B"], self.b_payloads, start=start, stop_at=start + self.seconds)
        wire.open_loop([a, b], REQUEST_TIMEOUT)
        received = [e.received for e in a.exchanges + b.exchanges if e.received is not None]
        end = max(received, default=time.monotonic())
        return Window(
            start,
            end,
            {"A": self.a_plan[: len(a.exchanges)], "B": self.b_plan[: len(b.exchanges)]},
            {"A": a.exchanges, "B": b.exchanges},
        )

    def summary(self, window: Window) -> Dict[str, Tuple[float, str]]:
        ingest = _latency_ms(window.exchanges["A"])
        observe = _latency_ms(window.exchanges["B"])
        answered = [e.received for e in window.exchanges["A"] if e.received is not None]
        span = (answered[-1] if answered else window.end) - window.start
        return {
            "ingest_eps": (_acked_values(window, "A") / span, "values/s"),
            "ingest_p50_ms": (pct(ingest, 50), "ms"),
            "ingest_p90_ms": (pct(ingest, 90), "ms"),
            "ingest_requests": (float(len(ingest)), "count"),
            "observe_p50_ms": (pct(observe, 50), "ms"),
            "observe_p90_ms": (pct(observe, 90), "ms"),
            "observe_requests": (float(len(observe)), "count"),
        }

    def primary(self, window: Window) -> Dict[str, List[int]]:
        return {"B": list(range(len(window.exchanges["B"])))}

    def reference_monitors(self) -> List[int]:
        return reference_subset([self.monitors[i] for i in self.a_monitors]) + reference_subset(
            [self.monitors[i] for i in self.b_monitors]
        )


WORKLOAD_CLASSES: Dict[str, Callable[[int, float, float], Workload]] = {
    "bulk-ingest": BulkIngest,
    "mixed-sharded": MixedSharded,
}


# -------------------------------------------------------------------- running


def _server_argv(workload: Workload, scratch: Path, traced: bool) -> List[str]:
    args = workload.server_args(scratch)
    if traced:
        launcher = Path(__file__).resolve().parent / "traced_server.py"
        return [sys.executable, str(launcher), str(scratch / "spans")] + args
    return [sys.executable, "-m", "repro.serving"] + args


def _server_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _shard_workers(server: ServerProcess, expected: int) -> List[int]:
    """The server's shard workers (its children that are not helpers)."""
    workers = []
    for pid in server.processes()[1:]:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline:
            workers.append(pid)
    if len(workers) != expected:
        raise RuntimeError(f"expected {expected} shard workers, found {workers}")
    return workers


@dataclass
class Tally:
    """Operations attempted and failed over a whole run."""

    attempted: int = 0
    failed: int = 0

    def add(self, ledger: Ledger, plan: Sequence[Any], exchanges: Sequence[wire.Exchange]) -> None:
        """Account one connection's plan against the answers it got.

        A request never sent or never answered, or answered with an error,
        is a failed operation.
        """
        self.attempted += len(plan)
        self.failed += len(plan) - len(exchanges)
        for item, exchange in zip(plan, exchanges):
            response = exchange.response() if exchange.received is not None else None
            if not ledger.record(item, response):
                self.failed += 1


def placement(server_pid: int, workers: Sequence[int]) -> Dict[int, int]:
    """``pid -> cpu`` for the window: client first, server last, workers spread.

    The client runs on the first CPU, the server process with all its
    threads on the last, and shard workers one per CPU.  Left to the
    scheduler, the single-process server answered observe bursts at 850 to
    2,200 req/s over five runs; split this way, at 3,000-4,900 over twenty.
    Two shard workers that shared a core for a whole run moved the sharded
    workload's latencies by 15 %.
    """
    cpus = sorted(os.sched_getaffinity(0))
    where = {os.getpid(): cpus[0], server_pid: cpus[-1]}
    for index, pid in enumerate(workers):
        where[pid] = cpus[index % len(cpus)]
    return where


@contextlib.contextmanager
def placed(where: Dict[int, int]) -> Iterator[None]:
    """Pin the processes as :func:`placement` says, for the window only.

    The client gets its CPUs back afterwards, so servers it starts later
    are not confined.
    """
    own = os.sched_getaffinity(0)
    for pid, cpu in where.items():
        if pid != os.getpid():
            pin(pid, cpu)
    os.sched_setaffinity(0, {where[os.getpid()]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, own)


def launch(
    root: Path,
    workload: Workload,
    traced: bool,
    tally: Tally,
    meter: Meters,
    log: Callable[[str], None],
) -> Measured:
    """Start a server, set it up, run the window, tear it down.

    The server is stopped before this returns or raises, whatever happens.
    """
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=root / OUT_DIR))
    ledger = Ledger(workload.inputs)
    try:
        t_launch = time.monotonic()
        setup_meter = meter.snapshot()
        with ServerProcess(_server_argv(workload, scratch, traced), _server_env(root), str(root)) as server:
            log(f"server pid={server.pid} session={server.sid} traced={int(traced)}")
            conns = {"A": wire.connect(server.wait_ready())}
            if workload.shards:
                conns["B"] = wire.connect(server.port)
            try:
                registers = register_requests(workload.monitors)
                replies = wire.pipeline(conns["A"], registers, REQUEST_TIMEOUT)
                tally.attempted += len(registers)
                tally.failed += sum(1 for r in replies if not json.loads(r).get("ok"))
                warmup = workload.warmup_plan()
                payloads = [workload.inputs.encode(i) for i in warmup]
                tally.add(ledger, warmup, wire.closed_loop(conns["A"], payloads, None, REQUEST_TIMEOUT))
                setup_s = time.monotonic() - t_launch
                setup_speed = meters.speed(setup_meter, meter.snapshot(), meters.even(meter.cpus))
                workers = _shard_workers(server, workload.shards)
                where = placement(server.pid, workers)
                pids = [server.pid] + workers
                before = [cpu_seconds(p) for p in pids] + [time.process_time()]
                # The generator must not pause for its own garbage
                # collection inside the window: collect and freeze
                # what exists, collect nothing until the window ends.
                gc.collect()
                gc.freeze()
                gc.disable()
                try:
                    with placed(where):
                        window_meter = meter.snapshot()
                        window = workload.run_window(conns)
                        window_end_meter = meter.snapshot()
                finally:
                    gc.enable()
                    gc.unfreeze()
                if server.proc.poll() is not None:
                    # Whatever it answered, the window did not run whole.
                    raise RuntimeError(f"server exited during the window (code {server.proc.returncode})")
                after = [cpu_seconds(p) for p in pids] + [time.process_time()]
                rss = sum(peak_rss_mb(p) for p in pids)
                deltas = [b - a for a, b in zip(before, after)]
                cpu = {"server": deltas[0], "workers": sum(deltas[1:-1]), "client": deltas[-1]}
                # Each CPU's speed counts as much as the work done on it.
                weights: Dict[int, float] = defaultdict(float)
                for pid, used in zip(pids + [os.getpid()], deltas):
                    weights[where[pid]] += used
                window_speed = meters.speed(window_meter, window_end_meter, weights)
                cpu_speeds = meters.per_cpu(window_meter, window_end_meter)
            finally:
                for sock in conns.values():
                    sock.close()
        for conn, plan in window.plans.items():
            tally.add(ledger, plan, window.exchanges[conn])
        spans = None
        if traced:
            spans = layers.load_spans(scratch / "spans")
            missing = sorted(set(workers) - {s["pid"] for s in spans})
            if missing:
                raise RuntimeError(f"no spans arrived from shard workers {missing}")
        return Measured(
            setup_s, window, ledger, cpu, rss, server.pid, workers, setup_speed, window_speed, cpu_speeds, spans
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _check(workload: Workload, measured: Measured, log: Callable[[str], None]) -> None:
    """Drifts must occur where the inputs drift, and match the reference."""
    ledger = measured.ledger
    if ledger.n_drifts_reported == 0:
        raise CheckFailed(f"{workload.name}: the server reported no drift")
    started = time.monotonic()
    checked = ledger.verify(workload.reference_monitors())
    log(
        f"reference: {checked} monitors match scalar update() "
        f"({time.monotonic() - started:.1f}s); {ledger.n_drifts_reported} drifts reported"
    )


def at_reference(value: float, speed: float, faster_is_higher: bool) -> float:
    """``value`` as measured at ``speed``, scaled to :data:`REFERENCE_SPEED`.

    A rate scales with the CPU's speed and a duration inversely, so a
    rate is multiplied by ``REFERENCE_SPEED / speed`` and a duration by its
    inverse.  Without a measured speed the value is returned as it is.
    """
    if speed <= 0:
        return value
    ratio = REFERENCE_SPEED / speed
    return value * ratio if faster_is_higher else value / ratio


def _gate_samples(workload: Workload, measured: Measured) -> Tuple[float, List[float]]:
    """One launch's gate rate and gate latencies (ms), as measured."""
    window = measured.window
    latencies = [
        window.exchanges[conn][i].latency * 1e3
        for conn, indices in workload.primary(window).items()
        for i in indices
        if window.exchanges[conn][i].received is not None
    ]
    return workload.summary(window)["ingest_eps"][0], latencies


def _gates(workload: Workload, launches: Sequence[Measured], scale: bool) -> Dict[str, float]:
    """The gate metrics of a run, pooled over its launches.

    ``values_per_s`` is the mean of the launches' rates; ``latency_mean_ms``
    and the ``latency_tail_ms`` percentile are taken over all the launches'
    requests together; ``setup_s`` and ``rss_mb`` are medians.  With
    ``scale``, each launch's figures are first scaled to the reference
    speed by the speed the meters saw in the phase they were measured in:
    the set-up for ``setup_s``, the window for the rest.
    """
    rates, latencies, setups = [], [], []
    for measured in launches:
        rate, launch_latencies = _gate_samples(workload, measured)
        speed = measured.window_speed if scale else 0.0
        rates.append(at_reference(rate, speed, True))
        latencies.extend(at_reference(ms, speed, False) for ms in launch_latencies)
        setups.append(at_reference(measured.setup_s, measured.setup_speed if scale else 0.0, False))
    return {
        "setup_s": statistics.median(setups),
        "values_per_s": statistics.fmean(rates),
        "latency_mean_ms": statistics.fmean(latencies) if latencies else 0.0,
        "latency_tail_ms": pct(latencies, TAIL_PERCENTILE),
        "rss_mb": statistics.median(m.rss_mb for m in launches),
    }


def _report(title: str, workload: Workload, launches: Sequence[Measured], tally: Tally) -> Dict[str, float]:
    """Print each launch's numbers; return the gate metrics (see :func:`_gates`).

    Every line tagged ``launch<k>.`` is as measured in launch ``k``; the
    gates computed from the figures as measured are printed as
    ``<metric>.as_measured``.
    """
    for k, measured in enumerate(launches):
        summary = workload.summary(measured.window)
        lags = [e.sent - e.due for ex in measured.window.exchanges.values() for e in ex]
        summary["client.gen_lag_p99_ms"] = (pct(lags, 99) * 1e3, "ms")
        summary["cpu_speed.setup"] = (measured.setup_speed, "blocks/s")
        summary["cpu_speed.window"] = (measured.window_speed, "blocks/s")
        for cpu, value in sorted(measured.cpu_speeds.items()):
            summary[f"cpu_speed.window.cpu{cpu}"] = (value, "blocks/s")
        for name, (value, unit) in summary.items():
            print(f"{title} launch{k}.{name} {value:.6g} {unit}", flush=True)
        lag = summary["client.gen_lag_p99_ms"][0]
        for name in ("observe_p50_ms", "ingest_p50_ms"):
            if name in summary and lag > 0.25 * summary[name][0]:
                print(f"{title} FLAG launch{k} generator lag p99 {lag:.3f} ms is not well under {name}", flush=True)
                break
    print(f"{title} failed_frac {tally.failed / max(tally.attempted, 1):.6g} ratio", flush=True)
    for name, value in _gates(workload, launches, scale=False).items():
        print(f"{title} {name}.as_measured {value:.6g} {END_TO_END[name]}", flush=True)
    gate = _gates(workload, launches, scale=True)
    for name, unit in END_TO_END.items():
        print(f"{title} {name} {gate[name]:.6g} {unit}", flush=True)
    return gate


def run(
    args: argparse.Namespace, root: Path, tally: Tally, meter: Meters, log: Callable[[str], None]
) -> Dict[str, Any]:
    """One benchmark run; returns the metrics of the result line."""
    workload = WORKLOAD_CLASSES[args.workload](args.seed, float(args.seconds) / LAUNCHES, args.scale)
    (root / OUT_DIR).mkdir(exist_ok=True)
    workload.prepare()
    # The traced mode compares one plain launch with one traced launch.
    plain = []
    for _ in range(1 if args.trace else LAUNCHES):
        plain.append(launch(root, workload, False, tally, meter, log))
        _check(workload, plain[-1], log)
    gate = _report(workload.name, workload, plain, tally)
    if not args.trace:
        return {name: {"value": gate[name], "unit": unit} for name, unit in END_TO_END.items()}
    traced = launch(root, workload, True, tally, meter, log)
    _check(workload, traced, log)
    traced_gate = _report(workload.name + " traced", workload, [traced], tally)
    out = _per_layer(root, args.seed, workload, traced)
    for name in END_TO_END:
        out[f"trace.overhead.{name}"] = (traced_gate[name] / gate[name], "ratio")
    for name, (value, unit) in out.items():
        print(f"{workload.name} {name} {value:.6g} {unit}", flush=True)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def _per_layer(root: Path, seed: int, workload: Workload, traced: Measured) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced window, plus its Chrome trace."""
    from repro.obs.trace import write_chrome_trace

    window = traced.window
    assert traced.spans is not None
    bounds = (min(e.sent for ex in window.exchanges.values() for e in ex), window.end)
    connections = {}
    for conn, plan in window.plans.items():
        monitors = {
            workload.monitors[m].key
            for item in plan
            for m in (item.group if isinstance(item, Ingest) else (item.monitor,))
        }
        connections[conn] = (monitors, window.exchanges[conn])
    matched = layers.match_requests(traced.spans, traced.server_pid, connections, bounds)
    primary = [
        matched[conn][i] for conn, indices in workload.primary(window).items() for i in indices
    ]
    exchanges = [e for ex in window.exchanges.values() for e in ex]
    out = layers.layer_metrics(traced.spans, bounds, traced.worker_pids, primary, exchanges, traced.cpu)
    chrome = layers.chrome_spans(traced.spans, matched, bounds, traced.server_pid, traced.worker_pids)
    path = write_chrome_trace(root / OUT_DIR / f"{workload.name}-seed{seed}.trace.json", chrome)
    print(f"{workload.name} chrome trace {path.relative_to(root)} ({len(chrome)} spans)", flush=True)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds, split over the launches")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="fleet size factor (tests use < 1)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "serving" / "__main__.py").is_file():
        print("perfbench: run from the repository root (src/repro/serving not found)", file=sys.stderr)
        return 2

    def log(message: str) -> None:
        print(f"[perfbench] {message}", file=sys.stderr, flush=True)

    sys.path.insert(0, str(root / "src"))
    signal.signal(signal.SIGTERM, _on_sigterm)
    become_subreaper()
    tighten_timer_slack()
    tally = Tally()
    try:
        with Meters() as meter:
            metrics = run(args, root, tally, meter, log)
    except CheckFailed as exc:
        log(f"CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1), "failed": tally.failed, "metrics": {}}))
        return 1
    except Interrupted:
        log("terminated; every server process was stopped")
        return 143
    except KeyboardInterrupt:
        log("interrupted; every server process was stopped")
        return 130
    except (OSError, RuntimeError, AssertionError) as exc:
        log(f"run failed: {type(exc).__name__}: {exc}")
        return 1
    print(json.dumps({"correct": True, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
