"""Building OPTWIN's cut tables in a forked child (:func:`build_in_child`).

The hubs fill a configuration's table to ``w_max`` in an ``os.fork`` child
when its first monitor enters, so a serving process never imports scipy.
These tests pin its contract: bit-equal entries, one build per table
however many threads ask, no process left behind, failures raised (never
swallowed), a child that writes nothing but its pipe, and the in-process
fallback where ``os.fork`` does not exist.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro import Optwin
from repro.core import ppf_tables
from repro.core.ppf_tables import CutTable, build_in_child, get_cut_table
from repro.exceptions import ReproError
from repro.experiments.ablations import _HalfSplitTable
from repro.serving import MonitorHub, ShardedHub, ServingServer

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

CONFIDENCE = 0.99 ** 0.25
WARNING_CONFIDENCE = (0.96 * 0.99) ** 0.25
ARRAYS = ("n_hist", "f_critical", "t_critical", "f_warning", "t_warning")


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty process-wide table registry, restored afterwards."""
    monkeypatch.setattr(ppf_tables, "_TABLES", {})


@pytest.fixture
def forks(monkeypatch):
    """Every ``os.fork`` this process makes from now on (the caller's thread)."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(threading.get_ident())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def _children():
    """Live (non-zombie) child pids of this process, from ``/proc``."""
    me = os.getpid()
    found = set()
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != b"Z":
            found.add(int(name))
    return found


def _assert_same_entries(table, reference, length):
    assert table.max_length == length
    for name in ARRAYS:
        assert (
            getattr(table, name)[: length + 1].tobytes()
            == getattr(reference, name)[: length + 1].tobytes()
        ), name


@pytest.mark.parametrize(
    "cls, rho, warning",
    [
        (CutTable, 0.5, WARNING_CONFIDENCE),
        (CutTable, 0.5, None),
        (CutTable, 0.1, WARNING_CONFIDENCE),
        (CutTable, 1.0, WARNING_CONFIDENCE),
        (_HalfSplitTable, 0.5, WARNING_CONFIDENCE),
    ],
    ids=["default", "warnings-off", "rho=0.1", "rho=1.0", "half-split"],
)
def test_child_build_equals_in_process_build(cls, rho, warning):
    reference = cls(rho, CONFIDENCE, warning)
    reference.grow(1_500)
    table = cls(rho, CONFIDENCE, warning)
    build_in_child(table, 1_500)
    _assert_same_entries(table, reference, 1_500)
    # Growing past the child's entries continues exactly like the reference.
    reference.grow(1_800)
    table.grow(1_800)
    _assert_same_entries(table, reference, 1_800)


def test_image_round_trip_and_shorter_image_is_ignored():
    source = CutTable(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    source.grow(700)
    target = CutTable(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    target.adopt(source.image())
    _assert_same_entries(target, source, 700)
    shorter = CutTable(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    shorter.grow(100)
    target.adopt(shorter.image())
    assert target.max_length == 700


def test_two_threads_filling_one_table_share_one_child_build(forks):
    # The parent holds the table's lock across the fork; a child that used
    # the parent's table (and its lock) would hang here.
    table = CutTable(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    barrier = threading.Barrier(2)
    errors = []

    def fill():
        barrier.wait()
        try:
            build_in_child(table, 1_200)
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=fill) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(forks) == 1
    reference = CutTable(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    reference.grow(1_200)
    _assert_same_entries(table, reference, 1_200)


def test_register_leaves_no_child_and_fills_to_w_max(fresh_tables, forks):
    before = _children()
    hub = MonitorHub()
    hub.register("t", "a", "OPTWIN", {"w_max": 800})
    assert _children() <= before
    assert len(forks) == 1
    assert hub.detector("t", "a")._cut_table.max_length == 800
    # A second monitor of the configuration, and a baseline, build nothing.
    hub.register("t", "b", "OPTWIN", {"w_max": 800})
    hub.register("t", "c", "Ddm")
    assert len(forks) == 1


class _ExitingTable(CutTable):
    def grow(self, max_length):
        os._exit(7)


class _FailingTable(CutTable):
    def grow(self, max_length):
        print("a library's chatter", flush=True)
        os.write(2, b"a C library's chatter\n")
        raise RuntimeError("no tables today")


class _SelfTerminatingTable(CutTable):
    def grow(self, max_length):
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(5)  # an inherited Python handler would return here
        super().grow(max_length)


def test_a_dead_child_is_a_repro_error_and_the_table_is_unchanged():
    table = _ExitingTable(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    with pytest.raises(ReproError, match="exited with status 7"):
        build_in_child(table, 300)
    assert table.max_length == 3


def test_the_child_writes_only_to_its_pipe(capfd):
    table = _FailingTable(0.5, CONFIDENCE, WARNING_CONFIDENCE)
    with pytest.raises(ReproError, match="RuntimeError: no tables today"):
        build_in_child(table, 300)
    out, err = capfd.readouterr()
    assert out == "" and err == ""


def test_the_child_restores_default_signal_handling():
    handled = []
    reader, writer = socket.socketpair()
    writer.setblocking(False)
    reader.setblocking(False)
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: handled.append(signum))
    previous_fd = signal.set_wakeup_fd(writer.fileno())
    try:
        table = _SelfTerminatingTable(0.5, CONFIDENCE, WARNING_CONFIDENCE)
        with pytest.raises(ReproError, match=f"killed by signal {int(signal.SIGTERM)}"):
            build_in_child(table, 300)
    finally:
        signal.set_wakeup_fd(previous_fd)
        signal.signal(signal.SIGTERM, previous)
    # Nothing reached this process's handler or its wakeup fd.
    assert handled == []
    with pytest.raises(BlockingIOError):
        reader.recv(16)
    reader.close()
    writer.close()


def test_failed_build_registers_nothing_and_answers_ok_false(
    fresh_tables, monkeypatch
):
    monkeypatch.setattr(CutTable, "grow", _ExitingTable.grow)
    hub = MonitorHub()
    before = _children()
    with pytest.raises(ReproError, match="exited with status 7"):
        hub.register("t", "m", "OPTWIN", {"w_max": 400})
    assert len(hub) == 0
    server = ServingServer(hub, port=0)
    response = server._dispatch_line(
        b'{"op": "register", "tenant": "t", "monitor": "m", '
        b'"detector": "OPTWIN", "params": {"w_max": 400}}'
    )
    assert response["ok"] is False
    assert "exited with status 7" in response["error"]
    assert len(hub) == 0
    assert _children() <= before


def test_without_fork_the_hub_builds_in_process(fresh_tables, monkeypatch):
    monkeypatch.delattr(os, "fork")
    hub = MonitorHub()
    hub.register("t", "m", "OPTWIN", {"w_max": 400})
    table = hub.detector("t", "m")._cut_table
    reference = CutTable(table.rho, table.confidence, table.warning_confidence)
    reference.grow(400)
    _assert_same_entries(table, reference, 400)


def test_library_use_grows_lazily_in_process(fresh_tables, monkeypatch):
    def no_fork():
        raise AssertionError("a library detector must not fork")

    monkeypatch.setattr(os, "fork", no_fork)
    detector = Optwin(w_max=5_000)
    values = (np.random.default_rng(3).random(700) < 0.2).astype(float)
    detector.update_batch(values)
    assert detector.window_size == 700
    assert detector._cut_table.max_length == 700


def test_restore_and_import_fill_the_table(tmp_path, monkeypatch, forks):
    values = (np.random.default_rng(4).random(300) < 0.2).astype(float)
    hub = MonitorHub(checkpoint_dir=tmp_path)
    hub.register("t", "m", "OPTWIN", {"w_max": 900, "rho": 0.8})
    hub.observe("t", "m", values)
    hub.checkpoint()
    records = hub.export_monitors([("t", "m")])

    monkeypatch.setattr(ppf_tables, "_TABLES", {})
    del forks[:]
    restored = MonitorHub(checkpoint_dir=tmp_path)
    assert restored.detector("t", "m")._cut_table.max_length == 900
    assert len(forks) == 1

    monkeypatch.setattr(ppf_tables, "_TABLES", {})
    del forks[:]
    adopting = MonitorHub()
    assert adopting.import_monitors(records) == 1
    assert adopting.detector("t", "m")._cut_table.max_length == 900
    assert len(forks) == 1


def test_failed_build_adopts_no_imported_monitor(monkeypatch):
    hub = MonitorHub()
    hub.register("t", "ddm", "Ddm")
    hub.register("t", "optwin", "OPTWIN", {"w_max": 300, "rho": 0.45})
    records = hub.export_monitors([("t", "ddm"), ("t", "optwin")])
    monkeypatch.setattr(ppf_tables, "_TABLES", {})
    monkeypatch.setattr(CutTable, "grow", _ExitingTable.grow)
    adopting = MonitorHub()
    with pytest.raises(ReproError):
        adopting.import_monitors(records)
    assert len(adopting) == 0


def test_sharded_hub_builds_once_per_cluster(tmp_path, monkeypatch):
    # Any fork inside a worker fails, so a worker that built a table itself
    # would fail its register or its restore.
    parent = os.getpid()
    parent_forks = []
    real_fork = os.fork

    def parent_only_fork():
        if os.getpid() != parent:
            raise OSError("workers receive their tables from the parent")
        parent_forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", parent_only_fork)
    values = (np.random.default_rng(6).random(1_500) < 0.3).astype(float)
    params = {"w_max": 700, "rho": 0.65}
    with ShardedHub(2, checkpoint_dir=tmp_path) as hub:
        monkeypatch.setattr(ppf_tables, "_TABLES", {})
        del parent_forks[:]
        keys = [("t", f"m{i}") for i in range(6)]
        assert {hub.shard_of(*key) for key in keys} == {0, 1}
        for key in keys:
            hub.register(*key, "OPTWIN", params)
        assert len(parent_forks) == 1
        assert get_cut_table(0.65, CONFIDENCE, WARNING_CONFIDENCE).max_length == 700
        for key in keys:
            hub.observe(*key, values[:1_000])
        hub.checkpoint()
        # A replacement worker is forked from the parent, tables included.
        victim = hub.worker_pid(0)
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while 0 not in hub.dead_shards() and time.monotonic() < deadline:
            time.sleep(0.05)
        hub.respawn_shard(0)
        results = {key: hub.observe(*key, values[1_000:]) for key in keys}
        assert len(parent_forks) == 2  # the respawn itself
    for key in keys:
        reference = Optwin(**params)
        expected = [
            i - 1_000
            for i, value in enumerate(values)
            if reference.update(value).drift_detected and i >= 1_000
        ]
        assert results[key].drift_positions == expected
