"""Unit tests for the slot-based routing layer of ``repro.serving.sharded``.

Pure-function coverage (no worker processes): :func:`route_slot`
determinism and range, the synthesized default assignment table, and the
minimal-movement rebalance the live :meth:`ShardedHub.reshard` relies on.
"""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.serving import N_SLOTS, default_slot_assignment, route_slot
from repro.serving.sharded import _rebalance_assignment

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

KEYS = [
    (tenant, f"monitor-{index}")
    for tenant in ("acme", "globex", "initech", "umbrella")
    for index in range(64)
]


def test_route_slot_range_and_determinism():
    for key in KEYS:
        slot = route_slot(*key)
        assert 0 <= slot < N_SLOTS
        assert slot == route_slot(*key)


def test_route_slot_covers_the_slot_space():
    # 256 keys over 256 slots won't hit every slot, but a healthy hash
    # should spread far beyond a handful.
    slots = {route_slot(*key) for key in KEYS}
    assert len(slots) > N_SLOTS // 2


def test_route_slot_is_stable_across_processes():
    """BLAKE2b, not the salted builtin ``hash``: a fresh interpreter must
    agree, or checkpoints would resume onto the wrong shard."""
    sample = KEYS[:8]
    script = (
        "from repro.serving import route_slot\n"
        f"print([route_slot(t, m) for t, m in {sample!r}])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(REPO_SRC), "PYTHONHASHSEED": "random"},
    )
    assert eval(out.stdout) == [route_slot(t, m) for t, m in sample]


def test_key_separator_keeps_tenant_boundary_in_the_digest():
    """The NUL joint makes ("a", "bc") and ("ab", "c") different keys at
    the digest level, not merely different by slot-collision luck."""
    from repro.serving.sharded import _key_digest

    assert _key_digest("a", "bc") != _key_digest("ab", "c")
    assert _key_digest("a", "b/c") != _key_digest("a/b", "c")


def test_default_assignment_is_balanced_round_robin():
    for n in (1, 2, 3, 4, 5, 16, 256):
        table = default_slot_assignment(n)
        assert len(table) == N_SLOTS
        counts = Counter(table)
        assert set(counts) == set(range(n))
        assert max(counts.values()) - min(counts.values()) <= 1


def test_default_assignment_rejects_bad_count():
    with pytest.raises(ConfigurationError):
        default_slot_assignment(0)


# ------------------------------------------------------------- rebalance


def test_rebalance_is_minimal_for_grow():
    old = default_slot_assignment(2)
    new = _rebalance_assignment(old, 4)
    counts = Counter(new)
    assert set(counts) == {0, 1, 2, 3}
    assert max(counts.values()) - min(counts.values()) <= 1
    # Exactly the surplus moved: each old shard gives up half its slots.
    moved = sum(1 for a, b in zip(old, new) if a != b)
    assert moved == N_SLOTS // 2
    # Moved slots went only to the NEW shards — survivors never swap slots
    # among themselves.
    for a, b in zip(old, new):
        if a != b:
            assert b in (2, 3)


def test_rebalance_is_minimal_for_shrink():
    old = default_slot_assignment(4)
    new = _rebalance_assignment(old, 3)
    counts = Counter(new)
    assert set(counts) == {0, 1, 2}
    assert max(counts.values()) - min(counts.values()) <= 1
    # Every slot of the removed shard found a surviving owner; slots that
    # moved were either the removed shard's or a survivor's surplus.
    moved = [(a, b) for a, b in zip(old, new) if a != b]
    assert all(b < 3 for _, b in moved)
    assert {a for a, _ in moved} <= {0, 1, 2, 3}
    assert any(a == 3 for a, _ in moved)


def test_rebalance_quota_exact():
    for n_old, n_new in [(2, 4), (4, 3), (3, 5), (16, 2), (2, 3)]:
        table = _rebalance_assignment(default_slot_assignment(n_old), n_new)
        counts = Counter(table)
        base, extra = divmod(N_SLOTS, n_new)
        for shard in range(n_new):
            assert counts[shard] == base + (1 if shard < extra else 0)


def test_rebalance_is_deterministic():
    old = default_slot_assignment(4)
    assert _rebalance_assignment(old, 3) == _rebalance_assignment(old, 3)


def test_rebalance_roundtrip_grow_shrink_is_stable():
    """Grow then shrink back: the table returns to a 2-shard layout with
    the same balance (not necessarily the original table — minimality is
    relative to the intermediate state)."""
    t2 = default_slot_assignment(2)
    t4 = _rebalance_assignment(t2, 4)
    t2b = _rebalance_assignment(t4, 2)
    counts = Counter(t2b)
    assert set(counts) == {0, 1}
    assert counts[0] == counts[1] == N_SLOTS // 2
    # Slots that shard 0/1 held through the grow never moved at all.
    for slot in range(N_SLOTS):
        if t2[slot] == t4[slot]:
            assert t2b[slot] == t2[slot]


def test_rebalance_rejects_bad_count():
    with pytest.raises(ConfigurationError):
        _rebalance_assignment(default_slot_assignment(2), 0)
