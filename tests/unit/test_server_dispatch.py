"""In-process tests of :class:`ServingServer`'s request dispatch.

``_dispatch_line`` is what a connection runs for every request line, so
these tests pin wire responses without opening sockets: ``reshard`` on a
single-process hub, and the ``limit`` validation of the ``events`` and
``alerts_history`` ops, on both hubs.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.serving import MonitorHub, ServingServer, ShardedHub


@pytest.fixture(params=["single", "sharded"])
def hub(request, tmp_path):
    if request.param == "single":
        hub = MonitorHub(wal_dir=tmp_path / "wal")
    else:
        hub = ShardedHub(2, wal_dir=tmp_path / "wal")
    try:
        yield hub
    finally:
        hub.close()


@pytest.fixture
def server(hub):
    return ServingServer(hub, port=0)


def _request(server, **fields):
    return server._dispatch_line(json.dumps(fields).encode("utf-8"))


def test_reshard_on_a_single_process_hub_is_refused():
    server = ServingServer(MonitorHub(), port=0)
    assert _request(server, op="reshard", shards=2) == {
        "ok": False,
        "error": "hub is not sharded; reshard needs --shards",
    }


def test_journal_events_reject_limits_below_one(hub):
    hub.journal.record("probe", n=1)
    hub.journal.record("probe", n=2)
    assert [event["n"] for event in hub.journal_events(limit=1, kind="probe")] == [2]
    for limit in (0, -1):
        with pytest.raises(ConfigurationError, match="limit must be >= 1"):
            hub.journal_events(limit=limit)


def test_events_op_rejects_limit_zero(server):
    server.hub.journal.record("probe")
    assert _request(server, op="events", limit=0) == {
        "ok": False,
        "error": "limit must be >= 1, got 0",
    }
    assert len(_request(server, op="events", limit=1)["events"]) == 1
    # An explicit null keeps meaning "no limit".
    assert _request(server, op="events", limit=None)["ok"]


@pytest.mark.parametrize("op", ["events", "alerts_history"])
@pytest.mark.parametrize("limit", ["x", [1], {"n": 1}])
def test_non_integer_limit_is_a_plain_error(server, op, limit):
    response = _request(server, op=op, limit=limit)
    assert response == {
        "ok": False,
        "error": f"limit must be an integer, got {limit!r}",
    }


def test_alerts_history_null_limit_is_a_plain_error(server):
    assert _request(server, op="alerts_history", limit=None) == {
        "ok": False,
        "error": "limit must be an integer, got None",
    }
