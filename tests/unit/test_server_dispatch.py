"""In-process tests of :class:`ServingServer`'s request dispatch.

``_dispatch_line`` is what a connection runs for every request line, so
these tests pin wire responses without opening sockets: ``reshard`` on a
single-process hub, the ``limit`` validation of the ``events`` and
``alerts_history`` ops, and the decode and value boundary (undecodable
lines, non-finite literals, malformed payloads), on both hubs.  One socket
test checks that a connection keeps answering after undecodable lines.
"""

from __future__ import annotations

import asyncio
import json
import reprlib

import pytest

from repro.exceptions import ConfigurationError
from repro.serving import MonitorHub, ServingServer, ShardedHub
from repro.serving.server import MAX_NESTING


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


# ------------------------------------------------------- decode boundary

#: A string holding a truncated two-byte UTF-8 sequence.
NOT_UTF8 = b'{"op":"ping","x":"\xc3"}'
#: 5,000 nested arrays, far past MAX_NESTING.
DEEP = b"[" * 5000 + b"]" * 5000
TOO_DEEP = {"ok": False, "error": f"invalid JSON: nesting deeper than {MAX_NESTING} levels"}


def _invalid_json(response) -> bool:
    return response["ok"] is False and response["error"].startswith("invalid JSON: ")


def test_undecodable_lines_get_an_answer(server):
    assert _invalid_json(server._dispatch_line(NOT_UTF8))
    assert server._dispatch_line(DEEP) == TOO_DEEP
    assert _request(server, op="ping") == {"ok": True, "pong": True}


def test_nesting_up_to_the_limit_decodes(server):
    depth = MAX_NESTING - 1  # inside the request object's own level
    line = b'{"op":"ping","x":' + b"[" * depth + b"]" * depth + b"}"
    assert server._dispatch_line(line) == {"ok": True, "pong": True}
    too_deep = b'{"op":"ping","x":' + b"[" * MAX_NESTING + b"]" * MAX_NESTING + b"}"
    assert server._dispatch_line(too_deep) == TOO_DEEP


#: Lines nesting past MAX_NESTING outside their strings, with brackets inside
#: strings that would cancel the depth if they were counted.
DEEP_BEHIND_STRINGS = {
    "padding": b'{"op":"ping","p":"' + b"]" * 10000 + b'","x":' + DEEP + b"}",
    "interleaved": b'{"op":"ping","x":' + b'["]",' * 5000 + b"0" + b"]" * 5000 + b"}",
    "escaped-quote": b'{"op":"ping","p":"\\"' + b"]" * 10000 + b'\\"","x":' + DEEP + b"}",
    "escaped-backslash": b'{"op":"ping","p":"\\\\","q":"' + b"]" * 10000 + b'","x":'
    + DEEP
    + b"}",
}


@pytest.mark.parametrize("name", sorted(DEEP_BEHIND_STRINGS))
def test_brackets_inside_strings_do_not_hide_nesting(server, name):
    assert server._dispatch_line(DEEP_BEHIND_STRINGS[name]) == TOO_DEEP


def test_brackets_inside_strings_do_not_count(server):
    line = b'{"op":"ping","p":"' + b"[{" * 5000 + b'","q":["\\"[' + b"[" * 5000 + b'"]}'
    assert server._dispatch_line(line) == {"ok": True, "pong": True}


def test_connection_answers_after_undecodable_lines(server):
    """Pipelined bad lines each get an answer; the ping after them too."""

    async def scenario():
        await server.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(NOT_UTF8 + b"\n" + DEEP + b"\n" + b'{"op":"ping"}\n')
            await writer.drain()
            answers = [
                json.loads(await asyncio.wait_for(reader.readline(), 30))
                for _ in range(3)
            ]
            writer.close()
            return answers
        finally:
            await server.stop()

    not_utf8, deep, ping = asyncio.run(scenario())
    assert _invalid_json(not_utf8)
    assert deep == TOO_DEEP
    assert ping == {"ok": True, "pong": True}


@pytest.mark.parametrize("literal", [b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1e400"])
def test_non_finite_literals_are_invalid_json(server, literal):
    server.hub.register("t", "m", "DDM")
    for line in (
        b'{"op":"observe","tenant":"t","monitor":"m","values":[0,%s]}' % literal,
        b'{"op":"ingest","events":[["t","m",[1,%s]]]}' % literal,
        b'{"op":"ingest","events":[["t","m",%s]]}' % literal,
    ):
        assert _invalid_json(server._dispatch_line(line))
    assert server.hub.stats("t", "m")["n_seen"] == 0


def test_integers_above_64_bits_decode_as_floats(server):
    def registered_tenant(tenant: int) -> str:
        line = b'{"op":"register","tenant":%d,"monitor":"m","detector":"DDM"}' % tenant
        return server._dispatch_line(line)["tenant"]

    assert registered_tenant(2**64 - 1) == str(2**64 - 1)
    assert registered_tenant(2**64) == str(float(2**64))


# -------------------------------------------------------- value boundary

MALFORMED = [
    "abc",
    "10",
    None,
    {"a": 1},
    ["x"],
    ["NaN"],
    ["1"],
    [1, None],
    [[0, 1]],
    [0, {"a": 1}],
]


@pytest.mark.parametrize("payload", MALFORMED)
def test_malformed_payload_in_ingest_applies_nothing(server, payload):
    hub = server.hub
    for monitor in ("m1", "m2", "m3"):
        hub.register("t", monitor, "DDM")
    response = _request(
        server,
        op="ingest",
        events=[["t", "m1", [0, 1, 0]], ["t", "m2", payload], ["t", "m3", 1.0]],
    )
    assert response == {
        "ok": False,
        "error": "monitor t/m2: values must be a number or a flat list of "
        f"numbers, got {reprlib.repr(payload)}",
    }
    for monitor in ("m1", "m2", "m3"):
        assert hub.stats("t", monitor)["n_seen"] == 0


@pytest.mark.parametrize(
    "values", [["x"], ["abc", 1], ["inf"], [0, None], [[0, 1]], [0, {"a": 1}]]
)
def test_malformed_observe_values_are_a_plain_error(server, values):
    server.hub.register("t", "m", "DDM")
    response = _request(server, op="observe", tenant="t", monitor="m", values=values)
    assert response == {
        "ok": False,
        "error": "monitor t/m: values must be a number or a flat list of "
        f"numbers, got {reprlib.repr(values)}",
    }
    assert server.hub.stats("t", "m")["n_seen"] == 0
