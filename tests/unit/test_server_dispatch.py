"""In-process tests of :class:`ServingServer`'s request dispatch.

``_dispatch_line`` is what a connection runs for every request line, so
these tests pin wire responses without opening sockets: ``reshard`` on a
single-process hub, the ``limit`` validation of the ``events`` and
``alerts_history`` ops, the ``since``/``until`` bounds of
``alerts_history``, the ``detector``/``params`` fields of ``register``, and
the decode and value boundary (undecodable lines, non-finite literals,
malformed payloads), and one ingest of every payload form, on both hubs.
One socket test checks that a connection keeps answering after
undecodable lines.
"""

from __future__ import annotations

import asyncio
import gc
import json
import reprlib

import pytest

from repro import Optwin
from repro.detectors import Ddm
from repro.exceptions import ConfigurationError
from repro.serving import MonitorHub, ServingServer, ShardedHub
from repro.serving.server import MAX_NESTING
from repro.streams.error_streams import BinarySegment, binary_error_stream

#: A binary error stream whose rate jumps mid-way: DDM warns and drifts on it.
DRIFTING = binary_error_stream(
    [BinarySegment(500, 0.1), BinarySegment(500, 0.65)], seed=7
).values


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


# ------------------------------------------------------ request fields


def _log_alerts(hub):
    """Register a monitor and feed it a drifting stream: the WAL holds alerts."""
    hub.register("t", "m", "DDM")
    hub.ingest([("t", "m", DRIFTING)])
    assert hub.alerts_history()


@pytest.mark.parametrize("field", ["since", "until"])
@pytest.mark.parametrize("bound", ["yesterday", [1], {"ts": 1}, True, "1e9"])
def test_non_numeric_history_bound_is_a_plain_error(server, field, bound):
    _log_alerts(server.hub)
    assert _request(server, op="alerts_history", **{field: bound}) == {
        "ok": False,
        "error": f"{field} must be a number or null, got {reprlib.repr(bound)}",
    }
    every = _request(server, op="alerts_history", **{field: None})["alerts"]
    assert every
    assert _request(server, op="alerts_history", since=0, until=2**62)["alerts"] == every
    assert _request(server, op="alerts_history", until=0)["alerts"] == []


#: What ``register`` answers for a field of the wrong type, before the value.
REGISTER_FIELD_ERRORS = {
    "detector": "detector must be a registry name string, got ",
    "params": "params must be an object of constructor arguments or null, got ",
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("params", "ab"),
        ("params", [1, 2]),
        ("params", ""),
        ("detector", ["DDM"]),
        ("detector", {"a": 1}),
        ("detector", None),
    ],
)
def test_malformed_register_fields_are_a_plain_error(server, field, value):
    request = {"op": "register", "tenant": "t", "monitor": "m", "detector": "DDM"}
    assert _request(server, **{**request, field: value}) == {
        "ok": False,
        "error": REGISTER_FIELD_ERRORS[field] + reprlib.repr(value),
    }
    assert ("t", "m") not in server.hub
    assert server.hub.stats()["n_monitors"] == 0
    # The refusal left nothing behind: the same key registers cleanly.
    assert _request(server, **request)["ok"]


# ------------------------------------------------ ingest, decoded once

#: The first bad event in request order answers, on both hubs.
FIRST_BAD_EVENT = [
    pytest.param(
        [["t", "m9", [0, 1]], ["t", "m1", ["x"]]],
        "unknown monitor t/m9; register it first",
        id="unknown-monitor-first",
    ),
    pytest.param(
        [["t", "m1", ["x"]], ["t", "m9", [0, 1]]],
        "monitor t/m1: values must be a number or a flat list of numbers, "
        "got ['x']",
        id="malformed-payload-first",
    ),
]


@pytest.mark.parametrize("bad_events, error", FIRST_BAD_EVENT)
def test_first_bad_ingest_event_in_request_order_answers(server, bad_events, error):
    hub = server.hub
    hub.register("t", "m1", "DDM")
    hub.register("t", "m2", "DDM")
    events = [["t", "m2", [0, 1, 0]], *bad_events, ["t", "m2", 1.0]]
    assert _request(server, op="ingest", events=events) == {"ok": False, "error": error}
    for monitor in ("m1", "m2"):
        assert hub.stats("t", monitor)["n_seen"] == 0


def test_no_decoded_payload_list_is_alive_while_the_hub_ingests(server, monkeypatch):
    """The decoded lists of an ``ingest`` request are gone by the time the
    hub runs: the collector never walks them while detectors allocate."""
    length = 1237  # no other list in the process is this long
    server.hub.register("t", "m", "DDM")
    payload = b"[" + b",".join([b"0.0", b"1.0", b"0.0", b"0.0"] * 309 + [b"1.0"]) + b"]"
    line = b'{"op":"ingest","events":[["t","m",%s],["t","m",%s]]}' % (payload, payload)
    ingest = server.hub.ingest
    alive = []

    def watched_ingest(events, trace_ctx=None):
        alive.append(
            sum(
                1
                for obj in gc.get_objects()
                if type(obj) is list and len(obj) == length
            )
        )
        return ingest(events, trace_ctx=trace_ctx)

    monkeypatch.setattr(server.hub, "ingest", watched_ingest)
    response = server._dispatch_line(line)
    assert response["ok"], response
    assert [result["n"] for result in response["results"]] == [2 * length]
    assert alive == [0]


def _mixed_events(values):
    """All of ``values`` for two monitors in one request: ``mixed`` gets
    each stretch as a scalar, a list, an ndarray and a generator in turn,
    interleaved with ``other``'s lists and ndarrays."""
    events = []
    for start in range(0, len(values), 16):
        piece = values[start : start + 16]
        events += [
            ("t", "mixed", float(piece[0])),
            ("t", "other", piece[:8].tolist()),
            ("t", "mixed", piece[1:6].tolist()),
            ("t", "mixed", piece[6:11]),
            ("t", "other", piece[8:]),
            ("t", "mixed", (value for value in piece[11:])),
        ]
    return events


def test_every_payload_form_in_one_ingest_equals_a_scalar_run(hub):
    """Each monitor is fed its payloads in request order, whatever their
    form, and on a 2-shard hub the two monitors sit on different shards."""
    hub.register("t", "mixed", "OPTWIN", {"w_max": 500})
    hub.register("t", "other", "DDM")
    if isinstance(hub, ShardedHub):
        assert {hub.shard_of("t", "mixed"), hub.shard_of("t", "other")} == {0, 1}
    results = {r.monitor_id: r for r in hub.ingest(_mixed_events(DRIFTING))}
    for monitor, detector in (("mixed", Optwin(w_max=500)), ("other", Ddm())):
        updates = [detector.update(value) for value in DRIFTING]
        drifts = [i for i, update in enumerate(updates) if update.drift_detected]
        assert drifts, monitor
        assert results[monitor].n_processed == len(DRIFTING)
        assert results[monitor].drift_positions == drifts
        assert results[monitor].warning_positions == [
            i for i, update in enumerate(updates) if update.warning_detected
        ]
