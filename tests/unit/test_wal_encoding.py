"""The WAL's alert and watermark payloads are ``json.dumps``'s bytes.

:class:`~repro.serving.wal.AlertWal` writes alert and watermark records
from their fields instead of through ``json.dumps``.  Every payload must
still be exactly ``json.dumps(record, sort_keys=True, separators=(",",
":")).encode("utf-8")``: checked here over strings with ``%``, quotes,
backslashes, control characters, non-ASCII and lone surrogates, integers up
to 2**70 and timestamps down to the subnormals, and over every field that
sends a record to ``json.dumps`` instead.  A segment holds the bytes the
``json.dumps`` framing would have written, and the reader returns the
records.
"""

from __future__ import annotations

import enum
import json
import math
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import wal as wal_module
from repro.serving.sinks import DriftAlert
from repro.serving.wal import _HEADER, AlertWal, _scan_segment


def reference(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def alert_record(alert):
    record = alert.to_dict()
    record["t"] = "alert"
    return record


#: Strings the template must never treat as markup, mixed into arbitrary text.
strings = st.sampled_from(
    ["", "%", "%s", "%(tenant)s", "%%", '"', "\\", "\x00", "\x1f", "\x7f", "é", "☃",
     "😀", "\ud800", "\udfff", "{}", "a,b:c"]
) | st.text(st.characters(exclude_categories=()), max_size=12)
integers = st.integers(min_value=-(2**70), max_value=2**70)
timestamps = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.5e300,
     1.7976931348623157e308, 1_700_000_000.123456]
)
alerts = st.builds(
    DriftAlert,
    tenant=strings,
    monitor_id=strings,
    kind=st.sampled_from(["drift", "warning"]) | strings,
    position=integers,
    detector=strings,
    n_drifts=integers,
    seq=integers,
    ts=timestamps,
    redelivered=st.booleans(),
)


@given(alert=alerts)
@settings(max_examples=1000, deadline=None)
def test_direct_alert_payloads_are_json_dumps_bytes(alert):
    # json.dumps may not be called: every record here takes the direct path.
    with mock.patch.object(wal_module, "_json_payload", side_effect=AssertionError):
        payload = wal_module._alert_payload(alert)
    assert payload == reference(alert_record(alert))


@given(tenant=strings, monitor=strings, n_seen=integers)
@settings(max_examples=500, deadline=None)
def test_watermark_payloads_are_json_dumps_bytes(tenant, monitor, n_seen):
    payload = wal_module._watermark_payload(tenant, monitor, n_seen)
    record = {"t": "watermark", "tenant": tenant, "monitor_id": monitor, "n_seen": n_seen}
    assert payload == reference(record)


class _Str(str):
    pass


class _Int(int):
    pass


class _Level(enum.IntEnum):
    HIGH = 7


class _Float(float):
    pass


_ALERT = DriftAlert("t", "m", "drift", 10, "Ddm", 1, 1, 1000.5)


@pytest.mark.parametrize(
    "fields",
    [
        {"ts": math.nan},
        {"ts": math.inf},
        {"ts": -math.inf},
        {"ts": 5},
        {"ts": _Float(2.5)},
        {"tenant": _Str("t%s")},
        {"monitor_id": _Str("m")},
        {"detector": _Str("Ddm")},
        {"kind": _Str("drift")},
        {"position": _Int(10)},
        {"seq": _Level.HIGH},
        {"n_drifts": True},
        {"position": False},
        {"redelivered": 1},
    ],
    ids=lambda fields: ",".join(f"{k}={type(v).__name__}:{v!r}" for k, v in fields.items()),
)
def test_unusual_fields_fall_back_to_json_dumps(fields):
    alert = _ALERT._replace(**fields)
    with mock.patch.object(
        wal_module, "_json_payload", wraps=wal_module._json_payload
    ) as fallback:
        payload = wal_module._alert_payload(alert)
    assert fallback.call_count == 1
    assert payload == reference(alert_record(alert))


def frame(payload):
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@pytest.mark.parametrize(
    "tenant, monitor, n_seen",
    [
        (_Str("t%s"), "m", 5),
        ("t", _Str("m"), 5),
        ("t", "m", _Int(5)),
        ("t", "m", True),
        ("t", "m", _Level.HIGH),
        (7, 8.5, 9.75),
    ],
)
def test_append_watermark_writes_json_dumps_bytes_of_unusual_fields(
    tmp_path, tenant, monitor, n_seen
):
    wal = AlertWal(tmp_path)
    wal.append_watermark(tenant, monitor, n_seen)
    wal.close()
    record = {
        "t": "watermark", "tenant": str(tenant), "monitor_id": str(monitor), "n_seen": int(n_seen)
    }
    assert (tmp_path / "wal-00000001.log").read_bytes() == frame(reference(record))


def _batch():
    return [
        DriftAlert("acme", "m-%s", "warning", 100, "Ddm", 0, 1, 1000.25),
        DriftAlert("acme", "m-%s", "drift", 130, "Ddm", 1, 2, 1000.5),
        DriftAlert("acme", "m-%s", "warning", 900, "Ddm", 1, 3, math.nan),
        DriftAlert("acme", "m-%s", "drift", 1024, "Ddm", 2, 4, -0.0, True),
    ]


@pytest.mark.parametrize("fsync", ["always", "batch", "off"])
def test_segment_holds_the_json_dumps_framing_of_each_record(tmp_path, fsync):
    wal = AlertWal(tmp_path, fsync=fsync)
    wal.append_watermark("acme", "m-%s", 512)
    for alert in _batch():
        wal.append_alert(alert)
    wal.append_watermark("acme", "m-%s", 1024)
    wal.append_delivered("acme", "m-%s", 4)
    wal.commit()
    expected = (
        [{"t": "watermark", "tenant": "acme", "monitor_id": "m-%s", "n_seen": 512}]
        + [alert_record(alert) for alert in _batch()]
        + [
            {"t": "watermark", "tenant": "acme", "monitor_id": "m-%s", "n_seen": 1024},
            {"t": "delivered", "tenant": "acme", "monitor_id": "m-%s", "seq": 4},
        ]
    )
    frames = b"".join(frame(reference(record)) for record in expected)
    stats = wal.stats()
    assert (stats["n_appends"], stats["n_alerts"]) == (7, 4)
    assert stats["bytes_written"] == len(frames)
    wal.close()
    assert (tmp_path / "wal-00000001.log").read_bytes() == frames


def test_scan_segment_reads_the_written_records_back(tmp_path):
    wal = AlertWal(tmp_path)
    for alert in _batch():
        wal.append_alert(alert)
    wal.append_watermark("acme", "m-%s", 1024)
    wal.append_delivered("acme", "m-%s", 4)
    wal.close()
    records, good_offset, torn = _scan_segment(tmp_path / "wal-00000001.log")
    assert not torn and good_offset == (tmp_path / "wal-00000001.log").stat().st_size
    expected = [alert_record(alert) for alert in _batch()] + [
        {"t": "watermark", "tenant": "acme", "monitor_id": "m-%s", "n_seen": 1024},
        {"t": "delivered", "tenant": "acme", "monitor_id": "m-%s", "seq": 4},
    ]
    assert len(records) == len(expected)
    for record, want in zip(records, expected):
        # NaN != NaN: compare the re-encoded records.
        assert reference(record) == reference(want)
