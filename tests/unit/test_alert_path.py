"""The hub's alert path: transition numbering, WAL records and DriftAlert.

A monitor's alerts from one flush are numbered from its warning/drift
transitions, logged to the WAL and then delivered as one batch.  These tests
pin what that path must keep, against references that do not share its
code: for every registered detector the ``(kind, position, n_drifts, seq)``
stream equals one built from a scalar ``update()`` loop, for any chunking,
with and without a WAL; the WAL holds exactly the delivered alerts; and a
:class:`DriftAlert` behaves as an immutable, hashable, picklable value.
"""

from __future__ import annotations

import json
import pickle
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.detectors import NoDriftDetector, exported_detector_classes
from repro.serving import MonitorHub
from repro.serving.sinks import DriftAlert

DETECTOR_CLASSES = [
    cls for cls in exported_detector_classes() if cls is not NoDriftDetector
]

#: Five 400-value segments alternating 10 % and 70 % error: every detector
#: above drifts at least twice, and the warning detectors re-enter zones.
VALUES = np.concatenate(
    [
        np.random.default_rng(11 + index).random(400) < rate
        for index, rate in enumerate((0.1, 0.7, 0.1, 0.7, 0.1))
    ]
).astype(np.float64)

AlertKey = Tuple[str, int, int, int]


def reference_alerts(detector, values) -> List[AlertKey]:
    """``(kind, position, n_drifts, seq)`` from a scalar ``update()`` loop.

    A warning fires on entering the warning zone and a drift on every
    drift; a drift ends the zone, as does the first element outside it.
    """
    alerts: List[AlertKey] = []
    in_zone = False
    for position, value in enumerate(values):
        result = detector.update(value)
        if result.drift_detected:
            alerts.append(("drift", position, detector.n_drifts, len(alerts) + 1))
            in_zone = False
        elif result.warning_detected:
            if not in_zone:
                alerts.append(
                    ("warning", position, detector.n_drifts, len(alerts) + 1)
                )
            in_zone = True
        else:
            in_zone = False
    return alerts


@pytest.fixture(scope="module")
def expected() -> Dict[str, List[AlertKey]]:
    return {cls.__name__: reference_alerts(cls(), VALUES) for cls in DETECTOR_CLASSES}


def test_every_detector_fires_on_the_reference_stream(expected):
    assert len(expected) == 10
    for name, alerts in expected.items():
        assert any(kind == "drift" for kind, _, _, _ in alerts), name


@pytest.mark.parametrize("wal", [False, True], ids=["no-wal", "wal"])
@pytest.mark.parametrize("chunk", [1, 7, len(VALUES)], ids=["chunk1", "chunk7", "whole"])
def test_alert_stream_matches_scalar_reference(tmp_path, expected, chunk, wal):
    hub = MonitorHub(wal_dir=tmp_path / "wal" if wal else None, wal_fsync="off")
    try:
        for cls in DETECTOR_CLASSES:
            hub.register("t", cls.__name__, cls())
        for start in range(0, len(VALUES), chunk):
            part = VALUES[start : start + chunk]
            hub.ingest([("t", cls.__name__, part) for cls in DETECTOR_CLASSES])
        delivered, n_dropped = hub.drain_alerts()
        assert n_dropped == 0
        for name, alerts in expected.items():
            stream = [
                (alert.kind, alert.position, alert.n_drifts, alert.seq)
                for alert in delivered
                if alert.monitor_id == name
            ]
            assert stream == alerts, name
        if wal:
            # Log-before-deliver: the WAL holds exactly what the sinks got,
            # in the same order.
            logged = hub.alerts_history(limit=len(delivered) + 1)
            assert logged == [alert.to_dict() for alert in delivered]
    finally:
        hub.close()


# ------------------------------------------------------------ DriftAlert


def _alert(**overrides) -> DriftAlert:
    fields = dict(
        tenant="acme",
        monitor_id="checkout",
        kind="drift",
        position=1234,
        detector="Ddm",
        n_drifts=2,
        seq=5,
        ts=1700000000.25,
    )
    fields.update(overrides)
    return DriftAlert(**fields)


def test_drift_alert_builds_by_keyword_and_by_position():
    by_position = DriftAlert(
        "acme", "checkout", "drift", 1234, "Ddm", 2, 5, 1700000000.25
    )
    assert by_position == _alert()
    assert by_position.redelivered is False
    bare = DriftAlert("acme", "checkout", "warning", 7, "Ddm", 0)
    assert (bare.seq, bare.ts, bare.redelivered) == (0, 0.0, False)


def test_drift_alert_is_immutable():
    alert = _alert()
    with pytest.raises(AttributeError):
        alert.seq = 6  # type: ignore[misc]
    with pytest.raises(AttributeError):
        alert.redelivered = True  # type: ignore[misc]
    assert alert.seq == 5


def test_drift_alert_equality_and_hash():
    assert _alert() == _alert()
    assert hash(_alert()) == hash(_alert())
    assert _alert() != _alert(seq=6)
    assert _alert() != _alert(redelivered=True)
    assert len({_alert(), _alert(), _alert(seq=6)}) == 2


def test_drift_alert_pickle_round_trip():
    for alert in (_alert(), _alert(redelivered=True, ts=float("nan"))):
        restored = pickle.loads(pickle.dumps(alert))
        assert type(restored) is DriftAlert
        assert restored.to_dict().keys() == alert.to_dict().keys()
        assert repr(restored) == repr(alert)


def test_drift_alert_dict_forms():
    alert = _alert()
    assert alert.to_dict() == {
        "tenant": "acme",
        "monitor_id": "checkout",
        "kind": "drift",
        "position": 1234,
        "detector": "Ddm",
        "n_drifts": 2,
        "seq": 5,
        "ts": 1700000000.25,
        "redelivered": False,
    }
    # Field order, as the audit log and the wire have always written it.
    assert list(alert.to_dict()) == [
        "tenant",
        "monitor_id",
        "kind",
        "position",
        "detector",
        "n_drifts",
        "seq",
        "ts",
        "redelivered",
    ]
    assert json.loads(json.dumps(alert.to_dict())) == alert.to_dict()
    # from_dict ignores extra keys (a WAL record's "t") and fills defaults.
    assert DriftAlert.from_dict({**alert.to_dict(), "t": "alert"}) == alert
    minimal = {
        key: alert.to_dict()[key]
        for key in ("tenant", "monitor_id", "kind", "position", "detector", "n_drifts")
    }
    assert DriftAlert.from_dict(minimal) == _alert(seq=0, ts=0.0)


def test_drift_alert_as_redelivery_copies_with_the_flag():
    alert = _alert()
    redelivery = alert.as_redelivery()
    assert redelivery.redelivered is True
    assert alert.redelivered is False
    assert redelivery.to_dict() == {**alert.to_dict(), "redelivered": True}
