"""Registry-driven snapshot round-trip suite.

For every exported detector class (the ten baselines plus OPTWIN) the tests
run a drift-dense stream, snapshot mid-stream at several offsets — including
inside warning zones — push the snapshot through strict JSON, restore into a
fresh instance, and assert *bit-identical* detections and counters versus the
uninterrupted run, in both scalar and ``update_batch`` modes.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.base import SNAPSHOT_SCHEMA_VERSION
from repro.detectors import Ddm, Kswin, Optwin, exported_detector_classes
from repro.exceptions import SnapshotError
from repro.serving.snapshot import (
    desanitize,
    restore_detector,
    sanitize,
    snapshot_detector,
    snapshot_json,
)
from repro.streams.error_streams import BinarySegment, binary_error_stream

DETECTOR_CLASSES = exported_detector_classes()

#: Drift-dense binary stream: alternating calm/noisy segments so every
#: detector fires repeatedly and spends many elements inside warning zones.
_SEGMENTS = [
    BinarySegment(400, 0.05),
    BinarySegment(300, 0.55),
    BinarySegment(300, 0.15),
    BinarySegment(300, 0.65),
    BinarySegment(300, 0.10),
    BinarySegment(400, 0.70),
]

#: Snapshot offsets: early (window still filling), mid-stream, just past the
#: first drift boundary (inside post-drift warning turbulence), and late.
_OFFSETS = (37, 450, 723, 1500)


def _stream_values() -> np.ndarray:
    return binary_error_stream(_SEGMENTS, seed=11).values


def _json_roundtrip(snapshot: dict) -> dict:
    """Strict-JSON round trip (allow_nan=False proves JSON-safety)."""
    return json.loads(json.dumps(snapshot, sort_keys=True, allow_nan=False))


def _scalar_run(detector, values):
    drifts, warnings = [], []
    for index, value in enumerate(values):
        outcome = detector.update(float(value))
        if outcome.drift_detected:
            drifts.append(index)
        if outcome.warning_detected:
            warnings.append(index)
    return drifts, warnings


def _counters(detector):
    return detector.n_seen, detector.n_drifts, detector.n_warnings


@pytest.mark.parametrize("cls", DETECTOR_CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("offset", _OFFSETS)
def test_roundtrip_bit_exact_batch_mode(cls, offset):
    values = _stream_values()
    uninterrupted = cls()
    full = uninterrupted.update_batch(values)

    first = cls()
    head = first.update_batch(values[:offset])
    snapshot = _json_roundtrip(snapshot_detector(first))
    resumed = restore_detector(snapshot)
    assert resumed is not first
    tail = resumed.update_batch(values[offset:])

    stitched_drifts = head.drift_indices + [offset + i for i in tail.drift_indices]
    stitched_warnings = head.warning_indices + [
        offset + i for i in tail.warning_indices
    ]
    assert stitched_drifts == full.drift_indices
    assert stitched_warnings == full.warning_indices
    assert _counters(resumed) == _counters(uninterrupted)


def _leaf_types(payload):
    """``payload`` with every leaf replaced by its Python type."""
    if isinstance(payload, dict):
        return {key: _leaf_types(value) for key, value in payload.items()}
    if isinstance(payload, list):
        return [_leaf_types(value) for value in payload]
    return type(payload)


@pytest.mark.parametrize("cls", DETECTOR_CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("offset", _OFFSETS)
def test_restore_gives_back_the_same_snapshot(cls, offset):
    """A restored detector snapshots to the same canonical JSON bytes, and
    every ``state_dict()`` leaf keeps its Python type (equal detections
    alone would let an ``int`` field come back as a ``float``)."""
    detector = cls()
    detector.update_batch(_stream_values()[:offset])
    restored = restore_detector(_json_roundtrip(snapshot_detector(detector)))
    assert snapshot_json(restored) == snapshot_json(detector)
    assert _leaf_types(restored.state_dict()) == _leaf_types(detector.state_dict())


@pytest.mark.parametrize("cls", DETECTOR_CLASSES, ids=lambda c: c.__name__)
def test_roundtrip_bit_exact_scalar_mode(cls):
    values = _stream_values()[:900]
    offset = 451
    uninterrupted = cls()
    full_drifts, full_warnings = _scalar_run(uninterrupted, values)

    first = cls()
    head_drifts, head_warnings = _scalar_run(first, values[:offset])
    resumed = restore_detector(_json_roundtrip(snapshot_detector(first)))
    tail_drifts, tail_warnings = _scalar_run(resumed, values[offset:])

    assert head_drifts + [offset + i for i in tail_drifts] == full_drifts
    assert head_warnings + [offset + i for i in tail_warnings] == full_warnings
    assert _counters(resumed) == _counters(uninterrupted)


@pytest.mark.parametrize("cls", DETECTOR_CLASSES, ids=lambda c: c.__name__)
def test_roundtrip_crosses_modes(cls):
    """A scalar-mode run resumed in batch mode (and vice versa) stays exact."""
    values = _stream_values()[:800]
    offset = 390
    uninterrupted = cls()
    full = uninterrupted.update_batch(values)

    first = cls()
    head_drifts, _ = _scalar_run(first, values[:offset])
    resumed = restore_detector(_json_roundtrip(snapshot_detector(first)))
    tail = resumed.update_batch(values[offset:])
    assert head_drifts + [offset + i for i in tail.drift_indices] == full.drift_indices
    assert _counters(resumed) == _counters(uninterrupted)


@pytest.mark.parametrize("cls", DETECTOR_CLASSES, ids=lambda c: c.__name__)
def test_snapshot_schema(cls):
    detector = cls()
    detector.update_batch(_stream_values()[:600])
    snapshot = snapshot_detector(detector)
    assert snapshot["schema_version"] == SNAPSHOT_SCHEMA_VERSION
    assert snapshot["detector"] == cls.__name__
    assert set(snapshot) == {
        "schema_version",
        "detector",
        "config",
        "counters",
        "last_result",
        "state",
    }
    # Canonical JSON text is stable across repeated serialization.
    assert snapshot_json(detector) == snapshot_json(detector)


def test_sanitize_roundtrips_nonfinite_floats():
    payload = {
        "inf": math.inf,
        "ninf": -math.inf,
        "nan": math.nan,
        "nested": [1.5, {"deep": math.inf}],
        "plain": {"n": 3, "flag": True, "text": "x"},
    }
    safe = sanitize(payload)
    json.dumps(safe, allow_nan=False)  # must not raise
    restored = desanitize(safe)
    assert restored["inf"] == math.inf
    assert restored["ninf"] == -math.inf
    assert math.isnan(restored["nan"])
    assert restored["nested"][1]["deep"] == math.inf
    assert restored["plain"] == payload["plain"]


def test_restore_rejects_wrong_schema_version():
    snapshot = snapshot_detector(Ddm())
    snapshot["schema_version"] = 999
    with pytest.raises(SnapshotError):
        restore_detector(snapshot)


def test_load_rejects_wrong_class():
    snapshot = Ddm().state_dict()
    with pytest.raises(SnapshotError):
        Kswin().load_state_dict(snapshot)


def test_restore_preserves_configuration():
    detector = Optwin(delta=0.95, rho=1.0, w_min=40, w_max=500, reset_mode="keep_new")
    detector.update_batch(_stream_values()[:300])
    resumed = restore_detector(snapshot_detector(detector))
    assert isinstance(resumed, Optwin)
    assert resumed.config == detector.config
    assert resumed._reset_mode == detector._reset_mode

    kswin = Kswin(alpha=0.01, window_size=120, stat_size=40, seed=9)
    kswin.update_batch(_stream_values()[:400])
    resumed_kswin = restore_detector(snapshot_detector(kswin))
    assert resumed_kswin._config_dict() == kswin._config_dict()
    # The restored RNG continues the original sequence exactly.
    assert resumed_kswin._rng.random() == kswin._rng.random()


def test_snapshot_inside_warning_zone():
    """Snapshotting while the warning zone is active preserves the zone."""
    values = _stream_values()
    detector = Ddm()
    warning_offset = None
    for index, value in enumerate(values):
        outcome = detector.update(float(value))
        if outcome.warning_detected and not outcome.drift_detected:
            warning_offset = index + 1
            break
    assert warning_offset is not None, "stream never produced a pure warning"
    resumed = restore_detector(_json_roundtrip(snapshot_detector(detector)))
    assert resumed.warning_detected and not resumed.drift_detected

    uninterrupted = Ddm()
    full = uninterrupted.update_batch(values)
    head = Ddm()
    head_result = head.update_batch(values[:warning_offset])
    tail = resumed.update_batch(values[warning_offset:])
    stitched = head_result.drift_indices + [
        warning_offset + i for i in tail.drift_indices
    ]
    assert stitched == full.drift_indices
