"""Unit tests for the shared detector interface (:mod:`repro.core.base`)."""

import numpy as np
import pytest

from repro.core.base import DetectionResult, DriftDetector, DriftType
from repro.detectors import exported_detector_classes


class _EveryNth(DriftDetector):
    """Toy detector that flags a drift every ``n`` elements."""

    def __init__(self, n: int = 5) -> None:
        super().__init__()
        self._n = n
        self._count = 0

    def _update_one(self, value: float) -> DetectionResult:
        self._count += 1
        if self._count % self._n == 0:
            return DetectionResult(
                drift_detected=True, warning_detected=True, drift_type=DriftType.MEAN
            )
        if self._count % self._n == self._n - 1:
            return DetectionResult(warning_detected=True)
        return DetectionResult()

    def reset(self) -> None:
        self._count = 0
        self._reset_counters()


def test_detection_result_truthiness():
    assert not DetectionResult()
    assert DetectionResult(drift_detected=True)
    assert not DetectionResult(warning_detected=True)


def test_detection_result_defaults():
    result = DetectionResult()
    assert result.drift_type is None
    assert result.statistics == {}


def test_update_counts_and_properties():
    detector = _EveryNth(n=3)
    detector.update(0.0)
    assert detector.n_seen == 1
    assert not detector.drift_detected
    detector.update(0.0)
    assert detector.warning_detected
    detector.update(0.0)
    assert detector.drift_detected
    assert detector.n_drifts == 1
    assert detector.n_warnings == 2  # warning also set on the drift update


def test_update_many_returns_indices():
    detector = _EveryNth(n=4)
    detections = detector.update_many([0.0] * 12)
    assert detections == [3, 7, 11]
    assert detector.n_drifts == 3


def test_last_result_is_kept():
    detector = _EveryNth(n=2)
    detector.update(0.0)
    first = detector.last_result
    detector.update(0.0)
    assert detector.last_result is not first
    assert detector.last_result.drift_detected


def test_reset_counters():
    detector = _EveryNth(n=2)
    detector.update_many([0.0] * 6)
    detector.reset()
    assert detector.n_seen == 0
    assert detector.n_drifts == 0
    assert not detector.drift_detected


def test_seeded_running_argmin_tracks_ties_by_mode():
    import numpy as np

    from repro.core.base import seeded_running_argmin

    values = np.asarray([5.0, 3.0, 3.0, 4.0, 2.0, 2.0])
    # Ties advance the index when not strict (DDM-style <=) ...
    assert seeded_running_argmin(values, 10.0).tolist() == [0, 1, 2, 2, 4, 5]
    # ... and keep the earlier record when strict (HDDM-style <).
    assert seeded_running_argmin(values, 10.0, strict=True).tolist() == [
        0, 1, 1, 1, 4, 4,
    ]
    # A seed below every value means the prior record always holds.
    assert seeded_running_argmin(values, 1.0).tolist() == [-1] * 6


def test_drift_type_enum_values():
    assert DriftType.MEAN.value == "mean"
    assert DriftType.VARIANCE.value == "variance"
    assert DriftType.DISTRIBUTION.value == "distribution"


# ------------------------------------------------- one input rule, two paths

#: Accepted chunks and how many values each holds.
_ACCEPTED = [
    pytest.param(lambda: 1.0, 1, id="float"),
    pytest.param(lambda: np.float32(1), 1, id="np.float32"),
    pytest.param(lambda: np.array(1.0), 1, id="0-d-array"),
    pytest.param(lambda: (value for value in [0.0, 1.0, 0.0]), 3, id="generator"),
]
_REFUSED = [
    pytest.param([0.0, None], id="none-in-list"),
    pytest.param(["1"], id="numeric-string-in-list"),
    pytest.param("1", id="numeric-string"),
    pytest.param(["nan"], id="nan-string-in-list"),
    pytest.param([[0.0, 1.0]], id="nested-list"),
    pytest.param(np.ones((2, 2)), id="2-d-array"),
    pytest.param({"a": 1}, id="mapping"),
]


@pytest.mark.parametrize("cls", exported_detector_classes(), ids=lambda c: c.__name__)
@pytest.mark.parametrize("collect_stats", [False, True])
@pytest.mark.parametrize("make, count", _ACCEPTED)
def test_update_batch_accepts_the_same_inputs_on_both_paths(
    cls, collect_stats, make, count
):
    detector = cls()
    result = detector.update_batch(make(), collect_stats=collect_stats)
    assert result.n_processed == count
    assert detector.n_seen == count


@pytest.mark.parametrize("cls", exported_detector_classes(), ids=lambda c: c.__name__)
@pytest.mark.parametrize("collect_stats", [False, True])
@pytest.mark.parametrize("values", _REFUSED)
def test_update_batch_refuses_the_same_inputs_on_both_paths(
    cls, collect_stats, values
):
    detector = cls()
    with pytest.raises(TypeError, match="values must be a number or a flat list"):
        detector.update_batch(values, collect_stats=collect_stats)
    assert detector.n_seen == 0


# ------------------------------------------- update() converts, then counts

_ONE_VALUE = [
    pytest.param(1.0, id="float"),
    pytest.param(np.float32(1), id="np.float32"),
    pytest.param(True, id="bool"),
    pytest.param(np.array(1.0), id="0-d-array"),
]
_NOT_ONE_VALUE = [
    pytest.param(None, id="none"),
    pytest.param("x", id="string"),
    pytest.param("1", id="numeric-string"),
    pytest.param([1.0], id="list"),
    pytest.param(np.array([1.0]), id="1-d-array"),
    pytest.param(np.array("1"), id="0-d-string-array"),
]


@pytest.mark.parametrize("cls", exported_detector_classes(), ids=lambda c: c.__name__)
@pytest.mark.parametrize("value", _ONE_VALUE)
def test_update_counts_one_number_once(cls, value):
    detector = cls()
    detector.update(value)
    assert detector.n_seen == 1


@pytest.mark.parametrize("cls", exported_detector_classes(), ids=lambda c: c.__name__)
@pytest.mark.parametrize("value", _NOT_ONE_VALUE)
def test_update_refuses_anything_else_before_counting(cls, value):
    detector = cls()
    with pytest.raises(TypeError, match="value must be a number, got "):
        detector.update(value)
    assert detector.n_seen == 0
    assert detector.state_dict() == cls().state_dict()
