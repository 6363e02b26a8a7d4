"""Golden equivalence tests for the batched detector execution engine.

Every exported detector must report *exactly* the same drift and warning
indices through ``update_batch`` as through the element-by-element ``update``
loop — over binary, real-valued, drift-dense and serving-shaped streams,
across multiple drifts/resets, for any chunking of the input (the serving
chunk of 1,024 values and the fast paths' 8,192-value segment included), and
leaving the detector in an indistinguishable internal state afterwards.  The detector line-up is checked
against :func:`repro.detectors.exported_detector_classes`, so adding a
detector without covering it here fails the registry test.
"""

import numpy as np
import pytest

from repro.core.base import DetectionResult, DriftDetector
from repro.core.optwin import Optwin
from repro.detectors import exported_detector_classes
from repro.detectors.adwin import Adwin
from repro.detectors.ddm import Ddm
from repro.detectors.ecdd import Ecdd
from repro.detectors.eddm import Eddm
from repro.detectors.hddm import HddmA
from repro.detectors.kswin import Kswin
from repro.detectors.no_detector import NoDriftDetector
from repro.detectors.page_hinkley import PageHinkley
from repro.detectors.rddm import Rddm
from repro.detectors.stepd import Stepd


def _multi_drift_binary(seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    parts = [
        (rng.random(2_500) < p).astype(np.float64)
        for p in (0.2, 0.6, 0.15, 0.5, 0.3)
    ]
    return np.concatenate(parts)


def _multi_drift_gaussian(seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    parts = [
        rng.normal(mean, std, 2_500)
        for mean, std in ((0.2, 0.05), (0.7, 0.05), (0.3, 0.3), (0.9, 0.1))
    ]
    return np.concatenate(parts)


def _drift_dense_binary(seed: int = 9) -> np.ndarray:
    """Short alternating segments: every detector resets many times."""
    rng = np.random.default_rng(seed)
    parts = [
        (rng.random(400) < p).astype(np.float64)
        for p in (0.05, 0.9) * 8
    ]
    return np.concatenate(parts)


def _bulk_ingest_binary(seed: int = 13) -> np.ndarray:
    """The serving benchmark's shape: 1,024-value segments alternating 10 %
    and 55 % error.  Drifts land mid-chunk after long pre-reset stretches,
    where the fast paths size their next segment from that stretch."""
    rng = np.random.default_rng(seed)
    parts = [
        (rng.random(1_024) < p).astype(np.float64)
        for p in (0.10, 0.55) * 8
    ]
    return np.concatenate(parts)


STREAMS = {
    "binary_multi_drift": _multi_drift_binary(),
    "bulk_ingest": _bulk_ingest_binary(),
    "gaussian_multi_drift": _multi_drift_gaussian(),
    "drift_dense": _drift_dense_binary(),
    "constant": np.full(500, 0.25),
    "tiny": np.asarray([0.0, 1.0, 0.0]),
}

DETECTORS = {
    "optwin": lambda: Optwin(rho=0.5, w_max=5_000),
    "optwin_keep_new": lambda: Optwin(rho=0.5, w_max=5_000, reset_mode="keep_new"),
    "optwin_two_sided": lambda: Optwin(rho=0.5, w_max=5_000, one_sided=False),
    "optwin_no_warning": lambda: Optwin(rho=0.5, w_max=5_000, warning_delta=0.0),
    "optwin_small_window": lambda: Optwin(rho=0.5, w_max=300),
    "optwin_literal": lambda: Optwin(
        rho=0.5, w_max=5_000, skip_variance_on_binary=False, require_magnitude=False
    ),
    "adwin": Adwin,
    "adwin_every_element": lambda: Adwin(clock=1, delta=0.05),
    "ddm": Ddm,
    "eddm": Eddm,
    "stepd": Stepd,
    "stepd_wide": lambda: Stepd(window_size=100, alpha_drift=0.01, alpha_warning=0.2),
    "ecdd": Ecdd,
    "ecdd_arl100": lambda: Ecdd(arl0=100),
    "page_hinkley": PageHinkley,
    "kswin": Kswin,
    "kswin_sensitive": lambda: Kswin(alpha=0.01, window_size=200, stat_size=40, seed=3),
    "rddm": Rddm,
    "rddm_reactive": lambda: Rddm(
        max_concept_size=3_000, min_stable_size=1_000, warning_limit=200
    ),
    "hddm_a": HddmA,
    "no_detector": NoDriftDetector,
}


def test_registry_every_exported_detector_is_covered():
    """The golden suite must exercise every exported detector class."""
    covered = {type(factory()) for factory in DETECTORS.values()}
    missing = [
        cls.__name__
        for cls in exported_detector_classes()
        if cls not in covered
    ]
    assert not missing, f"exported detectors missing golden coverage: {missing}"


def _scalar_reference(detector: DriftDetector, values: np.ndarray):
    drifts, warnings = [], []
    for index, value in enumerate(values):
        outcome = detector.update(value)
        if outcome.drift_detected:
            drifts.append(index)
        if outcome.warning_detected:
            warnings.append(index)
    return drifts, warnings


_TAIL = (np.random.default_rng(42).random(400) < 0.4).astype(np.float64)
_SCALAR_CACHE = {}


def _scalar_fingerprint(detector_name: str, stream_name: str):
    """Scalar-mode reference, memoised across the chunk-size parametrisation.

    Returns drift/warning indices, the counter triple, the last-result flags,
    and the outcomes of continuing the detector on a fixed tail stream (a
    fingerprint of its internal post-run state).
    """
    key = (detector_name, stream_name)
    cached = _SCALAR_CACHE.get(key)
    if cached is None:
        detector = DETECTORS[detector_name]()
        drifts, warnings = _scalar_reference(detector, STREAMS[stream_name])
        counters = (detector.n_seen, detector.n_drifts, detector.n_warnings)
        flags = (detector.drift_detected, detector.warning_detected)
        tail = [detector.update(v).drift_detected for v in _TAIL]
        cached = (drifts, warnings, counters, flags, tail)
        _SCALAR_CACHE[key] = cached
    return cached


def _batched(detector: DriftDetector, values: np.ndarray, chunk: int):
    drifts, warnings = [], []
    for low in range(0, values.shape[0], chunk):
        outcome = detector.update_batch(values[low : low + chunk])
        drifts.extend(low + k for k in outcome.drift_indices)
        warnings.extend(low + k for k in outcome.warning_indices)
    return drifts, warnings


@pytest.mark.parametrize("chunk", [1, 7, 64, 1_024, 8_192, 10**9])
@pytest.mark.parametrize("stream_name", sorted(STREAMS))
@pytest.mark.parametrize("detector_name", sorted(DETECTORS))
def test_batch_matches_scalar(detector_name, stream_name, chunk):
    values = STREAMS[stream_name]
    scalar_drifts, scalar_warnings, counters, flags, scalar_tail = (
        _scalar_fingerprint(detector_name, stream_name)
    )
    batch_detector = DETECTORS[detector_name]()
    batch_drifts, batch_warnings = _batched(batch_detector, values, chunk)

    assert batch_drifts == scalar_drifts
    assert batch_warnings == scalar_warnings
    assert (
        batch_detector.n_seen,
        batch_detector.n_drifts,
        batch_detector.n_warnings,
    ) == counters
    assert (
        batch_detector.drift_detected,
        batch_detector.warning_detected,
    ) == flags

    # The post-batch internal state must be indistinguishable: continuing the
    # detector element-by-element must yield the scalar-mode outcomes.
    batch_tail = [batch_detector.update(v).drift_detected for v in _TAIL]
    assert batch_tail == scalar_tail


def test_optwin_batch_survives_compaction():
    """Long stream + small window: the dead-prefix compaction of PrefixStats
    fires repeatedly in both modes and must not perturb the indices."""
    rng = np.random.default_rng(11)
    parts = [
        (rng.random(9_000) < p).astype(np.float64) for p in (0.2, 0.5, 0.25)
    ]
    values = np.concatenate(parts)
    scalar_detector = Optwin(rho=0.5, w_max=400)
    batch_detector = Optwin(rho=0.5, w_max=400)
    scalar_drifts, scalar_warnings = _scalar_reference(scalar_detector, values)
    result = batch_detector.update_batch(values)
    assert result.drift_indices == scalar_drifts
    assert result.warning_indices == scalar_warnings
    assert batch_detector.window_size == scalar_detector.window_size


def test_optwin_batch_compaction_with_real_values_is_bit_identical():
    """Regression test for the compaction boundary: 0/1 streams have integer
    prefix sums, so their slice-and-rebase compaction is exact — only
    real-valued streams can expose an ulp drift between rebased and
    un-rebased range queries.  A large-magnitude stationary stream with
    ~14,700 evictions forces the rebase mid-stream while warnings fire, and
    the batched indices must still match scalar mode exactly."""
    rng = np.random.default_rng(23)
    values = rng.normal(1e6, 3.0, 15_000) + rng.random(15_000)
    scalar_detector = Optwin(rho=0.5, w_max=300, one_sided=False)
    batch_detector = Optwin(rho=0.5, w_max=300, one_sided=False)
    scalar_drifts, scalar_warnings = _scalar_reference(scalar_detector, values)
    result = batch_detector.update_batch(values)
    assert scalar_warnings  # the stream must actually exercise the tests
    assert result.drift_indices == scalar_drifts
    assert result.warning_indices == scalar_warnings
    assert batch_detector.window_mean == scalar_detector.window_mean
    assert batch_detector.window_std == scalar_detector.window_std


def test_update_many_routes_through_batch():
    values = _multi_drift_binary()
    via_many = Optwin(rho=0.5, w_max=5_000).update_many(values)
    via_batch = Optwin(rho=0.5, w_max=5_000).update_batch(values).drift_indices
    assert via_many == via_batch
    assert via_many  # the stream contains real drifts


@pytest.mark.parametrize("detector_name", sorted(DETECTORS))
def test_collect_stats_matches_scalar_statistics(detector_name):
    values = _multi_drift_binary()[:5_000]
    scalar_detector = DETECTORS[detector_name]()
    batch_detector = DETECTORS[detector_name]()
    scalar_results = [scalar_detector.update(v) for v in values]
    outcome = batch_detector.update_batch(values, collect_stats=True)
    assert outcome.results is not None
    assert len(outcome.results) == len(scalar_results)
    for got, expected in zip(outcome.results, scalar_results):
        assert got.drift_detected == expected.drift_detected
        assert got.warning_detected == expected.warning_detected
        assert got.statistics == expected.statistics


def test_batch_empty_input_is_a_noop():
    for factory in DETECTORS.values():
        detector = factory()
        outcome = detector.update_batch(np.empty(0))
        assert outcome.n_processed == 0
        assert outcome.drift_indices == []
        assert detector.n_seen == 0


def test_batch_accepts_plain_iterables():
    detector = Optwin(rho=0.5, w_max=5_000)
    values = _multi_drift_binary()
    from_list = detector.update_many(values.tolist())
    detector.reset()
    from_generator = detector.update_many(float(v) for v in values)
    detector.reset()
    from_array = detector.update_many(values)
    assert from_list == from_generator == from_array


@pytest.mark.parametrize("detector_name", sorted(DETECTORS))
def test_subclass_overriding_update_one_falls_back_to_scalar(detector_name):
    detector = DETECTORS[detector_name]()

    class Silenced(type(detector)):
        calls = 0

        def _update_one(self, value):
            self.calls += 1
            result = super()._update_one(value)
            if result.drift_detected:
                return DetectionResult(statistics=result.statistics)
            return result

    values = _multi_drift_binary()
    config = detector._config_dict()
    silenced = Silenced.from_config_dict(config)
    outcome = silenced.update_batch(values)
    scalar_drifts, scalar_warnings = _scalar_reference(
        Silenced.from_config_dict(config), values
    )
    assert silenced.calls == len(values)
    assert outcome.drift_indices == scalar_drifts == []
    assert outcome.warning_indices == scalar_warnings
    if not isinstance(detector, NoDriftDetector):
        assert detector.update_many(values) != []
