"""Common interface shared by every drift detector in the library.

All detectors — OPTWIN itself and every baseline — implement the same
streaming protocol so that evaluation code, pipelines, and benchmarks can be
written once and parameterised by detector:

>>> detector = SomeDetector()
>>> for value in error_stream:
...     result = detector.update(value)
...     if result.drift_detected:
...         retrain_model()

``update`` accepts one monitored value (a binary error indicator or a
real-valued loss), returns a :class:`DetectionResult`, and also mirrors the
outcome in the ``drift_detected`` / ``warning_detected`` properties for
callers that prefer the River-style property API.
"""

from __future__ import annotations

import abc
import collections.abc
import numbers
import reprlib
import struct
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
)

import numpy as np

from repro.exceptions import SnapshotError

if TYPE_CHECKING:
    from repro.core.ppf_tables import CutTable

#: Version of the detector snapshot schema produced by
#: :meth:`DriftDetector.state_dict`.  Bump whenever the layout of the
#: serialized payload changes incompatibly; :meth:`DriftDetector.load_state_dict`
#: refuses snapshots from a different version.
SNAPSHOT_SCHEMA_VERSION = 1


def _as_value(value: Any) -> float:
    """One monitored value as a float (the input rule of
    :meth:`DriftDetector.update`): the scalar half of :func:`as_value_array`'s
    rule, plus a 0-d array numpy reads as booleans, integers or floats.
    Anything else, numeric strings included, raises :class:`TypeError`
    naming it."""
    if isinstance(value, (numbers.Real, np.bool_)) or (
        isinstance(value, np.ndarray)
        and value.ndim == 0
        and value.dtype.kind in "biuf"
    ):
        return float(value)
    raise TypeError(f"value must be a number, got {reprlib.repr(value)}")


def as_value_array(values: Any) -> "np.ndarray":
    """Coerce monitored values into a contiguous 1-d float64 vector.

    This is the one input rule of :meth:`DriftDetector.update_batch` (both
    of its paths) and of the hubs' payload check.  A real scalar — anything
    :class:`numbers.Real`, which includes numpy scalars such as
    ``np.float32``, plus ``np.bool_``, which registers in no ``numbers``
    ABC — is one value.  A list (an iterator is listed first) converts in
    one pass, each item as :func:`float` reads a number, never a string;
    any other flat (at most 1-d) array-like whose items numpy reads as
    booleans, integers or floats converts to float64.  Anything else — a
    string (numeric ones such as ``"1"`` or ``"nan"`` included), a mapping,
    ``None`` (bare or in a list), or a nested or ragged list — raises
    :class:`TypeError`.

    On what a JSON decoder returns (floats, integers that fit 64 bits,
    booleans, ``None``, strings, lists, dicts) the list rule accepts
    exactly the lists numpy reads as booleans, integers or floats, with the
    same float64 values.  It also converts items numpy reads as objects:
    ``Decimal``, ``Fraction``, integers beyond 64 bits, anything with
    ``__float__`` or ``__index__`` (a numpy complex scalar gives its real
    part, with numpy's ``ComplexWarning``).
    """
    if isinstance(values, np.ndarray) and values.ndim == 1:
        if values.dtype == np.float64:
            return np.ascontiguousarray(values)
    elif isinstance(values, (numbers.Real, np.bool_)):
        return np.array([float(values)], dtype=np.float64)
    elif isinstance(values, collections.abc.Iterator):
        values = list(values)  # a generator, which np.asarray would not unpack
    if isinstance(values, list):
        n = len(values)
        array = np.empty(n, dtype=np.float64)
        try:
            # struct reads each item as a C double (native "d", the
            # conversion array.array("d") makes) in one pass; numpy would
            # first walk the list to discover a dtype.
            struct.pack_into(f"{n}d", array, 0, *values)
            return array
        except (TypeError, ValueError, OverflowError, struct.error):
            pass  # numpy decides below, and words any refusal
    try:
        # No dtype: numpy would parse numeric strings into floats.  The kind
        # it infers tells plain numbers from anything else.
        read = np.asarray(values)
    except (TypeError, ValueError):  # a ragged list
        pass
    else:
        if read.ndim <= 1 and read.dtype.kind in "biuf":
            # ascontiguousarray returns a 0-d array as a one-element vector.
            return np.ascontiguousarray(read, dtype=np.float64)
    raise TypeError(
        "values must be a number or a flat list of numbers, "
        f"got {reprlib.repr(values)}"
    )


def _rebuild_detector(
    cls: Type["DriftDetector"],
    config: Dict[str, Any],
    state: Dict[str, Any],
) -> "DriftDetector":
    """Unpickling hook of :meth:`DriftDetector.__reduce__` (top-level so it
    pickles by reference)."""
    detector = cls.from_config_dict(config)
    detector.load_state_dict(state)
    return detector

def seeded_running_argmin(
    values: "np.ndarray", seed: float, strict: bool = False
) -> "np.ndarray":
    """Index of the running minimum of ``values`` seeded with ``seed``.

    Returns ``change_index`` with ``change_index[j]`` = the last position
    ``k <= j`` where ``values[k]`` improved on the minimum of ``seed`` and all
    earlier values, or ``-1`` while the seed still holds.  With
    ``strict=False`` ties count as improvements (the index moves forward, as
    DDM's ``p_min``/``s_min`` update does); with ``strict=True`` they do not
    (HDDM's best-prefix update).  ``values`` must be non-empty.

    This is the shared kernel of the error-indicator detectors' batched fast
    paths: the scalar codes keep "statistics recorded at the best element so
    far" (DDM and RDDM their minimum ``p + s``, HDDM_A its lowest Hoeffding
    bound), and the batched forms recover those records for *every* position
    of a segment at once by gathering at ``change_index``.
    """
    count = values.shape[0]
    running_prev = np.empty(count, dtype=np.float64)
    running_prev[0] = seed
    if count > 1:
        np.minimum.accumulate(values[:-1], out=running_prev[1:])
        np.minimum(running_prev[1:], seed, out=running_prev[1:])
    changed = values < running_prev if strict else values <= running_prev
    change_index = np.where(changed, np.arange(count), -1)
    np.maximum.accumulate(change_index, out=change_index)
    return change_index


__all__ = [
    "DriftType",
    "DetectionResult",
    "BatchResult",
    "DriftDetector",
    "as_value_array",
    "seeded_running_argmin",
    "SNAPSHOT_SCHEMA_VERSION",
]


class DriftType(str, Enum):
    """Which statistic triggered a drift flag."""

    MEAN = "mean"
    VARIANCE = "variance"
    DISTRIBUTION = "distribution"


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of feeding one element to a drift detector.

    Attributes
    ----------
    drift_detected:
        Whether a concept drift was flagged at this element.
    warning_detected:
        Whether the detector entered (or stayed in) its warning zone.
    drift_type:
        Which statistic triggered the drift, when the detector can tell.
    statistics:
        Free-form diagnostic values (test statistics, thresholds, window
        sizes) useful for debugging and reporting; never required by callers.
    """

    drift_detected: bool = False
    warning_detected: bool = False
    drift_type: Optional[DriftType] = None
    statistics: Dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.drift_detected


@dataclass
class BatchResult:
    """Outcome of feeding a chunk of elements to a drift detector.

    Attributes
    ----------
    n_processed:
        Number of elements consumed from the chunk (always the full chunk).
    drift_indices:
        0-based positions within the chunk where drifts were flagged.
    warning_indices:
        0-based positions within the chunk where the warning zone was active
        (drift positions are *not* repeated here unless the detector reports
        the element as both, which all detectors in this library do — a drift
        element always counts as a warning element as well).
    results:
        Per-element :class:`DetectionResult` objects, only populated when the
        batch was run with ``collect_stats=True``; ``None`` otherwise so the
        fast paths never allocate per-element objects.
    """

    n_processed: int
    drift_indices: List[int] = field(default_factory=list)
    warning_indices: List[int] = field(default_factory=list)
    results: Optional[List[DetectionResult]] = None

    @property
    def n_drifts(self) -> int:
        """Number of drifts flagged inside the chunk."""
        return len(self.drift_indices)


class DriftDetector(abc.ABC):
    """Abstract base class for error-rate-based concept-drift detectors.

    A detector declares what it is made of and implements one step:

    * ``_CONFIG`` names its constructor keywords, each stored as
      ``self._<name>``; :meth:`_config_dict` reads them.
    * ``_STATE`` names its mutable fields, each stored as ``self._<name>``;
      :meth:`_state_dict` saves them and :meth:`_load_state` restores each
      to the type :meth:`_init_state` gives it (a deque is saved as a list
      and restored as a deque of floats with the same ``maxlen``).
    * :meth:`_init_state` sets those fields to their post-construction
      values; ``__init__`` ends by calling it, and :meth:`reset` is
      ``_init_state()`` plus the counters.
    * :meth:`_update_one` processes one value; the public :meth:`update`
      wraps it with element counting and result bookkeeping, so every
      detector exposes identical statistics.
    * Optionally, :meth:`_batch_kernel` is a vectorised batch path, which
      :meth:`update_batch` drives; without one, :meth:`update_batch` is the
      scalar loop over :meth:`update`.

    A detector whose state is more than plain scalars and deques (ADWIN's
    bucket rows, KSWIN's RNG, ECDD's estimator, OPTWIN's prefix arrays)
    extends or replaces the two snapshot methods.
    """

    #: Constructor keywords, each stored as ``self._<name>``.
    _CONFIG: ClassVar[Tuple[str, ...]] = ()
    #: Mutable fields (set by :meth:`_init_state`), each stored as
    #: ``self._<name>`` and saved under ``<name>``, in this order.
    _STATE: ClassVar[Tuple[str, ...]] = ()

    #: Maximum number of elements evaluated by one vectorised segment of a
    #: batch kernel, and the first segment's length in every call.  Shared
    #: by every kernel through :meth:`_segment_limit`, so the segmentation
    #: policy is tuned in one place.
    _BATCH_CHUNK = 8192
    #: Smallest segment after a drift/boundary event.  The segment after a
    #: drift is as long as the stretch the detector consumed since its
    #: previous reset, so a 1,024-value serving chunk whose drifts are
    #: thousands of values apart finishes in one segment, while drift-dense
    #: streams (drifts under this many values apart) do not redo full-chunk
    #: vector work for every few consumed elements.
    _BATCH_RESTART = 256
    #: Whether :meth:`update_batch` may run this class's :meth:`_batch_kernel`:
    #: the class has one, and its ``_update_one`` is the one the kernel was
    #: written for (a subclass that replaces ``_update_one`` gets the scalar
    #: loop, so its customisation is honoured).  Set once per class.
    _runs_kernel: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        owner = next(
            klass for klass in cls.__mro__ if "_batch_kernel" in vars(klass)
        )
        cls._runs_kernel = (
            owner is not DriftDetector and cls._update_one is owner._update_one
        )

    def __init__(self) -> None:
        self._n_seen = 0
        self._n_drifts = 0
        self._n_warnings = 0
        self._last_result = DetectionResult()

    # ------------------------------------------------------------------ API

    def update(self, value: float) -> DetectionResult:
        """Feed one monitored value and return the detection outcome.

        ``value`` must be one number — a :class:`numbers.Real`, an
        ``np.bool_`` or a 0-d numeric array, as :func:`as_value_array`
        takes a scalar; anything else, numeric strings included, raises
        :class:`TypeError` before the detector counts or sees it.
        """
        # Builtin numbers (np.float64 is a float) skip the ABC checks.
        value = float(value) if isinstance(value, (float, int)) else _as_value(value)
        self._n_seen += 1
        result = self._update_one(value)
        self._last_result = result
        if result.drift_detected:
            self._n_drifts += 1
        if result.warning_detected:
            self._n_warnings += 1
        return result

    def update_many(self, values: Iterable[float]) -> List[int]:
        """Feed many values; return the 0-based indices where drifts fired.

        Routed through :meth:`update_batch`, so detectors with a vectorised
        batch implementation serve this call at batch speed while reporting
        exactly the same drift indices as element-by-element :meth:`update`.
        """
        return self.update_batch(values).drift_indices

    def update_batch(
        self, values: Iterable[float], collect_stats: bool = False
    ) -> BatchResult:
        """Feed a chunk of values and return the aggregated outcome.

        With a batch kernel (see :meth:`_batch_kernel`) the chunk is consumed
        by repeated kernel calls, each starting where the previous one
        stopped and bounded by the segment limit the previous one returned;
        otherwise, and whenever ``collect_stats`` is set, it is the scalar
        loop over :meth:`update`.  Both are *observationally equivalent*:
        identical drift and warning indices, identical post-batch detector
        state, and identical ``n_seen``/``n_drifts``/``n_warnings`` counters.

        Parameters
        ----------
        values:
            Chunk of monitored values, oldest first: one real number or a
            flat array-like of them (see :func:`as_value_array`, which
            raises :class:`TypeError` on anything else before any value is
            processed).
        collect_stats:
            When ``True``, per-element :class:`DetectionResult` objects
            (including their diagnostic ``statistics`` dicts) are collected in
            :attr:`BatchResult.results`.  This mode always runs the scalar
            loop — ask for statistics only when you need them.
        """
        array = as_value_array(values)
        n = array.shape[0]
        drift_indices: List[int] = []
        warning_indices: List[int] = []
        if collect_stats or not self._runs_kernel:
            results: Optional[List[DetectionResult]] = [] if collect_stats else None
            for index, value in enumerate(array.tolist()):
                outcome = self.update(value)
                if outcome.drift_detected:
                    drift_indices.append(index)
                if outcome.warning_detected:
                    warning_indices.append(index)
                if results is not None:
                    results.append(outcome)
            return BatchResult(n, drift_indices, warning_indices, results)
        if n == 0:
            return BatchResult(0)
        drift_type: Optional[DriftType] = None
        position = 0
        limit = self._BATCH_CHUNK
        while position < n:
            consumed, limit, drift_type = self._batch_kernel(
                array, position, limit, drift_indices, warning_indices
            )
            position += consumed
        return self._finish_batch(n, drift_indices, warning_indices, drift_type)

    def _batch_kernel(
        self,
        values: "np.ndarray",
        position: int,
        limit: int,
        drifts: List[int],
        warnings: List[int],
    ) -> Tuple[int, int, Optional[DriftType]]:
        """Vectorised batch path of a detector (the base class has none).

        Consumes ``count >= 1`` values of ``values`` from ``position`` on
        and updates the detector state exactly as :meth:`_update_one` would
        have for each of them; a vectorised segment covers at most
        ``limit`` values, and sequential kernels may take the rest of the
        chunk in one call.  Appends the positions in ``values`` of the
        drifts and warnings it flags to ``drifts`` and ``warnings`` (a
        drift is also a warning), in ascending order, and returns
        ``(count, next_limit, drift_type)``: ``next_limit`` from
        :meth:`_segment_limit`, and ``drift_type`` the type of a drift at
        the last consumed value.  The counters and ``last_result`` are left
        to :meth:`update_batch`.
        """
        raise NotImplementedError

    @abc.abstractmethod
    def _update_one(self, value: float) -> DetectionResult:
        """Process one value and return the detection outcome."""

    def _init_state(self) -> None:
        """Set every mutable field to its post-construction value.

        Clears internal windows/estimators (and re-seeds any internal RNG)
        while keeping configuration and data-independent pre-computed
        tables.  The base class has no state.
        """

    def _table_demand(self) -> Optional[Tuple["CutTable", int]]:
        """The cut table this detector reads and the length it needs filled.

        A serving hub fills that table before the monitor's first value
        (:func:`repro.core.ppf_tables.build_in_child`); ``None``, the base
        class's answer, means the detector reads no table.
        """
        return None

    def reset(self) -> None:
        """Return the detector to its initial (post-construction) state.

        That is :meth:`_init_state` plus the bookkeeping counters.  The
        snapshot/restore machinery of :mod:`repro.serving` depends on this
        being *exactly* the post-``__init__`` state, and the registry-driven
        reset-equals-fresh-instance test enforces it for every detector.
        """
        self._init_state()
        self._reset_counters()

    # ---------------------------------------------------- snapshot / restore

    def state_dict(self) -> Dict[str, Any]:
        """Serialize the full detector state as a versioned, JSON-safe dict.

        The payload contains everything needed to resume the detector
        *bit-exactly*: a restored detector produces the same detections, in
        both scalar and batched mode, as one that never stopped.  Layout::

            {
                "schema_version": 1,
                "detector": "<class name>",
                "config": {...},       # constructor kwargs (see _config_dict)
                "counters": {...},     # n_seen / n_drifts / n_warnings
                "last_result": {...},  # drift/warning flags + drift type
                "state": {...},        # detector-specific (see _state_dict)
            }

        All values are plain Python scalars, lists, and dicts.  Non-finite
        floats (``inf`` sentinels of DDM-family minima) do appear; use
        :func:`repro.serving.snapshot.sanitize` before writing strict JSON.
        """
        last = self._last_result
        return {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "detector": type(self).__name__,
            "config": self._config_dict(),
            "counters": {
                "n_seen": self._n_seen,
                "n_drifts": self._n_drifts,
                "n_warnings": self._n_warnings,
            },
            "last_result": {
                "drift_detected": last.drift_detected,
                "warning_detected": last.warning_detected,
                "drift_type": last.drift_type.value if last.drift_type else None,
            },
            "state": self._state_dict(),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        The receiving instance must be of the same class and (for bit-exact
        resumption) constructed with the same configuration; use
        :func:`repro.serving.snapshot.restore_detector` to rebuild an
        instance straight from a snapshot.
        """
        version = state.get("schema_version")
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise SnapshotError(
                f"snapshot schema version {version!r} is not supported "
                f"(expected {SNAPSHOT_SCHEMA_VERSION})"
            )
        detector = state.get("detector")
        if detector != type(self).__name__:
            raise SnapshotError(
                f"snapshot of {detector!r} cannot be loaded into "
                f"{type(self).__name__}"
            )
        try:
            counters = state["counters"]
            self._n_seen = int(counters["n_seen"])
            self._n_drifts = int(counters["n_drifts"])
            self._n_warnings = int(counters["n_warnings"])
            last = state["last_result"]
            drift_type = last.get("drift_type")
            self._last_result = DetectionResult(
                drift_detected=bool(last["drift_detected"]),
                warning_detected=bool(last["warning_detected"]),
                drift_type=DriftType(drift_type) if drift_type else None,
            )
            self._load_state(state["state"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"corrupt detector snapshot: {exc}") from exc

    @classmethod
    def from_config_dict(cls, config: Mapping[str, Any]) -> "DriftDetector":
        """Build a fresh detector from a snapshot's ``config`` payload."""
        return cls(**config)

    def __reduce__(self) -> Tuple[Any, ...]:
        """Pickle through the bit-exact snapshot machinery.

        Detectors cross process boundaries in the sharded serving layer
        (registration messages, ``ProcessPoolExecutor`` fan-outs), and default
        attribute pickling would duplicate shared per-configuration caches
        (OPTWIN's cut tables) and silently miss any state a future detector
        keeps in non-picklable form.  Routing the pickle through
        ``from_config_dict`` + ``load_state_dict`` reuses the contract the
        snapshot round-trip suite already pins for every detector: the
        unpickled instance continues bit-exactly.
        """
        return (_rebuild_detector, (type(self), self._config_dict(), self.state_dict()))

    def _config_dict(self) -> Dict[str, Any]:
        """Constructor kwargs that rebuild an identically configured instance
        (the ``_CONFIG`` keywords, in order)."""
        return {name: getattr(self, "_" + name) for name in self._CONFIG}

    def _state_dict(self) -> Dict[str, Any]:
        """Detector-specific mutable state (the ``_STATE`` fields, in order;
        a deque is saved as a list)."""
        state: Dict[str, Any] = {}
        for name in self._STATE:
            value = getattr(self, "_" + name)
            state[name] = list(value) if isinstance(value, deque) else value
        return state

    def _load_state(self, state: Mapping[str, Any]) -> None:
        """Restore the payload produced by :meth:`_state_dict`.

        Each field gets the type :meth:`_init_state` gives it: a deque is
        rebuilt as a deque of floats with the same ``maxlen``, any other
        field is converted by its initial value's type (``int``, ``float``).
        """
        self._init_state()
        for name in self._STATE:
            initial = getattr(self, "_" + name)
            value = state[name]
            if isinstance(initial, deque):
                value = deque((float(item) for item in value), maxlen=initial.maxlen)
            else:
                value = type(initial)(value)
            setattr(self, "_" + name, value)

    # ----------------------------------------------------------- properties

    @property
    def drift_detected(self) -> bool:
        """Whether the most recent :meth:`update` flagged a drift."""
        return self._last_result.drift_detected

    @property
    def warning_detected(self) -> bool:
        """Whether the most recent :meth:`update` flagged a warning."""
        return self._last_result.warning_detected

    @property
    def last_result(self) -> DetectionResult:
        """The full :class:`DetectionResult` of the most recent update."""
        return self._last_result

    @property
    def n_seen(self) -> int:
        """Total number of values fed to the detector (across resets)."""
        return self._n_seen

    @property
    def n_drifts(self) -> int:
        """Total number of drifts flagged so far."""
        return self._n_drifts

    @property
    def n_warnings(self) -> int:
        """Total number of warning-zone updates so far."""
        return self._n_warnings

    # ------------------------------------------------------------- helpers

    def _reset_counters(self) -> None:
        """Reset the bookkeeping counters (the second half of :meth:`reset`)."""
        self._n_seen = 0
        self._n_drifts = 0
        self._n_warnings = 0
        self._last_result = DetectionResult()

    def _segment_limit(self, stretch: int) -> int:
        """Length of a fast path's next vectorised segment.

        After a drift, ``stretch`` is the number of values the detector
        consumed since its previous reset: the next drift is likely about
        as far away, so one segment of that length covers the rest of a
        typical chunk without paying the vector set-up twice.  After a
        segment that ended without one, ``stretch`` is four times the
        previous limit (geometric growth back to :attr:`_BATCH_CHUNK`).
        The result is clamped to ``[_BATCH_RESTART, _BATCH_CHUNK]``.
        Segment lengths never change detections, only how much vector
        work a drift discards.
        """
        return min(max(stretch, self._BATCH_RESTART), self._BATCH_CHUNK)

    def _finish_batch(
        self,
        n_processed: int,
        drift_indices: List[int],
        warning_indices: List[int],
        drift_type: Optional[DriftType],
    ) -> BatchResult:
        """Commit a kernel-driven batch to the counters and build its result.

        Reconstructs the final element's drift/warning flags from the index
        lists (which are ascending by construction) and mirrors them into
        ``last_result``; ``drift_type`` is reported only when the final
        element was a drift.
        """
        last_drift = bool(drift_indices) and drift_indices[-1] == n_processed - 1
        self._last_result = DetectionResult(
            drift_detected=last_drift,
            warning_detected=(
                bool(warning_indices) and warning_indices[-1] == n_processed - 1
            ),
            drift_type=drift_type if last_drift else None,
        )
        self._n_seen += n_processed
        self._n_drifts += len(drift_indices)
        self._n_warnings += len(warning_indices)
        return BatchResult(n_processed, drift_indices, warning_indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n_seen={self._n_seen}, n_drifts={self._n_drifts})"
