"""Parallel experiment orchestration for the paper-reproduction grids.

The full evaluation grid of the paper — Table 1's seven blocks x ~8 detectors
x 30 repetitions, the Table 2 accuracy matrix, the significance analysis — is
embarrassingly parallel once it is decomposed into the right unit of work.
This module does that decomposition and owns everything around it:

* **Cells.**  Every (block, detector, repetition) triple is an independent
  :class:`ExperimentCell` with a deterministic seed (``base_seed +
  repetition``), so any subset of cells can be computed in any order, on any
  process, and still produce bit-identical results.
* **Shared stream materialization.**  All detectors of a repetition consume
  the *same* instance/value sequence (the paper's paired comparison), so the
  orchestrator materializes each (stream, seed) pair once per task — instead
  of once per detector, which made the historical drivers regenerate every
  stream ~8x — and keeps a small per-process cache for repeated grids.
* **Process fan-out.**  Tasks (one repetition of one block, covering every
  still-missing detector cell) are executed inline for ``n_jobs=1`` or
  fanned out over a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Everything shipped to workers is picklable plain data plus module-level
  callables; results travel back as JSON-compatible records.
* **Persistence and resume.**  With ``out_path`` every finished cell is
  appended to a JSON-lines file, keyed by a hash of the grid configuration.
  Re-running the same grid loads matching records and computes only the
  missing cells, so interrupted grids resume instead of recomputing.

Determinism contract: for value-stream grids the results are bit-identical
across ``n_jobs`` and ``detector_batch_size`` settings (the detectors' batched
fast paths are observationally equivalent to the scalar loop).  For
prequential grids the results are bit-identical across ``n_jobs``; the
``detector_batch_size`` chunking keeps drift indices exact per chunk but
applies learner resets at the chunk flush (see
:func:`repro.evaluation.prequential.run_prequential`), which is why the chunk
size participates in the prequential configuration hash.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.base import DriftDetector
from repro.core.config import grid_config_hash
from repro.evaluation.drift_metrics import evaluate_detections
from repro.evaluation.experiment import (
    DetectorRunResult,
    DetectorSummary,
    chunked_drift_indices,
)
from repro.evaluation.prequential import PrequentialResult, run_prequential
from repro.exceptions import ConfigurationError
from repro.learners.base import Classifier
from repro.learners.naive_bayes import NaiveBayes
from repro.streams.base import InstanceStream, MaterializedStream, ValueStream

__all__ = [
    "ExperimentCell",
    "decompose_grid",
    "default_learner_factory",
    "grid_config_hash",
    "run_accuracy_grid",
    "run_classification_grid",
    "run_prequential_grid",
    "run_value_grid",
    "stable_token",
]


@dataclass(frozen=True)
class ExperimentCell:
    """One independent unit of grid work: a detector on one seeded repetition.

    Attributes
    ----------
    block:
        Name of the experiment block (or Table-2 dataset) the cell belongs to.
    detector:
        Display name of the detector.
    repetition:
        0-based repetition index within the block.
    seed:
        Stream seed of the repetition (``base_seed + repetition``).
    """

    block: str
    detector: str
    repetition: int
    seed: int


def decompose_grid(
    block: str,
    detector_names: Sequence[str],
    n_repetitions: int,
    base_seed: int = 1,
) -> List[ExperimentCell]:
    """Decompose one block into its independent, deterministically seeded cells."""
    return [
        ExperimentCell(block=block, detector=name, repetition=repetition, seed=base_seed + repetition)
        for repetition in range(n_repetitions)
        for name in detector_names
    ]


def default_learner_factory(stream: InstanceStream) -> Classifier:
    """The paper's classifier: an incremental Naive Bayes over the stream schema."""
    return NaiveBayes(schema=stream.schema, n_classes=stream.n_classes)


#: Substrings that betray a process-dependent identity token (memory
#: addresses in default reprs, anonymous or closure-local callables).
_UNSTABLE_TOKEN_MARKERS = ("<lambda>", "<locals>", " at 0x")


def stable_token(obj: object) -> str:
    """Process-independent identity token of a factory for the config hash.

    ``repr`` of a plain function embeds a per-process memory address, which
    would make every configuration hash unique to its process and turn
    resume-from-partial into a silent no-op.  Functions and classes are
    therefore tokenized by module-qualified name, :func:`functools.partial`
    recursively, and dataclass factories by their (deterministic) field repr.
    """
    if obj is None:
        return "None"
    if isinstance(obj, functools.partial):
        parts = [stable_token(obj.func)]
        parts += [repr(argument) for argument in obj.args]
        parts += [f"{key}={value!r}" for key, value in sorted(obj.keywords.items())]
        return f"functools.partial({', '.join(parts)})"
    if inspect.isclass(obj) or inspect.isfunction(obj):
        return f"{obj.__module__}.{obj.__qualname__}"
    if dataclasses.is_dataclass(obj):
        return f"{type(obj).__module__}.{type(obj).__qualname__}:{obj!r}"
    return repr(obj)


def _require_stable_tokens(tokens: Sequence[str], out_path: Optional[str]) -> None:
    """Persistence needs process-independent tokens; reject anonymous factories.

    Without ``out_path`` the configuration hash is inert, so lambdas and
    other closure-local callables remain fine for in-memory grids.
    """
    if out_path is None:
        return
    unstable = [
        token
        for token in tokens
        if any(marker in token for marker in _UNSTABLE_TOKEN_MARKERS)
    ]
    if unstable:
        raise ConfigurationError(
            "out_path persistence requires module-level (picklable) stream, "
            "learner, and detector factories so the grid can be resumed from "
            f"another process; got process-local factories: {unstable}"
        )


# --------------------------------------------------------------------------
# Per-process stream materialization cache.
# --------------------------------------------------------------------------

#: Materialized streams keyed by (kind, factory repr, seed[, n]); bounded so
#: long grids cannot accumulate every stream they ever generated.
_STREAM_CACHE: "OrderedDict[Tuple, object]" = OrderedDict()
_STREAM_CACHE_MAX = 4


def _cache_get(key: Tuple, build: Callable[[], object]) -> object:
    # Keys hold the factory object itself: that pins the factory alive while
    # its stream is cached, so a recycled id()/repr() of a dead factory can
    # never alias a cache entry.  Unhashable factories simply skip the cache.
    try:
        cached = _STREAM_CACHE.get(key)
    except TypeError:
        return build()
    if cached is not None:
        _STREAM_CACHE.move_to_end(key)
        return cached
    value = build()
    _STREAM_CACHE[key] = value
    while len(_STREAM_CACHE) > _STREAM_CACHE_MAX:
        _STREAM_CACHE.popitem(last=False)
    return value


def _cached_value_stream(factory: Callable[[int], ValueStream], seed: int) -> ValueStream:
    return _cache_get(("value", factory, int(seed)), lambda: factory(seed))


def _cached_materialized_stream(
    builder: Callable[[int], InstanceStream], seed: int, n_instances: int
) -> MaterializedStream:
    key = ("instances", builder, int(seed), int(n_instances))
    return _cache_get(
        key, lambda: MaterializedStream.from_stream(builder(seed), n_instances)
    )


# --------------------------------------------------------------------------
# Task execution (runs in worker processes; everything JSON-safe on return).
# --------------------------------------------------------------------------


def _value_task_records(task: dict) -> List[dict]:
    stream = _cached_value_stream(task["stream_factory"], task["seed"])
    records = []
    for name, factory in task["detectors"]:
        detections = chunked_drift_indices(
            factory(), stream.values, task["detector_batch_size"]
        )
        records.append(
            {
                "config": task["config"],
                "kind": "value",
                "block": task["block"],
                "detector": name,
                "repetition": task["repetition"],
                "seed": task["seed"],
                "detections": [int(index) for index in detections],
                "stream_length": int(len(stream)),
                "drift_positions": [int(p) for p in stream.drift_positions],
            }
        )
    return records


def _prequential_task_records(task: dict) -> List[dict]:
    stream = _cached_materialized_stream(
        task["stream_builder"], task["seed"], task["n_instances"]
    )
    records = []
    for name, factory in task["detectors"]:
        stream.restart()
        learner = task["learner_factory"](stream)
        detector: Optional[DriftDetector] = factory() if factory is not None else None
        result = run_prequential(
            stream=stream,
            learner=learner,
            detector=detector,
            n_instances=stream.n_instances,
            curve_window=task["curve_window"],
            detector_batch_size=task["detector_batch_size"],
        )
        records.append(
            {
                "config": task["config"],
                "kind": "prequential",
                "block": task["block"],
                "detector": name,
                "repetition": task["repetition"],
                "seed": task["seed"],
                "n_instances": int(result.n_instances),
                "n_correct": int(result.n_correct),
                "detections": [int(index) for index in result.detections],
                "warnings": [int(index) for index in result.warnings],
                "accuracy_curve": [float(value) for value in result.accuracy_curve],
                "curve_window": int(result.curve_window),
            }
        )
    return records


def _execute_task(task: dict) -> List[dict]:
    """Run one (block, repetition) task; top-level so it pickles to workers."""
    if task["kind"] == "value":
        return _value_task_records(task)
    return _prequential_task_records(task)


# --------------------------------------------------------------------------
# Grid planning, persistence, and execution.
# --------------------------------------------------------------------------

#: Key of one persisted cell record within its configuration.
_CellKey = Tuple[str, str, str, int, int]


def _record_key(record: Mapping[str, object]) -> _CellKey:
    return (
        str(record["config"]),
        str(record["block"]),
        str(record["detector"]),
        int(record["repetition"]),
        int(record["seed"]),
    )


@dataclass
class _GridPlan:
    """One block's execution plan: its config hash, cells, and work queue."""

    config: str
    block: str
    detector_names: List[str]
    n_repetitions: int
    base_seed: int
    task_template: dict
    detector_factories: Dict[str, Optional[Callable[[], DriftDetector]]]
    records: Dict[_CellKey, dict] = field(default_factory=dict)

    def cell_key(self, detector: str, repetition: int) -> _CellKey:
        return (
            self.config,
            self.block,
            detector,
            repetition,
            self.base_seed + repetition,
        )

    def missing_tasks(self) -> List[dict]:
        """One task per repetition that still has uncomputed detector cells."""
        tasks = []
        for repetition in range(self.n_repetitions):
            missing = [
                (name, self.detector_factories[name])
                for name in self.detector_names
                if self.cell_key(name, repetition) not in self.records
            ]
            if not missing:
                continue
            task = dict(self.task_template)
            task.update(
                repetition=repetition,
                seed=self.base_seed + repetition,
                detectors=missing,
            )
            tasks.append(task)
        return tasks

    def record(self, detector: str, repetition: int) -> dict:
        return self.records[self.cell_key(detector, repetition)]


def _load_records(out_path: str, configs: Sequence[str]) -> Dict[_CellKey, dict]:
    """Load persisted cell records whose configuration hash matches a grid.

    Unparseable lines (e.g. a torn final line from an interrupted run) and
    records of other configurations are skipped, never deleted: the file is an
    append-only log that may serve several grids.
    """
    wanted = set(configs)
    records: Dict[_CellKey, dict] = {}
    if not os.path.exists(out_path):
        return records
    with open(out_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict) or record.get("config") not in wanted:
                continue
            try:
                records[_record_key(record)] = record
            except (KeyError, TypeError, ValueError):
                continue
    return records


def _execute_plans(
    plans: Sequence[_GridPlan], n_jobs: int, out_path: Optional[str]
) -> None:
    """Compute every missing cell of every plan, persisting as results arrive."""
    if out_path:
        loaded = _load_records(out_path, [plan.config for plan in plans])
        by_config = {plan.config: plan for plan in plans}
        for key, record in loaded.items():
            by_config[key[0]].records[key] = record

    tasks = [task for plan in plans for task in plan.missing_tasks()]
    if not tasks:
        return

    by_config = {plan.config: plan for plan in plans}
    sink = None
    try:
        if out_path:
            directory = os.path.dirname(os.path.abspath(out_path))
            os.makedirs(directory, exist_ok=True)
            # An interrupted run may have left a torn final line; start
            # appending on a fresh line so the torn record cannot corrupt
            # the next one.
            needs_newline = False
            if os.path.exists(out_path) and os.path.getsize(out_path) > 0:
                with open(out_path, "rb") as tail:
                    tail.seek(-1, os.SEEK_END)
                    needs_newline = tail.read(1) != b"\n"
            sink = open(out_path, "a", encoding="utf-8")
            if needs_newline:
                sink.write("\n")
        if n_jobs <= 1 or len(tasks) == 1:
            batches = map(_execute_task, tasks)
            for batch in batches:
                _absorb(batch, by_config, sink)
        else:
            with ProcessPoolExecutor(max_workers=n_jobs) as pool:
                futures = [pool.submit(_execute_task, task) for task in tasks]
                for future in as_completed(futures):
                    _absorb(future.result(), by_config, sink)
    finally:
        if sink is not None:
            sink.close()


def _absorb(
    batch: List[dict], by_config: Dict[str, _GridPlan], sink
) -> None:
    for record in batch:
        by_config[record["config"]].records[_record_key(record)] = record
        if sink is not None:
            sink.write(json.dumps(record, sort_keys=True) + "\n")
    if sink is not None:
        sink.flush()


def _validate(n_repetitions: int, n_jobs: int, detector_batch_size: Optional[int]) -> None:
    if n_repetitions < 1:
        raise ConfigurationError(f"n_repetitions must be >= 1, got {n_repetitions}")
    if n_jobs < 1:
        raise ConfigurationError(f"n_jobs must be >= 1, got {n_jobs}")
    if detector_batch_size is not None and detector_batch_size < 1:
        raise ConfigurationError(
            f"detector_batch_size must be None or >= 1, got {detector_batch_size}"
        )


# --------------------------------------------------------------------------
# Public grid runners.
# --------------------------------------------------------------------------


def run_value_grid(
    stream_factory: Callable[[int], ValueStream],
    detector_factories: Mapping[str, Callable[[], DriftDetector]],
    n_repetitions: int = 30,
    base_seed: int = 1,
    n_jobs: int = 1,
    detector_batch_size: Optional[int] = None,
    max_delay: Optional[int] = None,
    out_path: Optional[str] = None,
    block: str = "value-grid",
) -> Dict[str, DetectorSummary]:
    """Run a value-stream detector grid (Table 1's error-stream blocks).

    Results are bit-identical to the sequential scalar loop for every
    ``n_jobs``/``detector_batch_size`` combination; the chunk size is
    therefore *not* part of the configuration hash, so a grid persisted at
    one chunk size resumes seamlessly at another.
    """
    _validate(n_repetitions, n_jobs, detector_batch_size)
    stream_token = stable_token(stream_factory)
    detector_tokens = sorted(
        [name, stable_token(factory)] for name, factory in detector_factories.items()
    )
    _require_stable_tokens(
        [stream_token] + [token for _, token in detector_tokens], out_path
    )
    config = grid_config_hash(
        {
            "schema_version": 1,
            "kind": "value",
            "block": block,
            "stream_factory": stream_token,
            "detectors": detector_tokens,
        }
    )
    plan = _GridPlan(
        config=config,
        block=block,
        detector_names=list(detector_factories),
        n_repetitions=n_repetitions,
        base_seed=base_seed,
        detector_factories=dict(detector_factories),
        task_template={
            "kind": "value",
            "config": config,
            "block": block,
            "stream_factory": stream_factory,
            "detector_batch_size": detector_batch_size,
        },
    )
    _execute_plans([plan], n_jobs, out_path)

    summaries = {}
    for name in detector_factories:
        summary = DetectorSummary(detector_name=name)
        for repetition in range(n_repetitions):
            record = plan.record(name, repetition)
            evaluation = evaluate_detections(
                drift_positions=record["drift_positions"],
                detections=record["detections"],
                stream_length=record["stream_length"],
                max_delay=max_delay,
            )
            summary.runs.append(
                DetectorRunResult(
                    detections=list(record["detections"]), evaluation=evaluation
                )
            )
        summaries[name] = summary
    return summaries


def run_prequential_grid(
    stream_builder: Callable[[int], InstanceStream],
    detector_factories: Mapping[str, Optional[Callable[[], DriftDetector]]],
    n_instances: int,
    learner_factory: Callable[[InstanceStream], Classifier] = default_learner_factory,
    n_repetitions: int = 30,
    base_seed: int = 1,
    n_jobs: int = 1,
    detector_batch_size: Optional[int] = None,
    curve_window: int = 1000,
    out_path: Optional[str] = None,
    block: str = "prequential-grid",
) -> Dict[str, List[PrequentialResult]]:
    """Run a prequential detector grid and return raw per-repetition results.

    ``detector_batch_size=None`` (the default) runs the exact scalar
    test-then-train loop; larger chunks cut detector overhead but apply
    learner resets at the chunk flush, so the chunk size participates in the
    configuration hash.  Streams that declare their own length (the
    real-world surrogates) are clamped to it during materialization.
    """
    _validate(n_repetitions, n_jobs, detector_batch_size)
    if n_instances < 1:
        raise ConfigurationError(f"n_instances must be >= 1, got {n_instances}")
    batch_size = 1 if detector_batch_size is None else detector_batch_size
    stream_token = stable_token(stream_builder)
    learner_token = stable_token(learner_factory)
    detector_tokens = sorted(
        [name, stable_token(factory)] for name, factory in detector_factories.items()
    )
    _require_stable_tokens(
        [stream_token, learner_token] + [token for _, token in detector_tokens],
        out_path,
    )
    config = grid_config_hash(
        {
            "schema_version": 1,
            "kind": "prequential",
            "block": block,
            "stream_builder": stream_token,
            "learner_factory": learner_token,
            "detectors": detector_tokens,
            "n_instances": n_instances,
            "curve_window": curve_window,
            "detector_batch_size": batch_size,
        }
    )
    plan = _GridPlan(
        config=config,
        block=block,
        detector_names=list(detector_factories),
        n_repetitions=n_repetitions,
        base_seed=base_seed,
        detector_factories=dict(detector_factories),
        task_template={
            "kind": "prequential",
            "config": config,
            "block": block,
            "stream_builder": stream_builder,
            "learner_factory": learner_factory,
            "n_instances": n_instances,
            "curve_window": curve_window,
            "detector_batch_size": batch_size,
        },
    )
    _execute_plans([plan], n_jobs, out_path)

    results: Dict[str, List[PrequentialResult]] = {}
    for name in detector_factories:
        results[name] = [
            _prequential_result(plan.record(name, repetition))
            for repetition in range(n_repetitions)
        ]
    return results


def _prequential_result(record: Mapping[str, object]) -> PrequentialResult:
    return PrequentialResult(
        n_instances=int(record["n_instances"]),
        n_correct=int(record["n_correct"]),
        detections=list(record["detections"]),
        warnings=list(record["warnings"]),
        accuracy_curve=list(record["accuracy_curve"]),
        curve_window=int(record["curve_window"]),
    )


def run_classification_grid(
    stream_builder: Callable[[int], InstanceStream],
    detector_factories: Mapping[str, Optional[Callable[[], DriftDetector]]],
    n_instances: int,
    drift_positions: Sequence[int],
    learner_factory: Callable[[InstanceStream], Classifier] = default_learner_factory,
    n_repetitions: int = 30,
    base_seed: int = 1,
    n_jobs: int = 1,
    detector_batch_size: Optional[int] = None,
    max_delay: Optional[int] = None,
    out_path: Optional[str] = None,
    block: str = "classification-grid",
) -> Dict[str, DetectorSummary]:
    """Prequential grid scored against known drift positions (Table 1 style)."""
    results = run_prequential_grid(
        stream_builder=stream_builder,
        detector_factories=detector_factories,
        n_instances=n_instances,
        learner_factory=learner_factory,
        n_repetitions=n_repetitions,
        base_seed=base_seed,
        n_jobs=n_jobs,
        detector_batch_size=detector_batch_size,
        out_path=out_path,
        block=block,
    )
    summaries: Dict[str, DetectorSummary] = {}
    for name, runs in results.items():
        summary = DetectorSummary(detector_name=name)
        for run in runs:
            evaluation = evaluate_detections(
                drift_positions=drift_positions,
                detections=run.detections,
                stream_length=run.n_instances,
                max_delay=max_delay,
            )
            summary.runs.append(
                DetectorRunResult(detections=run.detections, evaluation=evaluation)
            )
        summaries[name] = summary
    return summaries


def run_accuracy_grid(
    dataset_builders: Mapping[str, Callable[[int], InstanceStream]],
    detector_factories: Mapping[str, Optional[Callable[[], DriftDetector]]],
    n_instances: int,
    learner_factory: Callable[[InstanceStream], Classifier] = default_learner_factory,
    n_repetitions: int = 1,
    base_seed: int = 1,
    n_jobs: int = 1,
    detector_batch_size: Optional[int] = None,
    curve_window: int = 1000,
    out_path: Optional[str] = None,
) -> Dict[str, Dict[str, float]]:
    """Run the Table-2 accuracy matrix: datasets x detectors x repetitions.

    Every dataset becomes its own block (and configuration hash); all blocks
    share one process pool, so the whole matrix fans out at once.  Returns
    ``{detector: {dataset: mean accuracy}}`` in line-up order.
    """
    _validate(n_repetitions, n_jobs, detector_batch_size)
    if n_instances < 1:
        raise ConfigurationError(f"n_instances must be >= 1, got {n_instances}")
    batch_size = 1 if detector_batch_size is None else detector_batch_size

    learner_token = stable_token(learner_factory)
    detector_tokens = sorted(
        [name, stable_token(factory)] for name, factory in detector_factories.items()
    )
    plans: "OrderedDict[str, _GridPlan]" = OrderedDict()
    for dataset_name, builder in dataset_builders.items():
        builder_token = stable_token(builder)
        _require_stable_tokens(
            [builder_token, learner_token] + [token for _, token in detector_tokens],
            out_path,
        )
        config = grid_config_hash(
            {
                "schema_version": 1,
                "kind": "prequential",
                "block": dataset_name,
                "stream_builder": builder_token,
                "learner_factory": learner_token,
                "detectors": detector_tokens,
                "n_instances": n_instances,
                "curve_window": curve_window,
                "detector_batch_size": batch_size,
            }
        )
        plans[dataset_name] = _GridPlan(
            config=config,
            block=dataset_name,
            detector_names=list(detector_factories),
            n_repetitions=n_repetitions,
            base_seed=base_seed,
            detector_factories=dict(detector_factories),
            task_template={
                "kind": "prequential",
                "config": config,
                "block": dataset_name,
                "stream_builder": builder,
                "learner_factory": learner_factory,
                "n_instances": n_instances,
                "curve_window": curve_window,
                "detector_batch_size": batch_size,
            },
        )
    _execute_plans(list(plans.values()), n_jobs, out_path)

    accuracies: Dict[str, Dict[str, float]] = {name: {} for name in detector_factories}
    for dataset_name, plan in plans.items():
        for detector_name in detector_factories:
            total_accuracy = 0.0
            for repetition in range(n_repetitions):
                total_accuracy += _prequential_result(
                    plan.record(detector_name, repetition)
                ).accuracy
            accuracies[detector_name][dataset_name] = total_accuracy / n_repetitions
    return accuracies
