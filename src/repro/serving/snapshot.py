"""Detector snapshot serialization for the serving layer.

:meth:`repro.core.base.DriftDetector.state_dict` produces a versioned dict of
plain Python values that resumes a detector *bit-exactly* — but the payload
may contain non-finite floats (the ``inf`` minima of the DDM family), which
strict JSON cannot represent.  This module provides:

* :func:`sanitize` / :func:`desanitize` — lossless transforms between raw
  state dicts and strictly-JSON-safe payloads (non-finite floats become
  ``{"$float": "Infinity"}`` sentinels);
* :func:`snapshot_detector` / :func:`restore_detector` — the one-call
  round-trip used by :class:`repro.serving.hub.MonitorHub`: serialize any
  registered detector to a JSON-safe dict, and rebuild an identically
  configured, identically positioned instance from one;
* :func:`detector_registry` — name → class lookup over every exported
  detector (class names plus upper-case aliases such as ``"OPTWIN"``), so
  wire protocols and checkpoints refer to detectors by stable names instead
  of pickled objects.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import tempfile
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Type, Union

from repro.core.base import SNAPSHOT_SCHEMA_VERSION, DriftDetector
from repro.detectors import exported_detector_classes
from repro.exceptions import ConfigurationError, SnapshotError

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "sanitize",
    "desanitize",
    "snapshot_detector",
    "restore_detector",
    "detector_registry",
    "resolve_detector_class",
    "build_detector",
    "snapshot_json",
    "atomic_write_json",
]

#: Sentinel key marking an encoded non-finite float.
_FLOAT_KEY = "$float"

_ENCODE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def sanitize(value: Any) -> Any:
    """Return a strictly-JSON-safe copy of a snapshot payload.

    Finite floats, ints, bools, strings, and ``None`` pass through; ``inf``,
    ``-inf``, and ``nan`` become ``{"$float": ...}`` sentinel objects; dicts
    and lists are walked recursively.  The transform is lossless under
    :func:`desanitize`.
    """
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return {_FLOAT_KEY: "NaN"}
        return {_FLOAT_KEY: _ENCODE[value]}
    if isinstance(value, dict):
        return {key: sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(item) for item in value]
    return value


def desanitize(value: Any) -> Any:
    """Invert :func:`sanitize`, restoring non-finite float sentinels."""
    if isinstance(value, dict):
        if set(value.keys()) == {_FLOAT_KEY}:
            token = value[_FLOAT_KEY]
            if token == "Infinity":
                return math.inf
            if token == "-Infinity":
                return -math.inf
            if token == "NaN":
                return math.nan
            raise SnapshotError(f"unknown float sentinel {token!r}")
        return {key: desanitize(item) for key, item in value.items()}
    if isinstance(value, list):
        return [desanitize(item) for item in value]
    return value


def detector_registry() -> Dict[str, Type[DriftDetector]]:
    """Name → class mapping over every exported detector.

    Keys are the exact class names (``"Optwin"``, ``"HddmA"``, ...) plus
    their upper-case forms (``"OPTWIN"``, ``"ADWIN"``, ...), which is what
    the serving wire protocol and checkpoint files use.
    """
    registry: Dict[str, Type[DriftDetector]] = {}
    for cls in exported_detector_classes():
        registry[cls.__name__] = cls
        registry[cls.__name__.upper()] = cls
    return registry


def resolve_detector_class(name: str) -> Type[DriftDetector]:
    """Look up a detector class by registry name (case-tolerant)."""
    if not isinstance(name, str):
        raise ConfigurationError(
            f"detector must be a registry name string, got {reprlib.repr(name)}"
        )
    registry = detector_registry()
    cls = registry.get(name) or registry.get(name.upper())
    if cls is None:
        known = sorted({klass.__name__ for klass in registry.values()})
        raise ConfigurationError(
            f"unknown detector {name!r}; known detectors: {', '.join(known)}"
        )
    return cls


def build_detector(
    name: str, params: Optional[Mapping[str, Any]] = None
) -> DriftDetector:
    """Construct a fresh detector from a registry name and constructor kwargs."""
    cls = resolve_detector_class(name)
    if params is not None and not isinstance(params, Mapping):
        raise ConfigurationError(
            "params must be an object of constructor arguments or null, "
            f"got {reprlib.repr(params)}"
        )
    try:
        return cls(**dict(params or {}))
    except TypeError as exc:
        raise ConfigurationError(
            f"invalid parameters for {cls.__name__}: {exc}"
        ) from exc


def snapshot_detector(detector: DriftDetector) -> Dict[str, Any]:
    """Serialize a detector to a strictly-JSON-safe snapshot dict."""
    return sanitize(detector.state_dict())


def restore_detector(snapshot: Mapping[str, Any]) -> DriftDetector:
    """Rebuild a detector from a :func:`snapshot_detector` payload.

    The detector class is resolved through the registry, constructed from the
    snapshot's ``config`` section, and positioned with ``load_state_dict`` —
    the result produces detections bit-identical to the snapshotted instance.
    """
    payload = desanitize(dict(snapshot))
    version = payload.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot schema version {version!r} is not supported "
            f"(expected {SNAPSHOT_SCHEMA_VERSION})"
        )
    name = payload.get("detector")
    if not isinstance(name, str):
        raise SnapshotError("snapshot is missing its detector class name")
    cls = resolve_detector_class(name)
    # Tolerate registry aliases ("OPTWIN") in hand-written payloads; the
    # class-name check inside load_state_dict wants the exact name.
    payload["detector"] = cls.__name__
    try:
        detector = cls.from_config_dict(payload.get("config", {}))
    except (TypeError, ConfigurationError) as exc:
        raise SnapshotError(f"snapshot config cannot rebuild {name}: {exc}") from exc
    detector.load_state_dict(payload)
    return detector


def atomic_write_json(path: Union[str, Path], document: Any) -> Path:
    """Write ``document`` as strict JSON to ``path`` atomically.

    The write goes to a temp file in the target directory, is flushed and
    ``fsync``-ed, then moved into place with ``os.replace``, and finally the
    *containing directory* is fsync'd — without that last step the rename
    itself can be lost in a power failure, resurrecting the previous file
    (or, for a first write, no file at all).  A crash mid-write never
    corrupts a previous file at ``path``.  Shared by the hub checkpoint,
    the sharded cluster manifest, and the WAL meta document.
    """
    from repro.serving.wal import fsync_directory

    path = Path(path)
    handle = tempfile.NamedTemporaryFile(  # repro: allow(durability) -- this IS atomic_write_json: the temp file is fsynced below, os.replace()d into place, and the directory fsync makes the rename itself durable
        "w",
        dir=str(path.parent),
        prefix=path.name + ".",
        suffix=".tmp",
        delete=False,
        encoding="utf-8",
    )
    try:
        with handle:
            json.dump(document, handle, sort_keys=True, allow_nan=False)  # repro: allow(durability) -- writes the temp file inside the atomic_write_json protocol; fsync + rename + directory fsync follow
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)
    return path


def snapshot_json(detector: DriftDetector) -> str:
    """Serialize a detector to canonical JSON text (stable key order)."""
    return json.dumps(
        snapshot_detector(detector),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
