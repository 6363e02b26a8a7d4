"""Fleets, seeded inputs, request encoding and the reference detections.

Every monitor's values come from ``--seed`` alone.  Ingest values are cut in
rounds of :data:`SEGMENT` values per monitor; round ``r`` reuses the values
drawn for ``r % DISTINCT_ROUNDS``, so a run of any length needs only a
bounded amount of pre-encoded JSON.  Single-value ``observe`` requests draw
from a separate seeded stream.  The reference feeds the very same values to
fresh detectors of the same configuration through the scalar ``update()``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Values per monitor per ingest round.
SEGMENT = 1024
#: The first timed ingest round.  Before it, every monitor gets round 0 and
#: OPTWIN monitors the rounds after it too: six rounds take each OPTWIN
#: window past ``w_max=5000``, so its lazily grown cut tables are complete
#: before the timed window.
WARMUP_ROUNDS = 6
#: Distinct rounds of values drawn per monitor (even, so the error-rate
#: alternation survives the wrap-around).
DISTINCT_ROUNDS = 8

OPTWIN_PARAMS = {"w_max": 5000}
#: The closed-form batch mix used by the ingest workloads.
CLOSED_FORM_MIX: Tuple[Tuple[str, Optional[Dict[str, Any]]], ...] = (
    ("Ddm", None),
    ("HddmA", None),
    ("Stepd", None),
    ("Eddm", None),
    ("Optwin", OPTWIN_PARAMS),
)
#: All ten registered detectors.
FULL_MIX: Tuple[Tuple[str, Optional[Dict[str, Any]]], ...] = CLOSED_FORM_MIX + (
    ("Adwin", None),
    ("Kswin", None),
    ("Ecdd", None),
    ("PageHinkley", None),
    ("Rddm", None),
)


@dataclass(frozen=True)
class Monitor:
    index: int
    tenant: str
    name: str
    detector: str
    params: Optional[Dict[str, Any]]

    @property
    def key(self) -> str:
        return f"{self.tenant}/{self.name}"


def fleet(
    n_monitors: int,
    n_tenants: int,
    mix: Sequence[Tuple[str, Optional[Dict[str, Any]]]],
    first: int = 0,
) -> List[Monitor]:
    """``n_monitors`` monitors from index ``first`` on, spread over tenants,
    cycling the detector mix."""
    return [
        Monitor(
            index,
            f"t{index % n_tenants:02d}",
            f"m{index:04d}",
            mix[(index - first) % len(mix)][0],
            mix[(index - first) % len(mix)][1],
        )
        for index in range(first, first + n_monitors)
    ]


def register_requests(monitors: Iterable[Monitor]) -> List[bytes]:
    requests = []
    for monitor in monitors:
        request: Dict[str, Any] = {
            "op": "register",
            "tenant": monitor.tenant,
            "monitor": monitor.name,
            "detector": monitor.detector,
        }
        if monitor.params:
            request["params"] = monitor.params
        requests.append(_line(request))
    return requests


def _line(request: Mapping[str, Any]) -> bytes:
    return (json.dumps(request, separators=(",", ":")) + "\n").encode()


@dataclass(frozen=True)
class Ingest:
    """One ``ingest`` request: round ``round`` for each monitor in ``group``."""

    round: int
    group: Tuple[int, ...]


@dataclass(frozen=True)
class Observe:
    """One single-value ``observe`` request."""

    monitor: int
    value: float


class Inputs:
    """Seeded values of a fleet and their pre-encoded requests.

    Monitor ``m`` draws round ``r`` at error rate
    ``error_rates[(r + m) % len(error_rates)]``: the phase is staggered by
    monitor, so every multi-monitor request mixes the rates evenly and
    costs the same.  Observe values are Bernoulli draws at ``observe_rate``.
    """

    def __init__(
        self,
        seed: int,
        monitors: Sequence[Monitor],
        error_rates: Sequence[float],
        observe_rate: float = 0.1,
    ) -> None:
        self.monitors = list(monitors)
        rng = np.random.default_rng(seed)
        phase = np.add.outer(np.arange(DISTINCT_ROUNDS), np.arange(len(self.monitors)))
        rates = np.asarray(error_rates)[phase % len(error_rates)]
        draws = rng.random((DISTINCT_ROUNDS, len(self.monitors), SEGMENT))
        self.bits = draws < rates[:, :, None]
        self._observe_rng = np.random.default_rng([seed, 1])
        self._observe_rate = observe_rate
        self._texts: Dict[Tuple[int, int], bytes] = {}
        self._ingests: Dict[Ingest, bytes] = {}

    def segment(self, round_: int, monitor: int) -> np.ndarray:
        return self.bits[round_ % DISTINCT_ROUNDS, monitor].astype(np.float64)

    def _values_text(self, round_: int, monitor: int) -> bytes:
        key = (round_ % DISTINCT_ROUNDS, monitor)
        text = self._texts.get(key)
        if text is None:
            text = json.dumps(
                self.segment(round_, monitor).tolist(), separators=(",", ":")
            ).encode()
            self._texts[key] = text
        return text

    def encode_ingest(self, ingest: Ingest) -> bytes:
        """The request bytes; rounds that share values share one encoding."""
        key = Ingest(ingest.round % DISTINCT_ROUNDS, ingest.group)
        payload = self._ingests.get(key)
        if payload is None:
            events = b",".join(
                b'["%s","%s",%s]'
                % (
                    self.monitors[m].tenant.encode(),
                    self.monitors[m].name.encode(),
                    self._values_text(ingest.round, m),
                )
                for m in ingest.group
            )
            payload = b'{"op":"ingest","events":[' + events + b"]}\n"
            self._ingests[key] = payload
        return payload

    def observes(self, order: Sequence[int], count: int) -> List[Observe]:
        """``count`` observes cycling through ``order``, values freshly drawn."""
        values = self._observe_rng.random(count) < self._observe_rate
        return [
            Observe(order[i % len(order)], float(values[i])) for i in range(count)
        ]

    def encode_observe(self, observe: Observe) -> bytes:
        monitor = self.monitors[observe.monitor]
        return b'{"op":"observe","tenant":"%s","monitor":"%s","values":[%s]}\n' % (
            monitor.tenant.encode(),
            monitor.name.encode(),
            b"1.0" if observe.value else b"0.0",
        )

    def encode(self, item: Any) -> bytes:
        if isinstance(item, Ingest):
            return self.encode_ingest(item)
        return self.encode_observe(item)


def ingest_plan(groups: Sequence[Tuple[int, ...]], rounds: Iterable[int]) -> List[Ingest]:
    """Every group's request for each round, round by round."""
    return [Ingest(r, group) for r in rounds for group in groups]


def groups_of(indices: Sequence[int], size: int) -> List[Tuple[int, ...]]:
    return [tuple(indices[i : i + size]) for i in range(0, len(indices), size)]


class CheckFailed(AssertionError):
    """The server's answers disagree with what the benchmark expects."""


class Ledger:
    """What each monitor was sent and what the server answered.

    ``record`` takes each request of a plan with its parsed response (or
    ``None`` for a request that failed) and checks the response's shape; the
    drift positions it reports accumulate per monitor for :meth:`verify`.
    """

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        n = len(inputs.monitors)
        self.fed: List[List[Any]] = [[] for _ in range(n)]
        self.n_seen = [0] * n
        self.drifts: List[List[int]] = [[] for _ in range(n)]
        self.tainted: set = set()
        self.n_drifts_reported = 0

    def record(self, item: Any, response: Optional[Dict[str, Any]]) -> bool:
        """Account one request; return whether it succeeded."""
        if isinstance(item, Ingest):
            touched = list(item.group)
        else:
            touched = [item.monitor]
        if response is None or not response.get("ok"):
            # The server may have applied part of a failed request, so the
            # monitors it touched leave the position and reference checks.
            self.tainted.update(touched)
            return False
        if isinstance(item, Ingest):
            results = response["results"]
            by_key = {f"{r['tenant']}/{r['monitor']}": r for r in results}
            if len(results) != len(item.group):
                raise CheckFailed(f"ingest answered {len(results)} of {len(item.group)} monitors")
            answers = [(m, SEGMENT, by_key.get(self.inputs.monitors[m].key)) for m in item.group]
        else:
            answers = [(item.monitor, 1, response)]
        for m, expected, answer in answers:
            if answer is None:
                raise CheckFailed(f"ingest answer lacks {self.inputs.monitors[m].key}")
            if m not in self.tainted:
                self._account(m, expected, answer["n"], answer["drifts"])
                self.fed[m].append(item)
        return True

    def _account(self, m: int, expected: int, n: int, drifts: List[int]) -> None:
        start = self.n_seen[m]
        if n != expected:
            raise CheckFailed(f"{self.inputs.monitors[m].key}: server consumed {n} of {expected}")
        for position in drifts:
            if not start <= position < start + n:
                raise CheckFailed(
                    f"{self.inputs.monitors[m].key}: drift at {position} outside "
                    f"[{start}, {start + n})"
                )
        self.n_seen[m] = start + n
        self.drifts[m].extend(drifts)
        self.n_drifts_reported += len(drifts)

    def values(self, m: int) -> np.ndarray:
        parts = []
        for item in self.fed[m]:
            if isinstance(item, Ingest):
                parts.append(self.inputs.segment(item.round, m))
            else:
                parts.append(np.array([item.value]))
        return np.concatenate(parts) if parts else np.zeros(0)

    def verify(self, subset: Iterable[int]) -> int:
        """Compare the subset's drift positions with the scalar reference.

        Returns the number of monitors checked; raises :class:`CheckFailed`
        on the first mismatch.
        """
        checked = 0
        for m in subset:
            if m in self.tainted:
                continue
            monitor = self.inputs.monitors[m]
            expected = reference_drifts(monitor, self.values(m))
            if expected != self.drifts[m]:
                raise CheckFailed(
                    f"{monitor.key} ({monitor.detector}): server drifts "
                    f"{self.drifts[m][:8]}... != reference {expected[:8]}..."
                )
            checked += 1
        return checked


def reference_drifts(monitor: Monitor, values: np.ndarray) -> List[int]:
    """Drift positions of a fresh detector fed ``values`` through ``update()``."""
    from repro.serving.snapshot import build_detector

    detector = build_detector(monitor.detector, monitor.params)
    return [
        position
        for position, value in enumerate(values.tolist())
        if detector.update(value).drift_detected
    ]


def reference_subset(monitors: Sequence[Monitor], per_detector: int = 2) -> List[int]:
    """The first ``per_detector`` monitors of each detector in ``monitors``."""
    seen: Dict[str, int] = {}
    chosen = []
    for monitor in monitors:
        if seen.get(monitor.detector, 0) < per_detector:
            seen[monitor.detector] = seen.get(monitor.detector, 0) + 1
            chosen.append(monitor.index)
    return chosen
