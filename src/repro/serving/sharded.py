"""ShardedHub — scale the monitor hub out across worker processes.

A single :class:`~repro.serving.hub.MonitorHub` serves ~1000 monitors at
batch speed, but all tenant ingest funnels through one GIL-bound Python
process.  :class:`ShardedHub` removes that ceiling by partitioning the
``(tenant, monitor_id)`` keyspace across N shared-nothing worker processes:

* **Slot-based routing** — :func:`route_slot` hashes the key with BLAKE2b
  (process-independent, unlike the salted builtin ``hash``) into a fixed
  space of :data:`N_SLOTS` slots, and a slot → shard assignment table maps
  slots to workers.  The table — not the shard count — is the routing
  authority: it is carried in the cluster manifest, survives restarts, and
  is rewritten by :meth:`ShardedHub.reshard`, so growing or shrinking the
  cluster moves only the slots that change owner instead of remapping the
  whole keyspace.
* **Live elastic resharding** — :meth:`ShardedHub.reshard` moves monitors
  between live workers through the bit-exact ``state_dict`` snapshot
  contract: quiesce, checkpoint, copy the moving slots' monitors to their
  new owners, make the copies durable, then atomically rewrite the manifest
  (the commit point) and clean up.  Alert sequence numbers travel with the
  monitors, so exactly-once delivery survives a reshard; a crash at any
  point leaves a layout the resume/respawn machinery recovers exactly.
* **Shared-memory fan-out** — the hot :meth:`ShardedHub.ingest` path
  writes each shard's float batch into a per-shard
  ``multiprocessing.shared_memory`` segment and sends only tiny
  ``(segment, offsets)`` descriptors over the pipes; workers wrap the bytes
  in zero-copy numpy views.  It is the only transport: every shard's first
  segment is allocated when its worker spawns, so a host without usable
  shared memory fails at construction, and a segment that cannot grow
  fails the ingest that needed it before anything is sent.
* **Per-shard checkpoints + cluster manifest** — every worker owns a
  ``shard-NN/hub-checkpoint.json`` written with the hub's atomic snapshot
  machinery, and :meth:`ShardedHub.checkpoint` records a
  ``cluster-manifest.json`` with the shard count, the assignment table, and
  per-shard composition hashes and shared cut tables (which a cold restart
  builds before it forks the workers).  ``kill -9`` of any worker loses nothing
  past that shard's last checkpoint (:meth:`respawn_shard` resumes it
  bit-exactly), and opening a checkpoint directory whose manifest disagrees
  with the requested layout raises
  :class:`~repro.exceptions.SnapshotError` instead of silently mis-routing.
* **Aggregation** — ``ObserveResult``s, ``stats()`` counters, and alert
  drains come back over the worker pipes; alerts buffer in each worker
  hub's own alert buffer and :meth:`drain_alerts` merges them (with the
  total dropped-alert count).

Detectors cross the process boundary via their ``__reduce__`` hook, which
pickles through the bit-exact ``state_dict`` snapshot contract, so
registering a pre-positioned detector instance on a shard is loss-free.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import signal
from multiprocessing import shared_memory
from multiprocessing.connection import Connection
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.base import DriftDetector
from repro.core.config import grid_config_hash
from repro.core.ppf_tables import TableKey, build_in_child, get_cut_table, shared_demand
from repro.exceptions import ConfigurationError, ShardError, SnapshotError
from repro.obs.journal import EventJournal, check_limit
from repro.obs.trace import TraceContext, Tracer
from repro.serving.hub import (
    Event,
    MonitorHub,
    ObserveResult,
    checked_chunk,
    checked_events,
    unknown_monitor,
)
from repro.serving.sinks import DriftAlert, build_sinks
from repro.serving.snapshot import atomic_write_json, build_detector
from repro.serving.wal import read_wal_head

__all__ = [
    "ShardedHub",
    "route_slot",
    "default_slot_assignment",
    "N_SLOTS",
    "MANIFEST_FILENAME",
    "MANIFEST_SCHEMA_VERSION",
]

logger = logging.getLogger(__name__)

#: Version of the cluster manifest document schema (the only one resume
#: reads).  Version 2 added the slot → shard ``assignment`` table (plus the
#: ``prev_assignment`` / ``pending`` reshard bookkeeping).
MANIFEST_SCHEMA_VERSION = 2

#: File name of the cluster manifest inside ``checkpoint_dir``.
MANIFEST_FILENAME = "cluster-manifest.json"

#: Size of the fixed slot space keys hash into.  Every cluster layout is an
#: assignment of these slots to shards; reshards move slots, never rehash
#: keys.  256 slots bound a cluster at 256 shards while keeping the
#: manifest table human-readable.
N_SLOTS = 256

_MonitorKey = Tuple[str, str]


def _key_digest(tenant: str, monitor_id: str) -> int:
    digest = hashlib.blake2b(
        f"{tenant}\x00{monitor_id}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def route_slot(tenant: str, monitor_id: str) -> int:
    """Deterministic stable slot of a ``(tenant, monitor_id)`` key.

    BLAKE2b over the NUL-joined key (tenant and monitor ids are free-form
    strings; NUL keeps ``("a", "b/c")`` and ``("a/b", "c")`` distinct),
    taken modulo :data:`N_SLOTS`.  Stable across processes, interpreter
    restarts, and platforms — the property the per-shard checkpoints rely
    on.  Which *shard* serves the slot is the cluster's assignment table
    (:attr:`ShardedHub.assignment`), not a function of the key.
    """
    return _key_digest(tenant, monitor_id) % N_SLOTS


def default_slot_assignment(n_shards: int) -> List[int]:
    """The slot → shard table of a fresh ``n_shards``-shard cluster.

    Round-robin (``slot % n_shards``): balanced to within one slot.
    """
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    return [slot % n_shards for slot in range(N_SLOTS)]


def _rebalance_assignment(assignment: Sequence[int], n_shards: int) -> List[int]:
    """Rebalance a slot table onto ``n_shards`` shards, moving minimally.

    Deterministic: surviving shards keep their lowest-numbered slots up to
    their quota (``N_SLOTS // n`` plus one for the first ``N_SLOTS % n``
    shards); slots owned by removed shards and surplus slots pool up and are
    dealt, in slot order, to the under-quota shards in index order.  Only
    slots that *must* change owner do.
    """
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    n_slots = len(assignment)
    base, extra = divmod(n_slots, n_shards)
    quota = [base + (1 if index < extra else 0) for index in range(n_shards)]
    counts = [0] * n_shards
    rebalanced = [-1] * n_slots
    pool: List[int] = []
    for slot, owner in enumerate(assignment):
        if 0 <= owner < n_shards and counts[owner] < quota[owner]:
            rebalanced[slot] = owner
            counts[owner] += 1
        else:
            pool.append(slot)
    receiver = 0
    for slot in pool:
        while counts[receiver] >= quota[receiver]:
            receiver += 1
        rebalanced[slot] = receiver
        counts[receiver] += 1
    return rebalanced


def _shard_dirname(index: int) -> str:
    return f"shard-{index:02d}"


def _dead_shard_error(index: int, exc: BaseException) -> ShardError:
    """The error of a request whose worker pipe broke or closed."""
    error = ShardError(
        f"shard {index} worker is not responding ({exc!r}); "
        f"respawn_shard({index}) resumes it from its checkpoint"
    )
    error.__cause__ = exc
    return error


#: The JSON types of a manifest cut-table entry's fields: ``[rho,
#: confidence, warning_confidence or null, length]``.
_TABLE_FIELD_TYPES = ((int, float), (int, float), (int, float, type(None)), (int,))


def _manifest_tables(rows: Iterable[Mapping[str, Any]]) -> Dict[TableKey, int]:
    """The cut tables the manifest's shard rows list, each at its longest length.

    A row written before rows listed their tables lists none; a malformed
    entry raises :class:`SnapshotError`.
    """
    tables: Dict[TableKey, int] = {}
    for row in rows:
        for entry in row.get("tables", []):
            if not isinstance(entry, list) or len(entry) != 4 or any(
                type(value) not in types
                for value, types in zip(entry, _TABLE_FIELD_TYPES)
            ):
                raise SnapshotError(
                    f"cluster manifest lists a malformed cut table {entry!r}"
                )
            rho, confidence, warning_confidence, length = entry
            key = (rho, confidence, warning_confidence)
            tables[key] = max(length, tables.get(key, 0))
    return tables


def _sums(replies: List[Dict[str, Any]], fields: Sequence[str]) -> Dict[str, Any]:
    """Per-field sums of the shards' counter dicts."""
    return {field: sum(reply[field] for reply in replies) for field in fields}


# --------------------------------------------------------------- worker side


def _safe_send(conn: Connection, reply: Tuple[str, Any]) -> None:
    """Send a reply, downgrading unpicklable payloads to a ShardError."""
    try:
        conn.send(reply)
    except Exception as exc:  # pragma: no cover - defensive  # repro: allow(broad-except) -- an unpicklable reply is downgraded to a ShardError reply the parent re-raises; if even that send fails, the worker loop dies and the parent surfaces EOF as a dead shard
        conn.send(("error", ShardError(f"worker reply failed to serialize: {exc!r}")))


def _tracker_is_inherited() -> bool:
    """Whether this worker shares its parent's resource-tracker process.

    When it does, register/unregister messages land in the *parent's*
    tracker.  On Linux that holds under ``fork``, ``spawn`` and
    ``forkserver`` alike: :meth:`ShardedHub._spawn` creates the shard's
    segment, which starts the parent's tracker, before the worker starts,
    and ``spawn`` and ``forkserver`` hand their children the tracker's fd.
    Where the fd starts unset, the first registration would launch a
    child-private tracker.  Must be sampled before any shared-memory call
    (which would itself set the fd).
    """
    try:
        from multiprocessing import resource_tracker

        return resource_tracker._resource_tracker._fd is not None
    except Exception:  # pragma: no cover - tracker internals moved  # repro: allow(broad-except) -- probes private resource_tracker internals; False is the safe answer (the spurious registration is then revoked explicitly in _worker_attach_shm)
        return False


def _worker_attach_shm(
    name: str, cache: Dict[str, Any], tracker_inherited: bool
) -> Any:
    """Attach (and cache) the parent's shared-memory segment by name.

    The parent owns at most one live segment per shard, so a new name
    retires every cached one.  Python < 3.13 registers an *attached*
    segment with the resource tracker as if this process owned it.  When
    the tracker is the parent's (see :func:`_tracker_is_inherited`: on
    Linux under every start method) the registration is an idempotent
    no-op and revoking it would instead break the *parent's* unlink
    bookkeeping, so it is left alone.  A worker running its own tracker
    would unlink the parent's segment on exit, so there the registration
    is revoked at once; on Linux that branch does not run.
    """
    block = cache.get(name)
    if block is not None:
        return block
    for stale_name in list(cache):
        try:
            cache.pop(stale_name).close()
        except Exception:  # pragma: no cover - view still referenced  # repro: allow(broad-except) -- retiring a superseded segment view; at worst an fd lingers until worker exit, no data path depends on the close
            pass
    block = shared_memory.SharedMemory(name=name)
    # Cache the view before the tracker dance below: once it is in the
    # cache the worker's shutdown path owns the close, so no path between
    # attach and return can leak the mapping.
    cache[name] = block
    if not tracker_inherited:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(block._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker API differences  # repro: allow(broad-except) -- best-effort revocation of a bookkeeping entry across python-version tracker APIs; failure merely re-allows the double-unlink warning the revocation exists to silence
            pass
    return block


#: :class:`MonitorHub` methods a shard worker runs by name: a request
#: ``(name, args)`` answers ``getattr(hub, name)(*args)``.  The loop itself
#: handles ``ingest`` (values in shared memory), ``adopt_table`` (a cut
#: table the parent built), ``checkpoint`` (answers the manifest row),
#: ``metrics`` (adds the shard index) and ``stop``; any other name is
#: refused, so a stray request cannot reach ``close`` or a private attribute
#: of the worker's hub.
_WORKER_METHODS = frozenset(
    {
        "observe",
        "observe_with_stats",
        "register",
        "stats",
        "drain_alerts",
        "keys",
        "export_monitors",
        "import_monitors",
        "forget_monitors",
        "drain_trace",
        "journal_events",
        "alerts_history",
        "describe",
    }
)


def _shard_worker_main(
    index: int,
    conn: Connection,
    checkpoint_dir: Optional[str],
    checkpoint_every: Optional[int],
    resume: bool,
    audit_log: Optional[str],
    wal_dir: Optional[str] = None,
    wal_fsync: str = "batch",
    webhook: Optional[str] = None,
    webhook_dead_letter: Optional[str] = None,
    parent_ends: Sequence[Connection] = (),
) -> None:
    """Request/reply loop of one shard worker (one ``MonitorHub`` per shard).

    Every request is an ``(op, args)`` tuple and gets exactly one
    ``("ok", value)`` or ``("error", exception)`` reply, so the parent and
    worker can never desynchronise.  Library errors (``ReproError`` family)
    travel back as values and are re-raised in the parent; the worker itself
    stays alive.  EOF on the pipe (parent gone) ends the worker.

    ``parent_ends`` are the parent's ends of worker pipes that a forked
    worker inherited: its own pipe's and the earlier workers'.  The worker
    closes them first; while any copy of its own pipe's parent end stays
    open, the pipe never reads EOF, and a parent killed without
    :meth:`ShardedHub.close` would leave every worker blocked in ``recv``.
    """
    for end in parent_ends:
        end.close()
    # The parent owns shutdown: terminal Ctrl-C must not kill workers before
    # the parent has written its final checkpoint.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        # The worker's tracer never opens roots of its own (sample_rate=0):
        # sampling is the parent's decision, and a propagated trace context
        # in an ingest payload makes child spans record regardless.  The
        # process label is what Perfetto shows as this worker's track.
        journal = EventJournal(capacity=256)
        tracer = Tracer(sample_rate=0.0, process=_shard_dirname(index))
        # Sinks are built *before* the hub so the resume-time WAL replay
        # re-delivers the post-checkpoint alert tail into them (and into the
        # hub's alert buffer the ``alerts`` op drains).
        hub = MonitorHub(
            checkpoint_dir=checkpoint_dir,
            sinks=build_sinks(audit_log, webhook, webhook_dead_letter, journal),
            checkpoint_every=checkpoint_every,
            resume=resume,
            wal_dir=wal_dir,
            wal_fsync=wal_fsync,
            tracer=tracer,
            journal=journal,
        )
    except BaseException as exc:  # repro: allow(broad-except) -- worker-hub construction failed; the exception is forwarded verbatim to the parent (which re-raises it at spawn) and the worker exits
        _safe_send(conn, ("error", exc))
        return

    shm_cache: Dict[str, Any] = {}
    tracker_inherited = _tracker_is_inherited()
    while True:
        try:
            op, args = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if op == "ingest":
                name, total, entries, ctx = args
                block = _worker_attach_shm(name, shm_cache, tracker_inherited)
                values = np.ndarray(
                    (total,), dtype=np.float64, buffer=block.buf
                )
                result: Any = hub.ingest(
                    [
                        (tenant, monitor_id, values[offset : offset + length])
                        for tenant, monitor_id, offset, length in entries
                    ],
                    trace_ctx=ctx,
                )
            elif op == "adopt_table":
                key, image = args
                get_cut_table(*key).adopt(image)
                result = None
            elif op == "checkpoint":
                result = {"path": str(hub.checkpoint()), **hub.describe()}
            elif op == "metrics":
                result = {"shard": index, **hub.metrics()}
            elif op == "stop":
                _safe_send(conn, ("ok", None))
                break
            elif op in _WORKER_METHODS:
                result = getattr(hub, op)(*args)
            else:
                raise ShardError(f"unknown worker op {op!r}")
        except Exception as exc:  # repro: allow(broad-except) -- the worker op loop forwards every failure to the parent as an ('error', exc) reply; _call/_fan_out re-raise it in the caller's process, so nothing is swallowed
            _safe_send(conn, ("error", exc))
        else:
            _safe_send(conn, ("ok", result))
    hub.close()
    journal.close()
    for block in shm_cache.values():
        try:
            block.close()
        except Exception:  # pragma: no cover - view still referenced  # repro: allow(broad-except) -- worker-exit cleanup of attached views; the parent owns and unlinks the segments, so a failed close leaks nothing past process exit
            pass
    conn.close()


# --------------------------------------------------------------- parent side


class ShardedHub:
    """Partition the monitor keyspace across N shared-nothing worker processes.

    The surface the TCP server uses is :class:`MonitorHub`'s, with the same
    return shapes (``register`` / ``observe_with_stats`` / ``ingest`` /
    ``stats`` / ``drain_alerts`` / ``checkpoint`` / ``reshard`` / ...), so
    the server fronts either hub without telling them apart.  Detectors
    live only inside the workers — there is no ``detector()`` accessor, and
    sinks are configured per worker (``audit_log``, ``webhook``).

    Parameters
    ----------
    n_shards:
        Number of worker processes.  Fixed for the lifetime of a checkpoint
        directory *except* through :meth:`reshard` — resuming with a count
        that disagrees with the manifest raises :class:`SnapshotError`
        (reshard explicitly instead of mis-routing).
    checkpoint_dir:
        Cluster checkpoint root; each shard owns ``shard-NN/`` inside it and
        the manifest records the composition and the slot table.
    checkpoint_every:
        Per-shard auto-checkpoint period, counted in values observed by that
        shard (forwarded to each worker's ``MonitorHub``).
    resume:
        Resume every shard from its checkpoint when present.
    audit_log:
        When set, each worker appends alerts to ``<audit_log>.shard-NN``
        (one file per shard — concurrent writers never interleave a line).
    wal_dir:
        Root of the durable alert write-ahead logs; each shard owns
        ``<wal_dir>/shard-NN`` (shared-nothing, like the checkpoints).  The
        cluster manifest records every shard's ``(wal_id, segment_index)``
        head, and resuming against WAL directories that disagree with the
        manifest raises :class:`SnapshotError` (see :meth:`_validate_wal_heads`).
    wal_fsync:
        WAL durability mode forwarded to every shard (``"batch"`` |
        ``"always"`` | ``"off"``).
    webhook:
        When set, each worker POSTs alerts to this URL through a
        :class:`~repro.serving.sinks.WebhookSink` (bounded retries, circuit
        breaker — a down endpoint never blocks ingest).
    webhook_dead_letter:
        Dead-letter JSONL root for undeliverable webhook alerts; each shard
        writes ``<path>.shard-NN``.
    request_timeout:
        Seconds to wait for a worker's reply before declaring it hung
        (``None`` = wait forever).  A worker that is alive but wedged (a
        deadlock, a ``SIGSTOP``) would otherwise block the caller
        indefinitely while ``dead_shards()`` reports a healthy cluster; on
        timeout the worker is killed — turning "hung" into "dead", which the
        respawn machinery knows how to recover — and :class:`ShardError` is
        raised.  Size it well above the slowest expected flush: a false
        positive costs a checkpoint rollback.
    tracer:
        The parent-side :class:`~repro.obs.trace.Tracer` (defaults to a
        disabled one).  When it samples an ingest, the span's trace context
        rides the fan-out messages and each worker's spans stitch
        underneath it; :meth:`drain_trace` merges the spans of every
        process into one exportable batch.
    journal:
        The parent-side :class:`~repro.obs.journal.EventJournal`; defaults
        to a private bounded ring.  Cluster-level operational events land
        here (shard respawns, reshard phase transitions, timeout kills,
        cleanup failures); each worker hub keeps its own journal and
        :meth:`journal_events` merges them by time.
    """

    def __init__(
        self,
        n_shards: int,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        resume: bool = True,
        audit_log: Optional[str] = None,
        wal_dir: Optional[Union[str, Path]] = None,
        wal_fsync: str = "batch",
        webhook: Optional[str] = None,
        webhook_dead_letter: Optional[str] = None,
        request_timeout: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional[EventJournal] = None,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        if n_shards > N_SLOTS:
            raise ConfigurationError(
                f"n_shards must be <= {N_SLOTS} (the slot space), got {n_shards}"
            )
        if checkpoint_every is not None and checkpoint_dir is None:
            raise ConfigurationError(
                "checkpoint_every requires a checkpoint_dir — without one the "
                "periodic checkpoints would silently never be written"
            )
        self._n_shards = n_shards
        self._checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self._checkpoint_every = checkpoint_every
        self._resume = resume
        if request_timeout is not None and request_timeout <= 0:
            raise ConfigurationError(
                f"request_timeout must be positive, got {request_timeout}"
            )
        self._audit_log = audit_log
        self._wal_dir = Path(wal_dir) if wal_dir else None
        self._wal_fsync = wal_fsync
        self._webhook = webhook
        self._webhook_dead_letter = webhook_dead_letter
        self._request_timeout = request_timeout
        self._tracer = tracer if tracer is not None else Tracer()
        self._owns_journal = journal is None
        self._journal = (
            journal if journal is not None else EventJournal(capacity=512)
        )
        #: Each shard's ingest staging segment (allocated by _spawn).
        self._shm_blocks: Dict[int, Any] = {}
        self._context = multiprocessing.get_context()
        self._closed = False
        self._registry: Dict[_MonitorKey, int] = {}
        #: OPTWIN configuration -> length of the cut table every worker holds
        #: (see :meth:`_share_table`).
        self._shared_tables: Dict[TableKey, int] = {}
        self._assignment: List[int] = default_slot_assignment(n_shards)
        #: Alerts drained out of workers removed by a shrink, merged into
        #: the next :meth:`drain_alerts`; the dropped counter is the
        #: lifetime eviction count of those retired workers.
        self._parked_alerts: List[DriftAlert] = []
        self._parked_dropped = 0
        #: Best-effort failures an operator must be able to see without
        #: grepping logs: reshard cleanup/rollback steps that could not
        #: complete (recoverable duplicates until respawn_dead_shards).
        self._n_cleanup_failures = 0
        #: Test seam: called with a stage name at every reshard phase
        #: boundary so crash-injection tests can kill workers mid-protocol.
        self._reshard_test_hook: Optional[Callable[[str], None]] = None
        self._processes: List[Optional[multiprocessing.process.BaseProcess]] = [
            None
        ] * n_shards
        self._conns: List[Optional[Connection]] = [None] * n_shards

        plan = self._resume_plan() if resume else None
        if plan is not None:
            self._assignment = plan["assignment"]
        try:
            for index in range(n_shards):
                self._spawn(index, resume=resume)
            # Also the startup handshake (for resume=False the listings are
            # empty): a worker whose hub failed to construct surfaces the
            # real exception here instead of an opaque dead pipe later.
            deduplicated = self._adopt_cluster(plan)
            if self._checkpoint_dir is not None:
                # Write the manifest up front, not only in checkpoint():
                # per-shard auto-checkpoints (checkpoint_every) never touch
                # it, and without a manifest the layout guard cannot fire —
                # opening a 4-shard directory as 2 shards would silently
                # drop the other shards' monitors.  When adoption dropped
                # the stale copies of an interrupted reshard, checkpoint
                # first so the clean manifest never points at shard files
                # that contradict it.
                reports = self._broadcast(
                    "checkpoint" if deduplicated else "describe"
                )
                self._write_manifest(reports)
        except BaseException:
            # A failed resume (corrupt shard checkpoint, mis-assembled
            # directories) must not leak live worker processes and pipes.
            self.close()
            raise

    # ------------------------------------------------------------- lifecycle

    def _resume_plan(self) -> Optional[Dict[str, Any]]:
        """Read the manifest into a resume plan (assignment + provenance),
        and fill the shared cut tables its shard rows list.

        The plan carries the authoritative slot table plus the legitimate
        *alternative* locations a stale copy of a monitor may be found in:

        * ``pending`` — a reshard crashed before its commit point; copies
          may exist on the intended targets (the committed table wins).
        * ``prev`` — a reshard committed but crashed during cleanup; stale
          source copies may remain (the new table wins).

        Anything found elsewhere is mis-assembly and raises.
        """
        plan: Dict[str, Any] = {
            "assignment": default_slot_assignment(self._n_shards),
            "pending": None,
            "prev": None,
        }
        if self._checkpoint_dir is None:
            return plan
        path = self._checkpoint_dir / MANIFEST_FILENAME
        if not path.is_file():
            return plan
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SnapshotError(f"cannot read cluster manifest {path}: {exc}") from exc
        version = manifest.get("schema_version")
        if version != MANIFEST_SCHEMA_VERSION:
            raise SnapshotError(
                f"cluster manifest schema version {version!r} is not supported "
                f"(expected {MANIFEST_SCHEMA_VERSION})"
            )
        recorded = manifest.get("n_shards")
        if recorded != self._n_shards:
            raise SnapshotError(
                f"checkpoint directory {self._checkpoint_dir} was written by a "
                f"{recorded}-shard cluster but this hub has {self._n_shards} "
                "shards; the slot table would silently send monitors to the "
                f"wrong shard — resume with n_shards={recorded} and call "
                f"reshard({self._n_shards}), or start fresh"
            )
        n_slots = manifest.get("n_slots")
        if n_slots != N_SLOTS:
            raise SnapshotError(
                f"cluster manifest uses {n_slots!r} slots but this build "
                f"routes over {N_SLOTS}; refusing to mis-route"
            )
        plan["assignment"] = self._checked_assignment(
            manifest.get("assignment"), "assignment"
        )
        pending = manifest.get("pending")
        if pending:
            plan["pending"] = self._checked_assignment(
                pending.get("assignment"),
                "pending assignment",
                n_shards=int(pending.get("n_shards", self._n_shards)),
            )
        prev = manifest.get("prev_assignment")
        if prev:
            plan["prev"] = self._checked_assignment(prev, "prev_assignment")
        self._validate_wal_heads(manifest)
        # Before any worker forks: the workers inherit these tables instead
        # of building their own while they resume.
        for key, length in _manifest_tables(manifest.get("shards", [])).items():
            build_in_child(get_cut_table(*key), length)
            self._shared_tables[key] = length
        return plan

    def _checked_assignment(
        self, table: Any, label: str, n_shards: Optional[int] = None
    ) -> List[int]:
        limit = self._n_shards if n_shards is None else max(n_shards, self._n_shards)
        if not isinstance(table, list) or len(table) != N_SLOTS:
            raise SnapshotError(
                f"cluster manifest {label} is not a {N_SLOTS}-entry table"
            )
        checked = [int(shard) for shard in table]
        if any(not 0 <= shard < limit for shard in checked):
            raise SnapshotError(
                f"cluster manifest {label} references shards outside "
                f"0..{limit - 1}"
            )
        return checked

    def _validate_wal_heads(self, manifest: Dict[str, Any]) -> None:
        """Refuse to resume against WAL directories the manifest disowns.

        The manifest records each shard's ``(wal_id, segment_index)`` head at
        checkpoint time.  A WAL directory with a *different* ``wal_id``
        belongs to another cluster (or was swapped by hand) — replaying it
        would re-deliver someone else's alerts; a highest on-disk segment
        *older* than the recorded head means segments were deleted or the
        directory was restored from an earlier backup — the replay floor
        bookkeeping inside it can no longer be trusted.  Both are
        mis-assembly, so both raise instead of replaying.
        """
        if self._wal_dir is None:
            return
        for entry in manifest.get("shards", []):
            recorded_head = entry.get("wal")
            if not recorded_head:
                continue
            index = int(entry.get("index", -1))
            if not 0 <= index < self._n_shards:
                continue
            wal_dir = self._wal_dir / _shard_dirname(index)
            disk_head = read_wal_head(wal_dir)
            if disk_head is None:
                raise SnapshotError(
                    f"cluster manifest records a WAL for shard {index} "
                    f"(wal_id {recorded_head.get('wal_id')!r}) but {wal_dir} "
                    "holds none; the WAL directory was removed or swapped — "
                    "refusing to resume without it"
                )
            if disk_head.get("wal_id") != recorded_head.get("wal_id"):
                raise SnapshotError(
                    f"WAL directory {wal_dir} has wal_id "
                    f"{disk_head.get('wal_id')!r} but the cluster manifest "
                    f"recorded {recorded_head.get('wal_id')!r}; this WAL "
                    "belongs to a different cluster — refusing to replay it"
                )
            recorded_segment = int(recorded_head.get("segment_index", 0))
            if int(disk_head.get("segment_index", 0)) < recorded_segment:
                raise SnapshotError(
                    f"WAL directory {wal_dir} ends at segment "
                    f"{disk_head.get('segment_index')} but the cluster "
                    f"manifest recorded segment {recorded_segment}; the WAL "
                    "segment sequence went backwards (deleted segments or an "
                    "older backup) — refusing to replay it"
                )

    def _shard_wal_dir(self, index: int) -> Optional[str]:
        if self._wal_dir is None:
            return None
        return str(self._wal_dir / _shard_dirname(index))

    def _shard_checkpoint_dir(self, index: int) -> Optional[str]:
        if self._checkpoint_dir is None:
            return None
        return str(self._checkpoint_dir / _shard_dirname(index))

    def _spawn(self, index: int, resume: bool) -> None:
        # The shard's first staging segment: a host without usable shared
        # memory fails here, when the worker starts, not on its first ingest.
        self._shm_block(index, 0)
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        try:
            # A forked worker inherits every open fd of this process, among
            # them the parent ends of its own pipe and the live workers'.
            parent_ends = (
                [parent_conn, *(conn for conn in self._conns if conn is not None)]
                if self._context.get_start_method() == "fork"
                else []
            )
            audit = (
                f"{self._audit_log}.{_shard_dirname(index)}"
                if self._audit_log is not None
                else None
            )
            dead_letter = (
                f"{self._webhook_dead_letter}.{_shard_dirname(index)}"
                if self._webhook_dead_letter is not None
                else None
            )
            process = self._context.Process(
                target=_shard_worker_main,
                args=(
                    index,
                    child_conn,
                    self._shard_checkpoint_dir(index),
                    self._checkpoint_every,
                    resume,
                    audit,
                    self._shard_wal_dir(index),
                    self._wal_fsync,
                    self._webhook,
                    dead_letter,
                    parent_ends,
                ),
                name=f"repro-shard-{index:02d}",
                daemon=True,
            )
            process.start()
        except Exception:
            # A failed spawn (fork/exec error, bad checkpoint dir) must not
            # leak the pipe pair — each retry would otherwise pin two more
            # file descriptors for the hub's lifetime — or the segment.
            parent_conn.close()
            child_conn.close()
            self._release_shm_block(index)
            raise
        # Record the conn first: once it is in the table, close()/reshard
        # own its lifetime, so a freak failure closing the child's end can
        # no longer strand the parent's end outside any cleanup path.
        self._conns[index] = parent_conn
        self._processes[index] = process
        child_conn.close()

    def _adopt_cluster(self, plan: Optional[Dict[str, Any]]) -> bool:
        """Mirror every shard's resumed monitors into the registry.

        Doubles as the startup handshake — a worker whose hub failed to
        construct (corrupt shard checkpoint, bad directory) surfaces the
        real exception here instead of an opaque dead pipe later.  Every
        resumed key must sit on the shard the slot table assigns it to.
        Extra copies elsewhere are legitimate only where the resume plan
        explains them (an interrupted reshard) and are forgotten here — the
        committed owner wins.  Anything else means the checkpoint directory
        was assembled from a different cluster layout, which is a
        correctness error, not a warning.

        Returns whether any stale copy was forgotten (callers then
        checkpoint before writing the clean manifest).
        """
        self._registry = {}
        placement: Dict[_MonitorKey, List[int]] = {}
        for index in range(self._n_shards):
            for key in self._call(index, "keys"):
                placement.setdefault(key, []).append(index)
        forgets: Dict[int, List[_MonitorKey]] = {}
        for key, holders in placement.items():
            owner = self._assignment[route_slot(*key)]
            for shard in holders:
                if shard == owner:
                    continue
                if owner not in holders or not self._stray_allowed(key, shard, plan):
                    raise SnapshotError(
                        f"monitor {key[0]}/{key[1]} resumed on shard {shard} "
                        f"but routes to shard {owner}; the shard checkpoints "
                        "do not belong to this cluster layout"
                    )
                forgets.setdefault(shard, []).append(key)
            self._registry[key] = owner
        for shard, keys in sorted(forgets.items()):
            self._call(shard, "forget_monitors", keys)
        return bool(forgets)

    def _stray_allowed(
        self, key: _MonitorKey, shard: int, plan: Optional[Dict[str, Any]]
    ) -> bool:
        """Whether the resume plan legitimises a stale copy of ``key`` on ``shard``."""
        if plan is None:
            return False
        slot = route_slot(*key)
        return any(
            table is not None and table[slot] == shard
            for table in (plan["pending"], plan["prev"])
        )

    def _adopt_shard_monitors(self, index: int) -> None:
        """Mirror a respawned shard's resumed monitors into the registry.

        Same contract as :meth:`_adopt_cluster`, scoped to one shard: every
        resumed key must be assigned to this shard, except stale duplicates
        of monitors the registry knows live elsewhere — copies a reshard's
        interrupted cleanup left in this shard's checkpoint — which are
        forgotten, not adopted.  Anything else is mis-assembly and raises.
        """
        self._registry = {
            key: shard for key, shard in self._registry.items() if shard != index
        }
        stale: List[_MonitorKey] = []
        for tenant, monitor_id in self._call(index, "keys"):
            key = (tenant, monitor_id)
            owner = self._assignment[route_slot(tenant, monitor_id)]
            if owner == index:
                self._registry[key] = index
                continue
            if self._registry.get(key) == owner:
                stale.append(key)
                continue
            raise SnapshotError(
                f"monitor {tenant}/{monitor_id} resumed on shard {index} "
                f"but routes to shard {owner}; the shard checkpoints "
                "do not belong to this cluster layout"
            )
        if stale:
            self._call(index, "forget_monitors", stale)

    #: Seconds :meth:`_stop_workers` waits for a worker's ``stop`` reply
    #: before falling back to ``terminate()``.  Bounded regardless of
    #: ``request_timeout`` — an unbounded wait on a wedged-but-alive worker
    #: would hang shutdown and make the terminate fallback unreachable.
    _STOP_REPLY_TIMEOUT = 5.0

    def _reap(self, process: Any, conn: Optional[Connection]) -> None:
        """Join a stopping worker, escalating to terminate, then kill."""
        if process is not None:
            process.join(timeout=self._STOP_REPLY_TIMEOUT)
            if process.is_alive():
                process.terminate()
                process.join(timeout=self._STOP_REPLY_TIMEOUT)
            if process.is_alive():
                # SIGTERM stays *pending* on a SIGSTOPped worker; SIGKILL
                # is the only signal guaranteed to reap a wedged process.
                process.kill()
                process.join(timeout=self._STOP_REPLY_TIMEOUT)
        if conn is not None:
            conn.close()

    def _stop_workers(
        self, indices: Sequence[int], what: str
    ) -> Optional[BaseException]:
        """Stop the given workers; return the first failure (``None`` if none).

        Every live worker is sent ``stop`` before any reply is awaited, so
        the workers wind down together; each reply wait is bounded by
        :attr:`_STOP_REPLY_TIMEOUT`, and then every worker is reaped
        (:meth:`_reap`: join, terminate, kill), its pipe closed and its
        staging segment released.  A worker that cannot be reaped is counted
        and journaled as a ``what`` cleanup failure and does not keep the
        others from stopping.
        """
        stopping: List[int] = []
        for index in indices:
            process, conn = self._processes[index], self._conns[index]
            if process is None or not process.is_alive() or conn is None:
                continue
            try:
                conn.send(("stop", ()))
            except Exception:  # repro: allow(broad-except) -- a worker whose pipe refuses the stop op is already dead or wedged; the join/terminate/kill ladder below reaps it regardless
                continue
            stopping.append(index)
        for index in stopping:
            try:
                if self._conns[index].poll(self._STOP_REPLY_TIMEOUT):
                    self._conns[index].recv()
            except Exception:  # repro: allow(broad-except) -- drain of the stop reply; a broken pipe here means the worker already exited, which is the goal
                pass
        failure: Optional[BaseException] = None
        for index in indices:
            try:
                self._reap(self._processes[index], self._conns[index])
            except Exception as exc:  # repro: allow(broad-except) -- counted in n_cleanup_failures and journaled by _note_cleanup_failure; one unreapable worker must not keep the others from stopping, and the first failure is returned to the caller
                self._note_cleanup_failure(what, shard=index)
                logger.warning("%s: could not reap shard %d", what, index)
                failure = failure or exc
            self._release_shm_block(index)
        return failure

    def close(self) -> None:
        """Stop every worker (graceful ``stop`` op, then terminate stragglers)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._stop_workers(range(len(self._processes)), "close_worker")
        finally:
            # Runs whatever happened above: the parent owns the staging
            # segments and the journal handle, and leaking them would
            # outlive the object (shm segments survive until reboot).
            for index in list(self._shm_blocks):
                self._release_shm_block(index)
            if self._owns_journal:
                self._journal.close()

    def __enter__(self) -> "ShardedHub":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------- transport

    def _recv(self, index: int) -> Tuple[str, Any]:
        """Receive one reply, enforcing ``request_timeout`` when configured.

        A timeout kills the worker (a hung worker's late reply would
        desynchronise the pipe, and ``process.is_alive()`` cannot see a
        deadlock) so the shard becomes *dead* — the state ``dead_shards()``
        reports and ``respawn_shard`` recovers from its checkpoint.
        """
        conn = self._conns[index]
        if self._request_timeout is not None and not conn.poll(
            self._request_timeout
        ):
            process = self._processes[index]
            if process is not None and process.is_alive():
                logger.error(
                    "shard %d worker did not reply within %.1fs; killing it",
                    index,
                    self._request_timeout,
                )
                process.kill()
                process.join(timeout=5)
            self._journal.record(
                "worker_timeout_killed",
                shard=index,
                timeout_s=self._request_timeout,
            )
            raise ShardError(
                f"shard {index} worker did not reply within "
                f"{self._request_timeout}s and was killed; "
                f"respawn_shard({index}) resumes it from its checkpoint"
            )
        return conn.recv()

    def _call(self, index: int, op: str, *args: Any) -> Any:
        """Run ``op`` on one shard and return its reply (see :meth:`_fan_out`)."""
        return self._fan_out([index], [(op, args)])[0]

    def _broadcast(
        self, op: str, *args: Any, tolerate_dead: bool = False
    ) -> List[Any]:
        """Send one request to every shard, then collect every reply.

        All sends complete before the first receive so the workers overlap
        their compute; replies are collected from *every* shard before any
        error is re-raised, keeping each pipe strictly request/reply aligned.
        With ``tolerate_dead`` the replies of the live shards are returned
        even when some workers are gone (degraded-cluster reads).
        """
        return self._fan_out(
            range(self._n_shards),
            [(op, args)] * self._n_shards,
            tolerate_dead=tolerate_dead,
        )

    def _fan_out(
        self,
        indices: Iterable[int],
        messages: List[Tuple[str, Tuple[Any, ...]]],
        tolerate_dead: bool = False,
    ) -> List[Any]:
        """Fan requests out to ``indices``; return the replies in that order.

        A dead shard — a broken pipe, no pipe at all, EOF or a reply timeout
        — never aborts the exchange half-way: the replies of the shards that
        did get the request are always collected (or their pipes would
        desynchronise into returning stale replies to the *next* request).
        With ``tolerate_dead=False`` a dead shard then raises
        :class:`ShardError`; with ``tolerate_dead=True`` its reply is simply
        absent — for read paths that must keep working on a degraded cluster
        (``stats``/``drain_alerts``).  Errors raised *by* live workers
        (``ReproError`` family) propagate in both modes.
        """
        indices = list(indices)
        if self._closed:
            raise ShardError("sharded hub is closed")
        # Phase 1: send to every reachable shard.
        sent: List[int] = []
        dead_error: Optional[BaseException] = None
        worker_error: Optional[BaseException] = None
        for index, message in zip(indices, messages):
            conn = self._conns[index]
            try:
                if conn is None:
                    raise ConnectionError("the shard has no worker pipe")
                conn.send(message)
            except OSError as exc:
                dead_error = dead_error or _dead_shard_error(index, exc)
            else:
                sent.append(index)
        # Phase 2: collect one reply per delivered request.
        replies: List[Any] = []
        for index in sent:
            try:
                kind, value = self._recv(index)
            except (EOFError, OSError) as exc:
                dead_error = dead_error or _dead_shard_error(index, exc)
                continue
            except ShardError as exc:  # _recv timeout killed a hung worker
                dead_error = dead_error or exc
                continue
            if kind == "error":
                worker_error = worker_error or value
            else:
                replies.append(value)
        if worker_error is not None:
            raise worker_error
        if dead_error is not None and not tolerate_dead:
            raise dead_error
        return replies

    # ------------------------------------------------- shared-memory staging

    def _release_shm_block(self, index: int) -> None:
        block = self._shm_blocks.pop(index, None)
        if block is None:
            return
        for method in (block.close, block.unlink):
            try:
                method()
            except Exception:  # pragma: no cover - already gone  # repro: allow(broad-except) -- releasing a segment that may already be closed/unlinked (worker crash, double release); there is nothing left to surface
                pass

    def _shm_block(self, index: int, nbytes: int) -> Any:
        """The shard's staging segment, grown (power-of-two) on demand.

        Growing allocates a *new* named segment and retires the old one —
        the worker switches attachments when it sees the new name, and the
        strict request/reply pipe discipline guarantees the old segment has
        no in-flight reader by the time the parent reuses or frees it.  A
        failed allocation raises :class:`ShardError` (the next call retries).
        """
        block = self._shm_blocks.get(index)
        if block is not None and block.size >= nbytes:
            return block
        if block is not None:
            self._release_shm_block(index)
        capacity = max(64 * 1024, 1 << (max(1, nbytes) - 1).bit_length())
        try:
            block = shared_memory.SharedMemory(create=True, size=capacity)
        except OSError as exc:
            raise ShardError(
                f"cannot allocate a {capacity}-byte shared-memory segment "
                f"for shard {index} ({exc!r})"
            ) from exc
        self._shm_blocks[index] = block
        return block

    def _ingest_message(
        self,
        index: int,
        shard_events: List[Tuple[str, str, "np.ndarray"]],
        ctx: Optional[TraceContext] = None,
    ) -> Tuple[str, Tuple[Any, ...]]:
        """Stage one shard's converted batch in shared memory; descriptor
        message.

        A failed segment growth raises here, before any message has touched
        a pipe.
        """
        total = sum(values.shape[0] for _, _, values in shard_events)
        block = self._shm_block(index, total * 8)
        staged = np.ndarray((total,), dtype=np.float64, buffer=block.buf)
        entries: List[Tuple[str, str, int, int]] = []
        offset = 0
        for tenant, monitor_id, values in shard_events:
            length = values.shape[0]
            staged[offset : offset + length] = values
            entries.append((tenant, monitor_id, offset, length))
            offset += length
        return ("ingest", (block.name, total, entries, ctx))

    # ---------------------------------------------------------- registration

    def register(
        self,
        tenant: str,
        monitor_id: str,
        detector: Union[str, DriftDetector] = "OPTWIN",
        params: Optional[Mapping[str, Any]] = None,
        exist_ok: bool = False,
    ) -> Dict[str, Any]:
        """Register a monitor on its shard; return ``{"detector", "n_seen"}``.

        Accepts a registry name plus params, or a ready-made detector
        instance (shipped to the worker via the bit-exact snapshot pickle).
        Unlike :meth:`MonitorHub.register` the live detector object stays
        inside the worker — shared-nothing means the parent never holds one.
        A new OPTWIN configuration's cut table is built here, once for the
        cluster (:meth:`_share_table`), before the worker sees the monitor.
        """
        key = (str(tenant), str(monitor_id))
        shard = self._assignment[route_slot(key[0], key[1])]
        if isinstance(params, Mapping):
            params = dict(params)  # a dict pickles; not every Mapping does
        self._share_table(detector, params)
        info = self._call(shard, "register", key[0], key[1], detector, params, exist_ok)
        self._registry[key] = shard
        return info

    def _share_table(
        self,
        detector: Union[str, DriftDetector],
        params: Optional[Mapping[str, Any]],
    ) -> None:
        """Fill the shared cut table a monitor reads and hand it to every worker.

        The table is built in a child of this process
        (:func:`~repro.core.ppf_tables.build_in_child`) and adopted by every
        live worker, so a configuration is built once per cluster; workers
        forked later inherit it, and a dead worker's replacement is one of
        them.  A table the detector owns privately is left to the worker's
        hub (see :func:`~repro.core.ppf_tables.shared_demand`).
        """
        if isinstance(detector, DriftDetector):
            candidate = detector
        else:
            candidate = build_detector(detector, params)
        demand = shared_demand(candidate)
        if demand is None:
            return
        key, length = demand
        if self._shared_tables.get(key, 0) >= length:
            return
        table = get_cut_table(*key)
        build_in_child(table, length)
        self._broadcast("adopt_table", key, table.image(), tolerate_dead=True)
        self._shared_tables[key] = table.max_length

    def shard_of(self, tenant: str, monitor_id: str) -> int:
        """The shard the assignment table routes a key to (registered or not)."""
        return self._assignment[route_slot(str(tenant), str(monitor_id))]

    def __len__(self) -> int:
        return len(self._registry)

    def __contains__(self, key: _MonitorKey) -> bool:
        return tuple(key) in self._registry

    @property
    def n_shards(self) -> int:
        """Number of worker processes the keyspace is partitioned across."""
        return self._n_shards

    @property
    def n_slots(self) -> int:
        """Size of the slot space (fixed; see :data:`N_SLOTS`)."""
        return N_SLOTS

    @property
    def assignment(self) -> Tuple[int, ...]:
        """The live slot → shard table (index = slot)."""
        return tuple(self._assignment)

    def monitor_keys(self) -> Iterator[Tuple[str, str, int]]:
        """Iterate ``(tenant, monitor_id, shard_index)`` over the registry."""
        for (tenant, monitor_id), shard in self._registry.items():
            yield tenant, monitor_id, shard

    def _shard_for(self, tenant: str, monitor_id: str) -> Tuple[_MonitorKey, int]:
        key = (str(tenant), str(monitor_id))
        shard = self._registry.get(key)
        if shard is None:
            raise unknown_monitor(key)
        return key, shard

    # ------------------------------------------------------------- ingestion

    def observe(
        self,
        tenant: str,
        monitor_id: str,
        values: Any,
        trace_ctx: Optional[TraceContext] = None,
    ) -> ObserveResult:
        """Feed one monitor a value or chunk of values (oldest first)."""
        return self._route("observe", tenant, monitor_id, values, trace_ctx)

    def observe_with_stats(
        self,
        tenant: str,
        monitor_id: str,
        values: Any,
        trace_ctx: Optional[TraceContext] = None,
    ) -> Tuple[ObserveResult, Dict[str, Any]]:
        """Feed one monitor and return ``(outcome, per-monitor stats)`` in a
        single worker round-trip (the server's ``observe`` op)."""
        return self._route("observe_with_stats", tenant, monitor_id, values, trace_ctx)

    def _route(
        self,
        op: str,
        tenant: str,
        monitor_id: str,
        values: Any,
        trace_ctx: Optional[TraceContext],
    ) -> Any:
        """Run the worker hub's ``op(tenant, monitor_id, values, ctx)`` on
        the monitor's owning shard, under one ``hub.route`` span.

        The payload is converted here, as :class:`MonitorHub` converts it:
        an iterator then crosses the pipe as an array, and a payload that
        does not convert raises before anything is sent.
        """
        key, shard = self._shard_for(tenant, monitor_id)
        values = checked_chunk(key, values)
        span = self._tracer.begin(
            "hub.route", trace_ctx, tenant=key[0], monitor=key[1], shard=shard
        )
        try:
            return self._call(
                shard,
                op,
                key[0],
                key[1],
                values,
                span.context() if span is not None else None,
            )
        finally:
            if span is not None:
                span.end()

    def ingest(
        self,
        events: Iterable[Event],
        trace_ctx: Optional[TraceContext] = None,
    ) -> List[ObserveResult]:
        """Fan an interleaved event batch out as one message per shard.

        :func:`~repro.serving.hub.checked_events` checks the batch as
        :meth:`MonitorHub.ingest` checks it: the first unknown monitor or
        payload the float conversion rejects, in request order, raises
        before anything is sent.  Its one chunk per monitor is split by
        shard, so each worker's ``MonitorHub.ingest`` feeds every monitor
        the values a single hub would have fed it — detections are
        bit-identical to the unsharded run.  Results aggregate in shard
        order, and within a shard in the order of the monitors' first
        events.

        Each shard's values are staged in its shared-memory segment and only
        ``(segment, offsets)`` descriptors cross the pipe; the worker reads
        the floats zero-copy.

        When the parent tracer samples this batch (or ``trace_ctx`` hands an
        already-open trace down), the span's context rides every shard's
        message, so the workers' spans stitch under one trace across
        processes.
        """
        span = self._tracer.begin("hub.fan_out", trace_ctx)
        try:
            per_shard: Dict[int, List[Tuple[str, str, "np.ndarray"]]] = {}
            for key, chunk in checked_events(events, self._registry).items():
                per_shard.setdefault(self._registry[key], []).append((*key, chunk))
            if not per_shard:
                return []
            ctx = span.context() if span is not None else None
            indices = sorted(per_shard)
            messages = [
                self._ingest_message(index, per_shard[index], ctx)
                for index in indices
            ]
            replies = self._fan_out(indices, messages)
            results: List[ObserveResult] = []
            for reply in replies:
                results.extend(reply)
            if span is not None:
                span.add(
                    n_shards=len(indices),
                    n_monitors=len(results),
                    n_events=sum(outcome.n_processed for outcome in results),
                )
            return results
        finally:
            if span is not None:
                span.end()

    # ----------------------------------------------------------------- stats

    def stats(
        self, tenant: Optional[str] = None, monitor_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """Aggregate counters across shards (or forward a per-monitor query).

        The hub-wide aggregate keeps working on a degraded cluster: dead
        shards are simply absent from the counter sums, and
        ``n_alive_shards < n_shards`` reports the degradation (this is how an
        operator *sees* a dead worker).  Per-monitor queries route to the
        owning shard and raise :class:`ShardError` when it is down.
        """
        if monitor_id is not None and tenant is None:
            raise ConfigurationError(
                "per-monitor stats need the tenant as well as the monitor id"
            )
        if tenant is not None and monitor_id is not None:
            key, shard = self._shard_for(tenant, monitor_id)
            return self._call(shard, "stats", key[0], key[1])
        shard_stats = self._broadcast("stats", tenant, None, tolerate_dead=True)
        keys = [
            key
            for key in self._registry
            if tenant is None or key[0] == str(tenant)
        ]
        return {
            "n_monitors": len(keys),
            "n_tenants": len({key[0] for key in keys}),
            **_sums(
                shard_stats, ("n_events", "n_drifts", "n_warnings", "n_sink_failures")
            ),
            **self._cluster_counters(),
        }

    def _cluster_counters(self) -> Dict[str, int]:
        """The cluster-level counters of :meth:`stats` and :meth:`metrics`."""
        return {
            "n_shards": self._n_shards,
            "n_alive_shards": self._n_shards - len(self.dead_shards()),
            "n_cleanup_failures": self._n_cleanup_failures,
        }

    @property
    def n_events(self) -> int:
        """Total values observed across all live shards (lifetime)."""
        return int(self.stats()["n_events"])

    def metrics(self) -> Dict[str, Any]:
        """Cluster telemetry: summed counters plus every live shard's detail.

        Dead shards are absent from ``shards`` and from the sums —
        ``n_alive_shards`` reports the degradation.  Each shard entry is the
        worker hub's :meth:`MonitorHub.metrics` dict (ingest rate, flush
        latency percentiles, WAL and sink counters).
        """
        shard_metrics = self._broadcast("metrics", tolerate_dead=True)
        sums = _sums(
            shard_metrics,
            ("n_events", "ingest_rate", "n_sink_failures", "n_wal_replayed", "n_replay_suppressed"),
        )
        sums["ingest_rate"] = round(sums["ingest_rate"], 3)
        return {
            "n_monitors": len(self._registry),
            **sums,
            **self._cluster_counters(),
            "trace": self._tracer.stats(),
            "shards": shard_metrics,
        }

    # --------------------------------------------------------- observability

    @property
    def tracer(self) -> Tracer:
        """The parent-side span recorder (workers own their own tracers)."""
        return self._tracer

    @property
    def journal(self) -> EventJournal:
        """The parent-side operational event journal."""
        return self._journal

    def drain_trace(self) -> List[Dict[str, Any]]:
        """Drain the parent's and every live worker's finished spans.

        One batch covering all processes — ``time.monotonic`` shares an
        epoch across them on Linux, so the spans merge without clock
        translation.  Dead shards contribute nothing (their ring died with
        the worker).
        """
        spans = self._tracer.drain()
        for shard_spans in self._broadcast("drain_trace", tolerate_dead=True):
            spans.extend(shard_spans)
        return spans

    def journal_events(
        self, limit: Optional[int] = None, kind: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Parent and worker journal events merged by timestamp, oldest first.

        ``limit`` keeps the newest events after the merge.  Worker events
        carry whatever ``shard``/context fields their recorder attached;
        dead shards' retained events are gone with the worker (mirror the
        journals to JSONL for a durable record).
        """
        check_limit(limit)
        events = self._journal.events(kind=kind)
        for shard_events in self._broadcast(
            "journal_events", None, kind, tolerate_dead=True
        ):
            events.extend(shard_events)
        events.sort(key=lambda event: event.get("ts", 0.0))
        if limit is not None:
            events = events[-limit:]
        return events

    def alerts_history(
        self,
        tenant: Optional[str] = None,
        monitor_id: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        limit: int = 1000,
    ) -> List[Dict[str, Any]]:
        """Query the WAL-backed alert history across shards.

        A fully-qualified ``(tenant, monitor_id)`` query routes to the owning
        shard; broader queries fan out to every live shard and merge by alert
        timestamp (keeping the newest ``limit`` matches).  Requires
        ``wal_dir``; a worker without one raises
        :class:`~repro.exceptions.ConfigurationError`.  After a reshard a
        moved monitor's *older* records remain in its previous shard's WAL:
        the fan-out query still finds them (until that WAL prunes), the
        owner-routed query covers everything since the move.
        """
        filters = (tenant, monitor_id, since, until, limit)
        if tenant is not None and monitor_id is not None:
            key, shard = self._shard_for(tenant, monitor_id)
            return self._call(shard, "alerts_history", *filters)
        merged: List[Dict[str, Any]] = []
        for shard_history in self._broadcast(
            "alerts_history", *filters, tolerate_dead=True
        ):
            merged.extend(shard_history)
        merged.sort(key=lambda record: (record.get("ts", 0.0), record.get("seq", 0)))
        return merged[-limit:]

    def drain_alerts(self) -> Tuple[List[DriftAlert], int]:
        """Drain every live shard's alert queue; return ``(alerts, n_dropped)``.

        Alerts merge in shard order (emission order within a shard), after
        any alerts parked by a shrinking :meth:`reshard` (drained out of the
        retiring workers before they stopped); ``n_dropped`` is the lifetime
        count of alerts evicted from full shard queues, including retired
        shards'.  Draining is destructive, so a dead shard must never abort
        the call — the surviving shards' alerts are returned (a strict mode
        would throw them away *after* the workers had already drained their
        queues).  A dead shard's undelivered alerts are gone with its
        worker; its detections re-fire during the post-respawn replay.
        """
        alerts: List[DriftAlert] = list(self._parked_alerts)
        self._parked_alerts = []
        n_dropped = self._parked_dropped
        for shard_alerts, shard_dropped in self._broadcast(
            "drain_alerts", tolerate_dead=True
        ):
            alerts.extend(shard_alerts)
            n_dropped += shard_dropped
        return alerts, n_dropped

    # ------------------------------------------------------- checkpointing

    def checkpoint(self) -> Path:
        """Checkpoint every shard, then write the cluster manifest.

        Shards checkpoint concurrently (their own atomic
        ``hub-checkpoint.json``); the manifest records the shard count, the
        slot table, each shard's composition hash and event count, and a
        cluster hash over the ordered shard hashes.  The manifest is
        advisory metadata written *after* the shard files — the shard
        checkpoints alone are sufficient to resume, and a crash between the
        two leaves a stale-but-harmless manifest (the layout fields are
        what resume validates, and they only change through :meth:`reshard`,
        which orders its writes explicitly).
        """
        if self._checkpoint_dir is None:
            raise ConfigurationError(
                "no checkpoint directory configured; pass one to ShardedHub()"
            )
        return self._write_manifest(self._broadcast("checkpoint"))

    def _write_manifest(
        self,
        reports: List[Dict[str, Any]],
        n_shards: Optional[int] = None,
        assignment: Optional[Sequence[int]] = None,
        prev_assignment: Optional[Sequence[int]] = None,
        pending: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Atomically record the cluster composition and slot table.

        Also called at construction, so layout validation works for
        clusters that only ever auto-checkpoint.  ``reports`` must align
        with shard indices 0..n-1.  ``pending`` records a reshard's durable
        intent before its commit point; ``prev_assignment`` names the
        pre-commit table until the sources' stale copies are cleaned up.
        """
        n = self._n_shards if n_shards is None else n_shards
        table = list(self._assignment if assignment is None else assignment)
        manifest = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "n_shards": n,
            "n_slots": N_SLOTS,
            "assignment": table,
            "prev_assignment": (
                list(prev_assignment) if prev_assignment is not None else None
            ),
            "pending": (
                {
                    "n_shards": int(pending["n_shards"]),
                    "assignment": list(pending["assignment"]),
                }
                if pending is not None
                else None
            ),
            "cluster_hash": grid_config_hash(
                {"shards": [report["config_hash"] for report in reports]}
            ),
            "n_events": sum(report["n_events"] for report in reports),
            "shards": [
                {
                    "index": index,
                    "dir": _shard_dirname(index),
                    "config_hash": report["config_hash"],
                    "n_events": report["n_events"],
                    "n_monitors": report["n_monitors"],
                    "wal": report.get("wal"),
                    "tables": report["tables"],
                }
                for index, report in enumerate(reports)
            ],
        }
        self._checkpoint_dir.mkdir(parents=True, exist_ok=True)
        return atomic_write_json(self._checkpoint_dir / MANIFEST_FILENAME, manifest)

    # ------------------------------------------------------------ resharding

    def _reshard_stage(self, stage: str) -> None:
        self._journal.record("reshard_stage", stage=stage)
        hook = self._reshard_test_hook
        if hook is not None:
            hook(stage)

    def _note_cleanup_failure(self, what: str, **fields: Any) -> None:
        """Count and journal one best-effort cleanup step that failed."""
        self._n_cleanup_failures += 1
        self._journal.record("cleanup_failure", what=what, **fields)

    def reshard(self, n_shards: int) -> Dict[str, Any]:
        """Live-migrate the cluster to ``n_shards`` workers; return a summary.

        The slot table is rebalanced with minimal movement (only slots that
        must change owner do), and the moving slots' monitors are handed
        source → target through the bit-exact snapshot contract, alert
        sequence counters included — detections and exactly-once alert
        delivery continue as if the cluster had never changed shape.  The
        parent is the cluster's only writer, so the quiesce is implicit: no
        ingest runs while this method does.

        Crash safety (with a ``checkpoint_dir``) is a write-ahead protocol
        on the manifest:

        1. baseline checkpoint of every shard;
        2. manifest gains a ``pending`` record (durable intent; the old
           table stays authoritative);
        3. moving monitors are exported → imported and the *target* shards
           checkpoint (copies exist on disk under both layouts);
        4. **commit**: the manifest is atomically rewritten with the new
           table (``prev_assignment`` names the old one);
        5. cleanup: sources forget the moved monitors, retiring workers
           stop (their queued alerts are parked for :meth:`drain_alerts`),
           every shard checkpoints, and the manifest drops
           ``prev_assignment``.

        A crash before step 4 resumes under the old layout (stray copies on
        the intended targets are recognised via ``pending`` and dropped); a
        crash after it resumes under the new layout (stale source copies
        are recognised via ``prev_assignment`` and dropped).  A worker
        death *during* the protocol aborts it the same way: copies roll
        back, freshly spawned workers stop, the intent record is cleared,
        and the :class:`ShardError` propagates — ``respawn_dead_shards()``
        then repairs the cluster and the reshard can be retried.

        Fails fast on a degraded cluster (``respawn_dead_shards()`` first);
        requires every monitor's owner to be live because their state must
        be read to move.
        """
        if self._closed:
            raise ShardError("sharded hub is closed")
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        if n_shards > N_SLOTS:
            raise ConfigurationError(
                f"n_shards must be <= {N_SLOTS} (the slot space), got {n_shards}"
            )
        dead = self.dead_shards()
        if dead:
            raise ShardError(
                f"cannot reshard with dead shards {dead}; "
                "respawn_dead_shards() first"
            )
        old_n = self._n_shards
        old_assignment = list(self._assignment)
        if n_shards == old_n:
            return {
                "n_shards": old_n,
                "n_slots_moved": 0,
                "n_monitors_moved": 0,
            }
        new_assignment = _rebalance_assignment(old_assignment, n_shards)
        n_slots_moved = sum(
            1
            for old, new in zip(old_assignment, new_assignment)
            if old != new
        )
        # Plan the monitor moves from the live registry.
        moves: Dict[Tuple[int, int], List[_MonitorKey]] = {}
        for key, shard in self._registry.items():
            target = new_assignment[route_slot(*key)]
            if target != shard:
                moves.setdefault((shard, target), []).append(key)
        n_monitors_moved = sum(len(keys) for keys in moves.values())
        logger.info(
            "resharding %d -> %d shards: %d slots, %d monitors moving",
            old_n,
            n_shards,
            n_slots_moved,
            n_monitors_moved,
        )

        # 1. Quiesce + baseline: durable pre-reshard state on every shard.
        baseline_reports: Optional[List[Dict[str, Any]]] = None
        if self._checkpoint_dir is not None:
            baseline_reports = self._broadcast("checkpoint")
        self._reshard_stage("baseline")

        spawned: List[int] = []
        imported: Dict[int, List[_MonitorKey]] = {}
        try:
            # 2. Grow: spawn the new workers with fresh hubs.  Checkpoints
            #    under their directories are leftovers of an aborted grow —
            #    never part of a committed layout — and are ignored.
            for index in range(old_n, n_shards):
                self._processes.append(None)
                self._conns.append(None)
                # Listed before the spawn, so a failed spawn's slot in the
                # layout lists is rolled back too.
                spawned.append(index)
                self._spawn(index, resume=False)
            self._reshard_stage("spawned")
            # 3. Durable intent: the old table stays authoritative.
            if baseline_reports is not None:
                self._write_manifest(
                    baseline_reports,
                    pending={"n_shards": n_shards, "assignment": new_assignment},
                )
            self._reshard_stage("intent")
            # 4. Copy the moving monitors to their new owners.
            for (source, target), keys in sorted(moves.items()):
                records = self._call(source, "export_monitors", keys)
                self._reshard_stage("exported")
                self._call(target, "import_monitors", records)
                imported.setdefault(target, []).extend(keys)
            self._reshard_stage("imported")
            # 5. Make the copies durable before the commit point, and gather
            #    the commit manifest's per-shard reports.
            reports: Optional[List[Dict[str, Any]]] = None
            if self._checkpoint_dir is not None:
                targets = {target for _, target in moves} | set(spawned)
                reports = []
                for index in range(n_shards):
                    reports.append(
                        self._call(
                            index,
                            "checkpoint" if index in targets else "describe",
                        )
                    )
            self._reshard_stage("copied")
            # 6. COMMIT: the manifest atomically switches the layout.
            if reports is not None:
                self._write_manifest(
                    reports,
                    n_shards=n_shards,
                    assignment=new_assignment,
                    prev_assignment=old_assignment,
                )
        except BaseException:
            self._abort_reshard(spawned, imported, old_n, baseline_reports)
            raise
        self._n_shards = n_shards
        self._assignment = list(new_assignment)
        self._registry = {
            key: new_assignment[route_slot(*key)] for key in self._registry
        }
        self._reshard_stage("committed")

        # 7. Cleanup.  The reshard is already committed: failures here leave
        #    recoverable duplicates (prev_assignment explains them), so they
        #    surface as ShardError *after* the layout change took effect.
        cleanup_error: Optional[BaseException] = None
        for (source, target), keys in sorted(moves.items()):
            if source >= n_shards:
                continue  # the whole worker retires below
            try:
                self._call(source, "forget_monitors", keys)
            except Exception as exc:  # repro: allow(broad-except) -- counted in n_cleanup_failures and journaled by _note_cleanup_failure; the first failure is re-raised as ShardError after the remaining cleanup steps run
                self._note_cleanup_failure("reshard_forget", shard=source)
                logger.warning("reshard cleanup: shard %d forget failed", source)
                cleanup_error = cleanup_error or exc
        retiring = range(n_shards, old_n)
        for index in retiring:
            try:
                parked, dropped = self._call(index, "drain_alerts")
                self._parked_alerts.extend(parked)
                self._parked_dropped += dropped
            except Exception as exc:  # repro: allow(broad-except) -- counted in n_cleanup_failures and journaled by _note_cleanup_failure; the first failure is re-raised as ShardError after the remaining cleanup steps run
                self._note_cleanup_failure("retiring_shard_drain", shard=index)
                logger.warning(
                    "reshard cleanup: could not drain retiring shard %d", index
                )
                cleanup_error = cleanup_error or exc
        stop_error = self._stop_workers(retiring, "retiring_shard_stop")
        cleanup_error = cleanup_error or stop_error
        del self._processes[n_shards:]
        del self._conns[n_shards:]
        self._reshard_stage("cleanup")
        if self._checkpoint_dir is not None and cleanup_error is None:
            try:
                self._write_manifest(self._broadcast("checkpoint"))
            except Exception as exc:  # repro: allow(broad-except) -- counted in n_cleanup_failures and journaled by _note_cleanup_failure; re-raised as ShardError below with a recovery hint
                self._note_cleanup_failure("post_reshard_checkpoint")
                cleanup_error = exc
        if cleanup_error is not None:
            raise ShardError(
                f"reshard to {n_shards} shards committed, but its cleanup "
                f"failed ({cleanup_error!r}); respawn_dead_shards() finishes "
                "the recovery"
            ) from cleanup_error
        return {
            "n_shards": n_shards,
            "n_slots_moved": n_slots_moved,
            "n_monitors_moved": n_monitors_moved,
        }

    def _abort_reshard(
        self,
        spawned: List[int],
        imported: Dict[int, List[_MonitorKey]],
        old_n: int,
        baseline_reports: Optional[List[Dict[str, Any]]],
    ) -> None:
        """Roll a failed (pre-commit) reshard back to the old layout.

        The old table never stopped being authoritative — this only drops
        the copies, retires the workers spawned for the abandoned layout,
        and clears the durable intent record.  Best-effort by design: a
        dead worker here is exactly what aborted the reshard, and whatever
        cannot be cleaned up live is recognised on resume via ``pending``.
        """
        for target, keys in imported.items():
            if target >= old_n:
                continue  # the whole worker is discarded below
            try:
                self._call(target, "forget_monitors", keys)
            except Exception:  # repro: allow(broad-except) -- counted in n_cleanup_failures and journaled by _note_cleanup_failure; best-effort rollback, the old layout never stopped being authoritative
                self._note_cleanup_failure("abort_rollback_imports", shard=target)
                logger.warning(
                    "reshard abort: could not roll back imports on shard %d",
                    target,
                )
        self._stop_workers(spawned, "abort_retire_worker")
        # The list surgery is not best-effort: the old layout's lists must
        # shrink back even when stopping a worker failed.
        del self._processes[old_n:]
        del self._conns[old_n:]
        if baseline_reports is not None:
            try:
                self._write_manifest(baseline_reports)
            except Exception:  # repro: allow(broad-except) -- counted in n_cleanup_failures and journaled by _note_cleanup_failure; a lingering intent record is recognised and finished on the next resume
                self._note_cleanup_failure("abort_clear_intent")
                logger.warning(
                    "reshard abort: could not clear the manifest intent record"
                )

    # ------------------------------------------------------ failure handling

    def dead_shards(self) -> List[int]:
        """Indices of shards whose worker process is no longer alive."""
        return [
            index
            for index, process in enumerate(self._processes)
            if process is not None and not process.is_alive()
        ]

    def respawn_shard(self, index: int) -> None:
        """Restart a dead shard worker, resuming from its own checkpoint.

        Everything that shard observed after its last checkpoint is gone —
        per-monitor ``n_seen`` (via :meth:`stats`) tells producers where to
        resume replay.  Monitors registered after the last checkpoint must be
        re-registered (``exist_ok=True`` is idempotent for the survivors).
        """
        if self._closed:
            # Spawning after close() would orphan a live worker nothing
            # will ever stop (close() early-returns on re-entry).
            raise ShardError("sharded hub is closed")
        if not 0 <= index < self._n_shards:
            raise ConfigurationError(f"no shard {index} in a {self._n_shards}-shard hub")
        process = self._processes[index]
        if process is not None and process.is_alive():
            raise ConfigurationError(
                f"shard {index} worker is still alive; it can only be "
                "respawned after it died"
            )
        if process is not None:
            process.join(timeout=5)
        conn = self._conns[index]
        if conn is not None:
            conn.close()
        # The retiring worker may have died mid-read; never reuse its block.
        self._release_shm_block(index)
        logger.warning("respawning shard %d from its checkpoint", index)
        self._spawn(index, resume=True)
        self._adopt_shard_monitors(index)
        self._journal.record("shard_respawn", shard=index)

    def respawn_dead_shards(self) -> List[int]:
        """Respawn every dead shard; return the indices that were restarted."""
        dead = self.dead_shards()
        for index in dead:
            self.respawn_shard(index)
        return dead

    def worker_pid(self, index: int) -> Optional[int]:
        """PID of a shard's worker process (``None`` before spawn)."""
        process = self._processes[index]
        return process.pid if process is not None else None
