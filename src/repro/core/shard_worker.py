"""Process workers behind the sharded engine, plus their supervision.

Two worker kinds live here, both plain top-level functions so they are
picklable under every ``multiprocessing`` start method:

* **build workers** (:func:`build_worker_main`) pull ``(shard_id, row
  range, directory)`` tasks off a queue, attach to the dataset published
  once in :class:`~multiprocessing.shared_memory.SharedMemory` (zero
  copies per worker beyond the one slice each shard owns), run the
  ordinary single-index :meth:`HerculesIndex.build`, and ship a
  picklable reply home: the :class:`~repro.core.index.BuildReport` plus
  the worker's metrics registry state and trace spans, which the
  coordinator folds into its own registry/trace for cross-process
  attribution;

* **query workers** (:func:`query_worker_main`) are *persistent*: each
  owns a subset of the opened shards for the life of the pool and
  answers one kind of request over a pipe, ``("query", ...)`` carrying
  a ``(Q, n)`` block of Q ≥ 1 queries.  Each query prunes against its
  own global BSF² — one cell of a :class:`ProcessBsfVector`, read
  through the same :class:`~repro.core.results.LinkedResultSet` the
  thread path uses (refreshed once per refinement chunk) — and replies
  carry shard answers whose positions are already globalized
  (``row_base`` added).  Both paths answer a shard through one routine,
  :func:`answer_shard`.

Both coordinators *supervise* their workers (ParIS+/MESSI treat worker
failure as a first-class concern, and so does this engine):

* the build coordinator tracks which worker claimed which shard, detects
  dead workers by liveness polling, **requeues** a dead worker's
  unfinished shards onto survivors, and **respawns** replacements up to
  ``config.max_worker_restarts`` before failing — one OOM-killed worker
  no longer wastes a multi-hour build;
* the query pool retries a failed dispatch per its
  :class:`~repro.retry.RetryPolicy` (exponential backoff, deterministic
  per-shard jitter, per-dispatch timeout and whole-query deadline),
  restarts dead or timed-out workers within the same restart budget, and
  reports per-shard errors to the caller instead of failing closed —
  :class:`~repro.core.sharding.ShardedIndex` decides whether to degrade
  or raise;
* shutdown never hangs: workers that ignore the join timeout are
  escalated ``terminate()`` → ``kill()`` with a logged warning.

Workers honour fault plans shipped through the
:data:`repro.storage.faults.PLANS_ENV` channel (see
:func:`repro.storage.faults.worker_injection`), which is how the chaos
matrix kills workers mid-build and injects flaky reads mid-query.

The start method defaults to ``fork`` where available (cheap, and
``repro.obs`` re-initializes its locks in forked children); set
``REPRO_MP_START=spawn`` to override.  Everything shipped between
processes is a plain dict/ndarray — no live index objects ever cross
the boundary.
"""

from __future__ import annotations

import ctypes
import dataclasses
import logging
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro import obs
from repro.core.batch_query import BatchAnswer
from repro.core.config import HerculesConfig
from repro.core.results import LinkedResultSet
from repro.errors import (
    ShardError,
    ShardTimeoutError,
    StorageError,
    WorkerSupervisionError,
)
from repro.retry import RetryPolicy
from repro.storage import faults

logger = logging.getLogger(__name__)

__all__ = [
    "RETRYABLE",
    "GatherOutcome",
    "ProcessBsfVector",
    "ShardQueryPool",
    "SupervisionReport",
    "answer_shard",
    "build_shards_in_processes",
    "build_worker_main",
    "mp_context",
    "query_worker_main",
    "reap_processes",
]

#: Grace period after terminate() before escalating to kill().
_ESCALATION_GRACE = 5.0

#: Cells in the pool's shared per-query BSF² vector; batches larger than
#: this are chunked by the coordinator (one scatter per chunk).
_BSF_VECTOR_CAPACITY = 256

#: Shard faults a scatter retries (and may degrade past).  Any other
#: exception is a caller error: it propagates unretried and undegraded.
RETRYABLE = (StorageError, ShardError, OSError)


def mp_context():
    """The multiprocessing context sharded workers run under.

    ``fork`` when the platform offers it (Linux/macOS; child inherits
    the parent's pages so SharedMemory attach is instant), else
    ``spawn``.  ``REPRO_MP_START`` forces a specific method — the test
    suite uses it to exercise spawn-compatibility on fork platforms.
    """
    import multiprocessing as mp

    method = os.environ.get("REPRO_MP_START")
    if method:
        return mp.get_context(method)
    return mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    )


def reap_processes(procs, timeout: float, label: str) -> int:
    """Join every process, escalating terminate() → kill() on stragglers.

    A worker that never exits used to hang shutdown forever: ``join``
    with a timeout *returns* on a stuck process but nothing followed up.
    Now a process still alive after ``timeout`` seconds is terminated,
    given :data:`_ESCALATION_GRACE` to die, then SIGKILLed; every
    escalation is logged.  Returns the number of escalated workers.
    """
    deadline = time.monotonic() + timeout
    for proc in procs:
        proc.join(timeout=max(deadline - time.monotonic(), 0.0))
    escalated = 0
    for proc in procs:
        if not proc.is_alive():
            continue
        escalated += 1
        logger.warning(
            "%s worker pid %s ignored shutdown for %.1fs; terminating",
            label, proc.pid, timeout,
        )
        proc.terminate()
        proc.join(timeout=_ESCALATION_GRACE)
        if proc.is_alive():  # pragma: no cover - needs an unkillable child
            logger.warning(
                "%s worker pid %s survived terminate(); killing",
                label, proc.pid,
            )
            proc.kill()
            proc.join(timeout=_ESCALATION_GRACE)
    return escalated


class _BsfCell:
    """One query's view into a :class:`ProcessBsfVector` slot.

    Duck-typed to the ``get``/``publish`` half of the
    :class:`~repro.core.results.SharedBsf` contract, so a
    :class:`~repro.core.results.LinkedResultSet` links to one slot of
    the vector exactly as it links to a thread-shared cell.
    """

    __slots__ = ("_vector", "_index")

    def __init__(self, vector: "ProcessBsfVector", index: int) -> None:
        self._vector = vector
        self._index = index

    def get(self) -> float:
        return self._vector.get(self._index)

    def publish(self, value: float) -> None:
        self._vector.publish(self._index, value)


class ProcessBsfVector:
    """A process-shared vector of per-query BSF² cells (the cross-process link).

    A scatter needs one global bound *per query in flight*: one shared
    cell would let query A's tight bound prune query B's candidates,
    which is wrong.  One ``RawArray`` of doubles under one
    process-shared lock keeps the whole vector in a single shared
    mapping created once at pool start (pipes never carry BSF traffic);
    workers address individual slots through :meth:`cell` views.  A raw
    array (not the synchronized wrapper) keeps reads from paying a
    semaphore acquire twice, and
    :class:`~repro.core.results.LinkedResultSet` re-reads its cell only
    at refinement chunk boundaries, which keeps the lock off the hot
    path.  Capacity is fixed at creation — coordinators chunk larger
    batches.
    """

    __slots__ = ("_values", "_lock", "capacity")

    def __init__(self, ctx=None, capacity: int = _BSF_VECTOR_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        ctx = ctx if ctx is not None else mp_context()
        self.capacity = capacity
        self._values = ctx.RawArray(ctypes.c_double, [math.inf] * capacity)
        self._lock = ctx.Lock()

    def get(self, index: int) -> float:
        with self._lock:
            return self._values[index]

    def publish(self, index: int, value: float) -> None:
        with self._lock:
            if value < self._values[index]:
                self._values[index] = value

    def reset(self, count: int) -> None:
        """Back to +inf for cells ``[0, count)``: the next scatter's queries."""
        with self._lock:
            self._values[:count] = [math.inf] * count

    def cell(self, index: int) -> _BsfCell:
        if not 0 <= index < self.capacity:
            raise IndexError(
                f"BSF cell {index} outside capacity {self.capacity}"
            )
        return _BsfCell(self, index)


# ---------------------------------------------------------------------------
# Build workers
# ---------------------------------------------------------------------------


def build_worker_main(
    task_queue,
    result_queue,
    shm_name: str,
    shape: tuple,
    dtype_str: str,
    config_fields: dict,
    trace_enabled: bool,
) -> None:
    """Entry point of one build worker process.

    Consumes ``(shard_id, start, stop, shard_dir)`` tasks until the
    ``None`` sentinel.  Each task is announced with a ``("claim",
    shard_id, pid)`` message *before* any work happens, so the
    supervisor knows which shards to requeue if this process dies; the
    reply is ``("ok", shard_id, payload)`` or ``("error", shard_id,
    traceback_text)``, the payload carrying the build report as a dict
    plus the worker's observability state.  Shipped fault plans (the
    chaos channel) are installed around each shard's build so operation
    counts restart per shard.
    """
    from multiprocessing import shared_memory

    from repro.core.index import HerculesIndex

    config = HerculesConfig(**config_fields)
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        data = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf)
        while True:
            task = task_queue.get()
            if task is None:
                break
            shard_id, start, stop, shard_dir = task
            result_queue.put(("claim", shard_id, os.getpid()))
            try:
                registry = obs.MetricsRegistry()
                journal = obs.EventJournal()
                hub = obs.TelemetryHub(registry=registry, journal=journal)
                trace = obs.Trace(f"shard-{shard_id}") if trace_enabled else None
                with faults.worker_injection([shard_id]), obs.use_hub(hub):
                    if trace is not None:
                        with obs.use_trace(trace):
                            report = _build_one_shard(
                                HerculesIndex, data, start, stop, shard_dir, config
                            )
                    else:
                        report = _build_one_shard(
                            HerculesIndex, data, start, stop, shard_dir, config
                        )
                obs.record_build(registry, report)
                result_queue.put(
                    (
                        "ok",
                        shard_id,
                        {
                            "report": dataclasses.asdict(report),
                            "metrics": registry.export_state(),
                            "spans": trace.export_spans() if trace else [],
                            "events": journal.export_state(),
                            "pid": os.getpid(),
                        },
                    )
                )
            except BaseException:
                result_queue.put(("error", shard_id, traceback.format_exc()))
    finally:
        shm.close()


def _build_one_shard(index_cls, data, start, stop, shard_dir, config):
    """Build one shard from its SharedMemory slice; returns the report."""
    # Copy the slice out of shared memory: the build keeps references to
    # its input rows, and they must outlive the SharedMemory mapping.
    rows = np.array(data[start:stop])
    with obs.span("build.shard", rows=int(stop - start)):
        index = index_cls.build(rows, config, directory=Path(shard_dir))
    report = index.build_report
    index.close()
    return report


@dataclass
class SupervisionReport:
    """What the build supervisor had to do to finish the build.

    All-zero on a healthy run.  ``events`` carries one human-readable
    line per intervention for ``repro build -v`` and test assertions.
    """

    worker_restarts: int = 0
    requeued_tasks: int = 0
    task_retries: int = 0
    escalations: int = 0
    events: list = field(default_factory=list)

    def note(self, message: str) -> None:
        self.events.append(message)
        logger.warning("build supervision: %s", message)


def _reset_shard_dir(shard_dir) -> None:
    """Wipe a shard directory before its build task is re-attempted.

    A worker that died mid-build leaves partial artifacts behind; the
    retry must start from clean ground or appends would corrupt it.
    """
    shutil.rmtree(shard_dir, ignore_errors=True)


def build_shards_in_processes(
    data: np.ndarray,
    ranges: list,
    shard_dirs: list,
    config: HerculesConfig,
    workers: int,
    trace_enabled: bool,
    worker_main=None,
) -> tuple:
    """Build every shard in worker processes under supervision.

    The dataset is published once in SharedMemory; ``workers`` processes
    pull shard tasks off a queue (so N shards load-balance over fewer
    workers).  The coordinator polls worker liveness every
    ``config.shard_poll_seconds`` while gathering replies:

    * a **dead worker** has its claimed-but-unfinished shards wiped and
      requeued onto survivors, and a replacement process is spawned as
      long as the ``config.max_worker_restarts`` budget lasts;
    * a shard whose build **errored** inside a live worker is wiped and
      requeued up to ``config.shard_retry_attempts`` total tries, then
      the worker traceback is raised as :class:`ShardError`;
    * no reply of any kind for ``config.build_stall_timeout`` seconds
      raises :class:`WorkerSupervisionError` (the dead-build watchdog),
      as does losing every worker with no restart budget left.

    Returns ``(replies, supervision)``: shard id → reply payload, plus
    the :class:`SupervisionReport` of every intervention.

    ``worker_main`` substitutes the worker entry point (same signature
    as :func:`build_worker_main`) — the supervision tests inject
    scripted workers that die, stall, or answer out of protocol.
    """
    from multiprocessing import shared_memory
    from queue import Empty

    if worker_main is None:
        worker_main = build_worker_main
    ctx = mp_context()
    data = np.ascontiguousarray(data)
    shm = shared_memory.SharedMemory(create=True, size=data.nbytes)
    procs = []
    supervision = SupervisionReport()
    try:
        view = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
        view[:] = data
        task_queue = ctx.Queue()
        result_queue = ctx.Queue()
        worker_args = (
            task_queue,
            result_queue,
            shm.name,
            data.shape,
            str(data.dtype),
            dataclasses.asdict(config),
            trace_enabled,
        )

        spawned = 0

        def spawn_worker():
            nonlocal spawned
            proc = ctx.Process(
                target=worker_main, args=worker_args, daemon=True
            )
            proc.start()
            obs.watch_process(f"shard.{spawned}", proc.pid)
            spawned += 1
            return proc

        n_workers = max(1, min(workers, len(ranges)))
        procs.extend(spawn_worker() for _ in range(n_workers))
        tasks = {}
        for shard_id, ((start, stop), shard_dir) in enumerate(
            zip(ranges, shard_dirs)
        ):
            tasks[shard_id] = (start, stop, str(shard_dir))
            task_queue.put((shard_id, start, stop, str(shard_dir)))

        replies: dict[int, dict] = {}
        claims: dict[int, set] = {}  # worker pid → claimed shard ids
        attempts = {shard_id: 1 for shard_id in tasks}
        restarts_left = config.max_worker_restarts
        waited = 0.0

        def handle_dead_worker(proc) -> None:
            nonlocal restarts_left
            unfinished = claims.pop(proc.pid, set()) - set(replies)
            for shard_id in sorted(unfinished):
                _reset_shard_dir(tasks[shard_id][2])
                start, stop, shard_dir = tasks[shard_id]
                task_queue.put((shard_id, start, stop, shard_dir))
                supervision.requeued_tasks += 1
            procs.remove(proc)
            detail = (
                f"worker pid {proc.pid} died (exitcode {proc.exitcode}) "
                f"holding shards {sorted(unfinished)}"
            )
            if restarts_left > 0:
                restarts_left -= 1
                replacement = spawn_worker()
                procs.append(replacement)
                supervision.worker_restarts += 1
                supervision.note(
                    f"{detail}; requeued and respawned as pid "
                    f"{replacement.pid} ({restarts_left} restarts left)"
                )
                with obs.span(
                    "shard.worker_restart",
                    dead_pid=proc.pid,
                    exitcode=proc.exitcode,
                    requeued=len(unfinished),
                ):
                    pass
                obs.emit_event(
                    "worker_restart",
                    kind="build",
                    dead_pid=proc.pid,
                    new_pid=replacement.pid,
                    exitcode=proc.exitcode,
                    requeued=sorted(unfinished),
                    restarts_left=restarts_left,
                )
            else:
                supervision.note(
                    f"{detail}; restart budget exhausted, "
                    f"{len(procs)} workers remain"
                )

        while len(replies) < len(ranges):
            try:
                message = result_queue.get(timeout=config.shard_poll_seconds)
            except Empty:
                waited += config.shard_poll_seconds
                for proc in [p for p in procs if not p.is_alive()]:
                    handle_dead_worker(proc)
                if not procs:
                    raise WorkerSupervisionError(
                        "all shard build workers died and the restart "
                        f"budget ({config.max_worker_restarts}) is spent "
                        f"({len(replies)}/{len(ranges)} shards done)"
                    ) from None
                if waited > config.build_stall_timeout:
                    obs.emit_event(
                        "stall_watchdog",
                        waited=round(waited, 3),
                        timeout=config.build_stall_timeout,
                        done=len(replies),
                        total=len(ranges),
                    )
                    raise WorkerSupervisionError(
                        f"shard build stalled: no worker progress for "
                        f"{config.build_stall_timeout:.0f}s "
                        f"({len(replies)}/{len(ranges)} shards done)"
                    ) from None
                continue
            waited = 0.0
            if (
                not isinstance(message, tuple)
                or len(message) != 3
                or message[0] not in ("claim", "ok", "error")
            ):
                raise ShardError(
                    f"malformed reply from build worker: {message!r}"
                )
            status, shard_id, payload = message
            if status == "claim":
                claims.setdefault(payload, set()).add(shard_id)
                continue
            for owned in claims.values():
                owned.discard(shard_id)
            if status == "ok":
                if not isinstance(payload, dict) or "report" not in payload:
                    raise ShardError(
                        f"malformed build reply for shard {shard_id}: "
                        f"{payload!r}"
                    )
                replies[shard_id] = payload
                continue
            # status == "error": the shard failed inside a live worker.
            if attempts[shard_id] < config.shard_retry_attempts:
                attempts[shard_id] += 1
                supervision.task_retries += 1
                _reset_shard_dir(tasks[shard_id][2])
                start, stop, shard_dir = tasks[shard_id]
                task_queue.put((shard_id, start, stop, shard_dir))
                supervision.note(
                    f"shard {shard_id} build failed (attempt "
                    f"{attempts[shard_id] - 1}/{config.shard_retry_attempts});"
                    " wiped and requeued"
                )
            else:
                raise ShardError(
                    f"shard {shard_id} build failed in worker after "
                    f"{attempts[shard_id]} attempts:\n{payload}"
                )
        for _ in procs:
            task_queue.put(None)
        supervision.escalations += reap_processes(
            procs, config.build_join_timeout, "build"
        )
        return replies, supervision
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass


# ---------------------------------------------------------------------------
# Query workers
# ---------------------------------------------------------------------------


def answer_shard(
    index,
    queries: np.ndarray,
    k: int,
    mode: str,
    config: Optional[HerculesConfig],
    links: list,
    row_base: int,
) -> BatchAnswer:
    """One shard's answers to a ``(Q, n)`` query block, positions global.

    ``mode`` is the public call being served — ``"knn"`` or
    ``"knn_approx"`` (Q = 1) or ``"knn_batch"``.  Every mode is one call
    of the shard's pipeline; ``"knn_approx"`` stops it after phase 1,
    with the leaf budget in ``config.l_max``.  Query ``qi`` prunes through a
    :class:`~repro.core.results.LinkedResultSet` linked to ``links[qi]``
    (a thread-shared or process-shared cell), so a bound any shard finds
    prunes that query everywhere and never another query.  The thread
    scatter and the query workers both answer a shard through here.
    """
    results = [LinkedResultSet(k, link) for link in links]
    batch = index._search(
        queries, k, config, results, phase1_only=mode == "knn_approx"
    )
    for answer in batch:
        answer.positions = answer.positions + row_base
    return batch


def query_worker_main(
    conn,
    specs: list,
    cache_bytes_per_shard: int,
    verify: str,
    bsf_vector: ProcessBsfVector,
) -> None:
    """Entry point of one persistent query worker process.

    ``specs`` is a list of ``(shard_id, directory, row_base)`` this
    worker owns.  The protocol over ``conn``:

    * ``("query", queries, k, mode, config_fields_or_None,
      shard_ids_or_None)`` → ``("ok", [(shard_id, batch_answer), ...],
      [(shard_id, error_text), ...])``: every owned shard answers the
      ``(Q, n)`` block through :func:`answer_shard`, query ``qi``
      pruning against cell ``qi`` of the shared ``bsf_vector``.
      :data:`RETRYABLE` shard faults are *collected*, not fatal, so one
      bad shard does not void its siblings' work, and a retry can
      target just the failed subset via ``shard_ids``.  Any other
      exception is a caller error and comes home as ``("raise",
      exception)``;
    * ``("close",)`` (or EOF) → clean shutdown.

    Shipped fault plans targeting any owned shard are installed for the
    worker's whole life (the chaos channel into query paths).
    """
    from repro.core.index import HerculesIndex

    indexes = []
    try:
        with faults.worker_injection([sid for sid, _, _ in specs]):
            for shard_id, directory, row_base in specs:
                index = HerculesIndex.open(
                    directory, verify=verify, cache_bytes=cache_bytes_per_shard
                )
                indexes.append((shard_id, row_base, index))
            conn.send(("ready", os.getpid()))
            while True:
                try:
                    message = conn.recv()
                except EOFError:
                    break
                kind = message[0]
                if kind == "close":
                    break
                if kind != "query":  # pragma: no cover - protocol guard
                    conn.send(("error", f"unknown request {kind!r}"))
                    continue
                _, queries, k, mode, config_fields, only = message
                try:
                    config = (
                        HerculesConfig(**config_fields) if config_fields else None
                    )
                    links = [
                        bsf_vector.cell(qi) for qi in range(queries.shape[0])
                    ]
                    out = []
                    shard_errors = []
                    for shard_id, row_base, index in indexes:
                        if only is not None and shard_id not in only:
                            continue
                        try:
                            out.append(
                                (
                                    shard_id,
                                    answer_shard(
                                        index, queries, k, mode, config,
                                        links, row_base,
                                    ),
                                )
                            )
                        except RETRYABLE:
                            shard_errors.append(
                                (shard_id, traceback.format_exc())
                            )
                    reply = ("ok", out, shard_errors)
                except Exception as exc:
                    reply = ("raise", exc)
                conn.send(reply)
    except BaseException:  # pragma: no cover - open failure surfaces below
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        for _, _, index in indexes:
            index.close()
        conn.close()


@dataclass
class GatherOutcome:
    """One scatter-gather's raw outcome, before merge policy is applied.

    ``pairs`` holds the ``(shard_id, batch_answer)`` results that
    arrived, one answer per query in flight; ``shard_errors`` the
    ``(shard_id, reason)`` of every shard that failed past its retries;
    ``retries``/``worker_restarts`` count what the dispatch had to do.
    :class:`~repro.core.sharding.ShardedIndex` turns this into a
    degraded answer or a :class:`ShardError`.
    """

    pairs: list = field(default_factory=list)
    shard_errors: list = field(default_factory=list)
    retries: int = 0
    worker_restarts: int = 0


class ShardQueryPool:
    """A supervised, persistent pool of query workers over opened shards.

    Shards are distributed round-robin over ``workers`` processes; each
    worker opens its shards once (cold) and keeps them — and their leaf
    caches — warm across queries, matching the paper's asynchronous
    warm-cache workload model.  A :class:`ProcessBsfVector` links every
    worker's pruning to each query's global best-so-far; the
    coordinator resets the cells of the queries in flight before each
    scatter.

    Dispatch is fault-tolerant: per-shard errors reported by a live
    worker are retried per the :class:`~repro.retry.RetryPolicy`; a
    dead worker is respawned (its shards re-opened) within the
    ``max_worker_restarts`` budget and the query re-sent; a worker that
    misses its per-dispatch timeout is killed and restarted the same way
    (a late reply would poison the next query on that pipe).  Shards
    that still fail are reported in the :class:`GatherOutcome` instead
    of raising — degradation policy lives in the caller.
    """

    def __init__(
        self,
        shard_specs: list,
        workers: int,
        cache_bytes_per_shard: int,
        verify: str,
        max_worker_restarts: int = 2,
        join_timeout: float = 10.0,
    ) -> None:
        self._ctx = mp_context()
        self.bsf_vector = ProcessBsfVector(self._ctx)
        self._cache_bytes = cache_bytes_per_shard
        self._verify = verify
        self._join_timeout = join_timeout
        self._restarts_left = max_worker_restarts
        self.worker_restarts = 0
        workers = max(1, min(workers, len(shard_specs)))
        self._groups = [
            [
                (sid, str(path), base)
                for sid, path, base in shard_specs[i::workers]
            ]
            for i in range(workers)
        ]
        self._conns: list = [None] * workers
        self._procs: list = [None] * workers
        for i in range(workers):
            self._start_worker(i)
        for i, conn in enumerate(self._conns):
            reply = self._recv(conn, i)
            if reply[0] != "ready":
                self.close()
                raise ShardError(
                    f"query worker failed to open shards:\n{reply[1]}"
                )

    def _start_worker(self, i: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=query_worker_main,
            args=(
                child_conn,
                self._groups[i],
                self._cache_bytes,
                self._verify,
                self.bsf_vector,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[i] = parent_conn
        self._procs[i] = proc
        obs.watch_process(f"shard.{i}", proc.pid)

    def worker_pids(self) -> "list[int]":
        """Live worker pids, in worker order (for resource sampling)."""
        return [p.pid for p in self._procs if p is not None and p.is_alive()]

    def _restart_worker(self, i: int) -> bool:
        """Tear down worker ``i`` and respawn it; False when out of budget."""
        if self._restarts_left <= 0:
            return False
        self._restarts_left -= 1
        self.worker_restarts += 1
        proc, conn = self._procs[i], self._conns[i]
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if proc.is_alive():
            proc.terminate()
        reap_processes([proc], timeout=1.0, label="query")
        logger.warning(
            "restarting query worker %d (shards %s); %d restarts left",
            i, [sid for sid, _, _ in self._groups[i]], self._restarts_left,
        )
        self._start_worker(i)
        reply = self._recv(self._conns[i], i)
        if reply[0] != "ready":
            raise ShardError(
                f"restarted query worker failed to open shards:\n{reply[1]}"
            )
        obs.emit_event(
            "worker_restart",
            kind="query",
            worker=i,
            dead_pid=proc.pid,
            new_pid=self._procs[i].pid,
            shards=[sid for sid, _, _ in self._groups[i]],
            restarts_left=self._restarts_left,
        )
        return True

    def _recv(self, conn, worker: int, timeout: Optional[float] = None):
        """Receive one reply; raises ShardError on death/timeout."""
        if timeout is not None and not conn.poll(timeout):
            raise ShardTimeoutError(
                f"query worker {worker} missed its {timeout:.2f}s dispatch "
                "timeout"
            )
        try:
            return conn.recv()
        except EOFError:
            raise ShardError(
                f"query worker {worker} process died (pipe closed)"
            ) from None

    @property
    def batch_capacity(self) -> int:
        """Queries one scatter can carry (BSF vector slots)."""
        return self.bsf_vector.capacity

    def query(
        self,
        queries: np.ndarray,
        k: int,
        mode: str,
        config: Optional[HerculesConfig],
        policy: RetryPolicy,
    ) -> GatherOutcome:
        """Scatter a ``(Q, n)`` query block: ONE round-trip per worker.

        ``mode`` is the public call being served (see
        :func:`answer_shard`).  The block must fit :attr:`batch_capacity`
        (the coordinator chunks larger batches); per-query BSF² bounds
        broadcast through the shared :class:`ProcessBsfVector`, whose
        first Q cells are reset here.  Gathered pairs are ``(shard_id,
        BatchAnswer)`` sorted by shard id, positions global.  Worker
        failures are retried/restarted per ``policy``; whatever still
        fails lands in ``outcome.shard_errors``.  A caller error a
        worker ships home is raised once every worker has replied.
        """
        queries = np.ascontiguousarray(queries)
        if queries.shape[0] > self.batch_capacity:
            raise ValueError(
                f"batch of {queries.shape[0]} exceeds the pool's "
                f"{self.batch_capacity}-query scatter capacity"
            )
        self.bsf_vector.reset(queries.shape[0])
        payload = (
            "query",
            queries,
            int(k),
            mode,
            dataclasses.asdict(config) if config is not None else None,
            None,
        )
        started = time.monotonic()
        outcome = GatherOutcome()
        for conn in self._conns:
            try:
                conn.send(payload)
            except (BrokenPipeError, OSError):
                pass  # death is handled during this worker's gather
        caller_error = None
        for i in range(len(self._conns)):
            exc = self._gather_worker(i, payload, policy, started, outcome)
            caller_error = caller_error or exc
        if caller_error is not None:
            raise caller_error
        outcome.pairs.sort(key=lambda pair: pair[0])
        return outcome

    def _gather_worker(
        self, i: int, payload, policy: RetryPolicy, started: float, outcome
    ) -> Optional[Exception]:
        """Collect worker ``i``'s reply, retrying/restarting on failure.

        Returns the caller error the worker shipped home, if any; it is
        not a shard fault, so it is neither retried nor degraded past.
        """
        shard_ids = [sid for sid, _, _ in self._groups[i]]
        pending = set(shard_ids)
        attempt = 1
        request = payload
        while True:
            try:
                reply = self._recv(
                    self._conns[i], i, timeout=self._wait_budget(policy, started)
                )
                if reply[0] == "raise":
                    return reply[1]
                if reply[0] == "error":
                    raise ShardError(
                        f"query worker {i} failed:\n{reply[1]}"
                    )
                _, pairs, shard_errors = reply
                outcome.pairs.extend(pairs)
                pending -= {sid for sid, _ in pairs}
                if not shard_errors:
                    return
                raise ShardError(
                    "; ".join(
                        f"shard {sid} query failed:\n{text}"
                        for sid, text in shard_errors
                    )
                )
            except ShardError as exc:
                desynced = isinstance(exc, ShardTimeoutError) or (
                    not self._procs[i].is_alive()
                )
                if desynced:
                    # The pipe can no longer be trusted (late replies
                    # would poison the next query): restart or disable.
                    try:
                        restarted = self._restart_worker(i)
                    except ShardError as restart_exc:
                        restarted = False
                        exc = restart_exc
                    if restarted:
                        outcome.worker_restarts += 1
                    else:
                        outcome.shard_errors.extend(
                            (sid, str(exc)) for sid in sorted(pending)
                        )
                        return
                if attempt >= policy.attempts or self._past_deadline(
                    policy, started
                ):
                    outcome.shard_errors.extend(
                        (sid, str(exc)) for sid in sorted(pending)
                    )
                    return
                time.sleep(policy.delay(attempt, key=f"worker-{i}"))
                attempt += 1
                outcome.retries += 1
                request = payload[:-1] + (sorted(pending),)
                try:
                    self._conns[i].send(request)
                except (BrokenPipeError, OSError):
                    continue  # recv will classify the death next loop

    @staticmethod
    def _past_deadline(policy: RetryPolicy, started: float) -> bool:
        return (
            policy.deadline is not None
            and time.monotonic() - started >= policy.deadline
        )

    def _wait_budget(
        self, policy: RetryPolicy, started: float
    ) -> Optional[float]:
        """How long one recv may block: per-dispatch timeout ∧ deadline."""
        budget = policy.shard_timeout
        if policy.deadline is not None:
            remaining = max(policy.deadline - (time.monotonic() - started), 0.0)
            budget = remaining if budget is None else min(budget, remaining)
        return budget

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        reap_processes(
            [p for p in self._procs if p is not None],
            self._join_timeout,
            "query",
        )
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._conns = []
        self._procs = []
