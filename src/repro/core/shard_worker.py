"""Process workers behind the sharded engine, and the one supervisor they share.

Every worker process runs :func:`run_worker`: it builds a task handler
from a top-level factory (picklable under every ``multiprocessing``
start method), reports ``ready``, then answers one task per message
over its pipe.  :func:`build_handler` builds one shard from the dataset
published once in :class:`~multiprocessing.shared_memory.SharedMemory`
and ships the build report plus the worker's metrics, events and trace
spans home for cross-process attribution; :func:`query_handler` keeps a
subset of the shards open and warm and answers ``(Q, n)`` query blocks
through :func:`answer_shard`, each query pruning against its own cell of
a :class:`ProcessBsfVector`.

One :class:`WorkerSet` supervises both kinds (ParIS+/MESSI treat worker
failure as a first-class concern, and so does this engine): start, send,
wait while detecting death (pipe EOF or process exit) and timeouts,
restart within ``config.max_worker_restarts``, and reap on close with
``terminate()`` → ``kill()`` escalation, so shutdown never hangs.  Two
short dispatch loops sit on top of it:

* the sharded build (:func:`build_shards_in_processes`) hands each idle
  worker the next shard, so it knows which shard a dead worker held:
  that shard is wiped and requeued, and an error reply is wiped and
  retried per the configuration's :class:`~repro.retry.RetryPolicy`;
* the query pool (:class:`ShardQueryPool`) retries a failed dispatch per
  its :class:`~repro.retry.RetryPolicy` and reports per-shard errors to
  the caller — :class:`~repro.core.sharding.ShardedIndex` decides
  whether to degrade or raise.

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

import contextlib
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
    "BuildOutcome",
    "GatherOutcome",
    "ProcessBsfVector",
    "ShardQueryPool",
    "WorkerSet",
    "answer_shard",
    "build_handler",
    "build_shards_in_processes",
    "mp_context",
    "query_handler",
    "reap_processes",
    "run_worker",
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
    ``spawn``.  ``REPRO_MP_START`` forces a specific method — CI runs
    the fault matrix under ``spawn`` to keep every worker entry point
    and handler factory picklable.
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
    the vector exactly as it links to an in-process cell.
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
# The supervised worker set
# ---------------------------------------------------------------------------


def run_worker(conn, make_handler, handler_args: tuple) -> None:
    """Entry point of every worker process.

    ``make_handler(*handler_args)`` is a context manager yielding the
    task handler.  Once it is built the worker sends ``("ready", pid)``
    (or ``("error", traceback_text)`` if building it failed), then
    answers each ``("task", *args)`` with ``handle(*args)`` until
    ``("close",)`` or EOF.  Handlers turn their own failures into
    replies; anything that escapes one ends the worker.
    """
    try:
        with make_handler(*handler_args) as handle:
            conn.send(("ready", os.getpid()))
            while True:
                try:
                    message = conn.recv()
                except EOFError:
                    break
                if message[0] == "close":
                    break
                conn.send(handle(*message[1:]))
    except Exception:
        with contextlib.suppress(OSError):
            conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class WorkerSet:
    """``W`` supervised worker processes, one duplex pipe each.

    It owns the process lifecycle and nothing else: start every worker
    and wait for its ``ready``, :meth:`send`, :meth:`wait` for a reply
    while detecting death, :meth:`restart` within the ``max_restarts``
    budget, and :meth:`close`.  ``worker_args`` holds one
    ``(make_handler, handler_args)`` pair per worker for ``target``
    (:func:`run_worker`, or a scripted stand-in with its signature);
    ``start_timeout`` bounds each wait for ``ready``.  If any start
    fails, every worker already started is reaped before the
    :class:`ShardError` propagates.
    """

    def __init__(
        self,
        kind: str,
        worker_args: list,
        max_restarts: int,
        join_timeout: float,
        target=run_worker,
        start_timeout: Optional[float] = None,
    ) -> None:
        self.kind = kind
        self._ctx = mp_context()
        self._target = target
        self._worker_args = worker_args
        self._join_timeout = join_timeout
        self._start_timeout = start_timeout
        self._restarts_left = max_restarts
        self.worker_restarts = 0
        self._conns: list = []
        self._procs: list = []
        try:
            for i in range(len(worker_args)):
                self._launch(i)
            for i in range(len(worker_args)):
                self._await_ready(i)
        except BaseException:
            self.close(kill=True)
            raise

    def _launch(self, i: int) -> None:
        """Start worker ``i``, appended or replacing a torn-down one."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=self._target,
            args=(child_conn, *self._worker_args[i]),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if i == len(self._procs):
            self._conns.append(parent_conn)
            self._procs.append(proc)
        else:
            self._conns[i], self._procs[i] = parent_conn, proc
        obs.watch_process(f"shard.{i}", proc.pid)

    def _await_ready(self, i: int) -> None:
        got = self.wait([i], self._start_timeout)
        if got is None:
            raise WorkerSupervisionError(
                f"{self.kind} worker {i} stalled: not ready after "
                f"{self._start_timeout:.0f}s"
            )
        reply = got[1]
        if reply is None:
            raise ShardError(f"{self.kind} worker {i} died while starting")
        if reply[0] != "ready":
            raise ShardError(f"{self.kind} worker {i} failed to start:\n{reply[1]}")

    @property
    def size(self) -> int:
        return len(self._worker_args)

    def worker_pids(self) -> "list[int]":
        """Live worker pids, in worker order (for resource sampling)."""
        return [p.pid for p in self._procs if p.is_alive()]

    def send(self, i: int, message: tuple) -> None:
        """Send to worker ``i``; a dead peer is left for :meth:`wait` to see."""
        with contextlib.suppress(OSError):
            self._conns[i].send(message)

    def wait(self, workers: list, timeout: Optional[float]):
        """The first reply among ``workers``, as ``(i, reply)``.

        ``reply`` is ``None`` when worker ``i`` died: its pipe reached
        EOF, or its process exited with nothing left to read.  Returns
        ``None`` when ``timeout`` seconds pass with neither.
        """
        from multiprocessing import connection

        handles = {}
        for i in workers:
            handles[self._conns[i]] = handles[self._procs[i].sentinel] = i
        ready = connection.wait(list(handles), timeout)
        if not ready:
            return None
        i = min(handles[handle] for handle in ready)
        conn = self._conns[i]
        with contextlib.suppress(EOFError, OSError):
            if conn in ready or conn.poll():
                return i, conn.recv()
        return i, None

    def restart(self, i: int) -> bool:
        """Replace worker ``i`` (dead, or no longer trusted); False when
        the budget is spent.

        The old process is terminated either way, so a late reply never
        reaches a later task.  Each restart records one
        ``shard.worker_restart`` span and one ``worker_restart`` event.
        """
        old = self._procs[i]
        if old.is_alive():
            old.terminate()
        reap_processes([old], timeout=1.0, label=self.kind)
        if self._restarts_left <= 0:
            logger.warning(
                "%s worker %d (pid %s, exitcode %s) is gone; restart budget "
                "spent", self.kind, i, old.pid, old.exitcode,
            )
            return False
        self._restarts_left -= 1
        self.worker_restarts += 1
        self._conns[i].close()
        self._launch(i)
        attrs = dict(
            kind=self.kind,
            worker=i,
            dead_pid=old.pid,
            new_pid=self._procs[i].pid,
            exitcode=old.exitcode,
            restarts_left=self._restarts_left,
        )
        logger.warning(
            "%s worker %d (pid %s) died with exitcode %s; restarted as pid "
            "%s, %d restarts left", self.kind, i, old.pid, old.exitcode,
            attrs["new_pid"], self._restarts_left,
        )
        with obs.span("shard.worker_restart", **attrs):
            pass
        obs.emit_event("worker_restart", **attrs)
        self._await_ready(i)
        return True

    def close(self, kill: bool = False) -> None:
        """Send ``close`` to every worker and reap them; ``kill``
        terminates them at once instead (the error path)."""
        for i, proc in enumerate(self._procs):
            if not kill:
                self.send(i, ("close",))
            elif proc.is_alive():
                proc.terminate()
        reap_processes(self._procs, self._join_timeout, self.kind)
        for conn in self._conns:
            conn.close()
        self._conns, self._procs = [], []


# ---------------------------------------------------------------------------
# Build tasks
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def build_handler(
    shm_name: str,
    shape: tuple,
    dtype_str: str,
    config_fields: dict,
    trace_enabled: bool,
):
    """Handler factory of build workers: ``handle(shard_id, start, stop,
    shard_dir)`` builds one shard from the SharedMemory dataset.

    The reply is ``("ok", shard_id, payload)`` — the build report as a
    dict plus the worker's observability state — or ``("error",
    shard_id, traceback_text)``.  Shipped fault plans (the chaos
    channel) are installed around each shard's build so operation
    counts restart per shard.
    """
    from multiprocessing import shared_memory

    from repro.core.index import HerculesIndex

    config = HerculesConfig(**config_fields)
    shm = shared_memory.SharedMemory(name=shm_name)

    def handle(shard_id, start, stop, shard_dir):
        try:
            registry = obs.MetricsRegistry()
            journal = obs.EventJournal()
            hub = obs.TelemetryHub(registry=registry, journal=journal)
            trace = obs.Trace(f"shard-{shard_id}") if trace_enabled else None
            # Copy the slice out of shared memory: the build keeps
            # references to its input rows, and they must outlive the
            # mapping.
            rows = np.array(np.ndarray(shape, dtype_str, buffer=shm.buf)[start:stop])
            with faults.worker_injection([shard_id]), obs.use_hub(hub), (
                obs.use_trace(trace) if trace else contextlib.nullcontext()
            ), obs.span("build.shard", rows=int(stop - start)):
                index = HerculesIndex.build(rows, config, directory=Path(shard_dir))
            report = index.build_report
            index.close()
            obs.record_build(registry, report)
            payload = {
                "report": dataclasses.asdict(report),
                "metrics": registry.export_state(),
                "spans": trace.export_spans() if trace else [],
                "events": journal.export_state(),
                "pid": os.getpid(),
            }
            return ("ok", shard_id, payload)
        except Exception:
            return ("error", shard_id, traceback.format_exc())

    try:
        yield handle
    finally:
        shm.close()


@dataclass
class BuildOutcome:
    """What supervision did to finish a sharded build (all zero when
    healthy): workers restarted after dying, shard tasks requeued off
    dead workers, and shard builds retried after error replies.
    ``events`` holds one logged line per intervention."""

    worker_restarts: int = 0
    requeued_tasks: int = 0
    task_retries: int = 0
    events: list = field(default_factory=list)

    def note(self, message: str) -> None:
        self.events.append(message)
        logger.warning("build supervision: %s", message)


def build_shards_in_processes(
    data: np.ndarray,
    ranges: list,
    shard_dirs: list,
    config: HerculesConfig,
    workers: int,
    trace_enabled: bool,
    worker_main=None,
) -> tuple:
    """Build every shard as a task dispatched to a :class:`WorkerSet`.

    The dataset is published once in SharedMemory and each idle worker
    is handed the next shard, so N shards spread over fewer workers and
    the coordinator always knows which shard a worker holds:

    * a **dead worker**'s shard is wiped and requeued, and the worker is
      restarted while ``config.max_worker_restarts`` lasts; losing every
      worker with no budget left raises :class:`WorkerSupervisionError`;
    * an **error reply** is wiped and retried per
      ``config.retry_policy()``, then raised as :class:`ShardError`;
    * no reply for ``config.build_stall_timeout`` seconds raises
      :class:`WorkerSupervisionError` (the dead-build watchdog); a
      malformed reply raises :class:`ShardError`.

    Returns ``(replies, outcome)``: shard id → reply payload, and the
    :class:`BuildOutcome`.  ``worker_main`` substitutes the process
    entry (signature of :func:`run_worker`) — the supervision tests
    inject scripted workers that die, stall, or answer out of protocol.
    """
    from multiprocessing import shared_memory

    data = np.ascontiguousarray(data)
    shm = shared_memory.SharedMemory(create=True, size=data.nbytes)
    pool = None
    try:
        np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)[:] = data
        handler_args = (
            shm.name, data.shape, str(data.dtype),
            dataclasses.asdict(config), trace_enabled,
        )
        pool = WorkerSet(
            "build",
            [(build_handler, handler_args)] * max(1, min(workers, len(ranges))),
            config.max_worker_restarts,
            config.build_join_timeout,
            target=worker_main or run_worker,
            start_timeout=config.build_stall_timeout,
        )
        policy = config.retry_policy()
        outcome = BuildOutcome()
        pending = list(range(len(ranges)))  # shard ids to send, next first
        assigned: dict = {}  # worker → the shard it holds
        retired: set = set()  # dead workers the budget could not replace
        failures = dict.fromkeys(pending, 0)
        replies: dict = {}
        while len(replies) < len(ranges):
            for i in range(pool.size):
                if pending and i not in assigned and i not in retired:
                    shard_id = assigned[i] = pending.pop(0)
                    start, stop = ranges[shard_id]
                    pool.send(i, ("task", shard_id, start, stop, str(shard_dirs[shard_id])))
            got = pool.wait(list(assigned), config.build_stall_timeout)
            if got is None:
                obs.emit_event(
                    "stall_watchdog",
                    timeout=config.build_stall_timeout,
                    done=len(replies),
                    total=len(ranges),
                )
                raise WorkerSupervisionError(
                    f"shard build stalled: no worker progress for "
                    f"{config.build_stall_timeout:.0f}s "
                    f"({len(replies)}/{len(ranges)} shards done)"
                )
            i, reply = got
            shard_id = assigned.pop(i)
            if reply is None:
                shutil.rmtree(shard_dirs[shard_id], ignore_errors=True)
                pending.insert(0, shard_id)
                outcome.requeued_tasks += 1
                outcome.note(f"worker {i} died holding shard {shard_id}; requeued")
                if pool.restart(i):
                    outcome.worker_restarts += 1
                    continue
                retired.add(i)
                if len(retired) == pool.size:
                    raise WorkerSupervisionError(
                        "all shard build workers died and the restart "
                        f"budget ({config.max_worker_restarts}) is spent "
                        f"({len(replies)}/{len(ranges)} shards done)"
                    )
                continue
            if not (
                isinstance(reply, tuple)
                and len(reply) == 3
                and reply[:2] in (("ok", shard_id), ("error", shard_id))
                and (reply[0] == "error" or isinstance(reply[2], dict))
            ):
                raise ShardError(f"malformed reply from build worker: {reply!r}")
            status, _, payload = reply
            if status == "ok":
                replies[shard_id] = payload
                continue
            failures[shard_id] += 1
            if failures[shard_id] >= policy.attempts:
                raise ShardError(
                    f"shard {shard_id} build failed in worker after "
                    f"{failures[shard_id]} attempts:\n{payload}"
                )
            outcome.task_retries += 1
            outcome.note(
                f"shard {shard_id} build failed (attempt {failures[shard_id]}/"
                f"{policy.attempts}); wiped and requeued"
            )
            time.sleep(policy.delay(failures[shard_id], key=f"shard-{shard_id}"))
            shutil.rmtree(shard_dirs[shard_id], ignore_errors=True)
            pending.insert(0, shard_id)
        pool.close()
        pool = None
        return replies, outcome
    finally:
        if pool is not None:
            pool.close(kill=True)
        shm.close()
        shm.unlink()


# ---------------------------------------------------------------------------
# Query tasks
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
    (an in-process or process-shared cell), so a bound any shard finds
    prunes that query everywhere and never another query.  The in-process
    scatter and the query workers both answer a shard through here.
    """
    results = [LinkedResultSet(k, link) for link in links]
    batch = index._search(
        queries, k, config, results, phase1_only=mode == "knn_approx"
    )
    for answer in batch:
        answer.positions = answer.positions + row_base
    return batch


@contextlib.contextmanager
def query_handler(
    specs: list,
    cache_bytes_per_shard: int,
    verify: str,
    bsf_vector: ProcessBsfVector,
):
    """Handler factory of query workers: ``handle(queries, k, mode,
    config_fields_or_None, shard_ids_or_None)`` answers a ``(Q, n)``
    block on the owned shards.

    ``specs`` lists the ``(shard_id, directory, row_base)`` this worker
    opens once and keeps.  The reply is ``("ok", [(shard_id,
    batch_answer), ...], [(shard_id, error_text), ...])``, query ``qi``
    pruning against cell ``qi`` of the shared ``bsf_vector``.
    :data:`RETRYABLE` shard faults are *collected*, not fatal, so one
    bad shard does not void its siblings' work, and a retry can target
    just the failed subset via ``shard_ids``.  Any other exception is a
    caller error and comes home as ``("raise", exception)``.  Shipped
    fault plans targeting any owned shard are installed for the worker's
    whole life (the chaos channel into query paths).
    """
    from repro.core.index import HerculesIndex

    indexes = []

    def handle(queries, k, mode, config_fields, only):
        try:
            config = HerculesConfig(**config_fields) if config_fields else None
            links = [bsf_vector.cell(qi) for qi in range(queries.shape[0])]
            out = []
            shard_errors = []
            for shard_id, row_base, index in indexes:
                if only is not None and shard_id not in only:
                    continue
                try:
                    batch = answer_shard(index, queries, k, mode, config, links, row_base)
                    out.append((shard_id, batch))
                except RETRYABLE:
                    shard_errors.append((shard_id, traceback.format_exc()))
            return ("ok", out, shard_errors)
        except Exception as exc:
            return ("raise", exc)

    try:
        with faults.worker_injection([sid for sid, _, _ in specs]):
            for shard_id, directory, row_base in specs:
                index = HerculesIndex.open(
                    directory, verify=verify, cache_bytes=cache_bytes_per_shard
                )
                indexes.append((shard_id, row_base, index))
            yield handle
    finally:
        for _, _, index in indexes:
            index.close()


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


class ShardQueryPool(WorkerSet):
    """A persistent :class:`WorkerSet` of query workers over opened shards.

    Shards are distributed round-robin over ``workers`` processes; each
    worker opens its shards once (cold) and keeps them — and their leaf
    caches — warm across queries, matching the paper's asynchronous
    warm-cache workload model.  A :class:`ProcessBsfVector` links every
    worker's pruning to each query's global best-so-far; the
    coordinator resets the cells of the queries in flight before each
    scatter.

    Dispatch is fault-tolerant: per-shard errors reported by a live
    worker are retried per the :class:`~repro.retry.RetryPolicy`; a
    dead worker is restarted (its shards re-opened) within the
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
        self.bsf_vector = ProcessBsfVector()
        workers = max(1, min(workers, len(shard_specs)))
        self._groups = [
            [(sid, str(path), base) for sid, path, base in shard_specs[i::workers]]
            for i in range(workers)
        ]
        super().__init__(
            "query",
            [
                (query_handler, (group, cache_bytes_per_shard, verify, self.bsf_vector))
                for group in self._groups
            ],
            max_worker_restarts,
            join_timeout,
        )

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
            "task",
            queries,
            int(k),
            mode,
            dataclasses.asdict(config) if config is not None else None,
            None,
        )
        started = time.monotonic()
        outcome = GatherOutcome()
        for i in range(self.size):
            self.send(i, payload)
        caller_error = None
        for i in range(self.size):
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
        pending = {sid for sid, _, _ in self._groups[i]}
        attempt = 1
        while True:
            try:
                budget = self._wait_budget(policy, started)
                got = self.wait([i], budget)
                if got is None:
                    raise ShardTimeoutError(
                        f"query worker {i} missed its {budget:.2f}s dispatch "
                        "timeout"
                    )
                reply = got[1]
                if reply is None:
                    raise ShardError(f"query worker {i} process died (pipe closed)")
                if reply[0] == "raise":
                    return reply[1]
                if reply[0] == "error":
                    raise ShardError(f"query worker {i} failed:\n{reply[1]}")
                _, pairs, shard_errors = reply
                outcome.pairs.extend(pairs)
                pending -= {sid for sid, _ in pairs}
                if not shard_errors:
                    return None
                raise ShardError(
                    "; ".join(
                        f"shard {sid} query failed:\n{text}"
                        for sid, text in shard_errors
                    )
                )
            except ShardError as exc:
                if isinstance(exc, ShardTimeoutError) or not self._procs[i].is_alive():
                    # The pipe can no longer be trusted (late replies
                    # would poison the next query): restart or give up.
                    try:
                        restarted = self.restart(i)
                    except ShardError as restart_exc:
                        restarted, exc = False, restart_exc
                    if not restarted:
                        outcome.shard_errors.extend(
                            (sid, str(exc)) for sid in sorted(pending)
                        )
                        return None
                    outcome.worker_restarts += 1
                if attempt >= policy.attempts or policy.past_deadline(started):
                    outcome.shard_errors.extend(
                        (sid, str(exc)) for sid in sorted(pending)
                    )
                    return None
                time.sleep(policy.delay(attempt, key=f"worker-{i}"))
                attempt += 1
                outcome.retries += 1
                self.send(i, payload[:-1] + (sorted(pending),))

    def _wait_budget(
        self, policy: RetryPolicy, started: float
    ) -> Optional[float]:
        """How long one wait may block: per-dispatch timeout ∧ deadline."""
        budget = policy.shard_timeout
        if policy.deadline is not None:
            remaining = max(policy.deadline - (time.monotonic() - started), 0.0)
            budget = remaining if budget is None else min(budget, remaining)
        return budget
