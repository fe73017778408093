"""Parallel index building (Section 3.3.2, Algorithms 1-5, Figure 3).

A coordinator thread reads the dataset in batches into one half of the
DBuffer while InsertWorker threads drain the other half into the tree,
storing raw series in their HBuffer regions.  When enough regions fill
up, the first InsertWorker becomes the FlushCoordinator and spills every
leaf's in-memory series to the spill file while the other workers wait
(Algorithms 3-4).  The synchronization objects — DBarrier,
ContinueBarrier, FlushBarrier, handshake bits, FetchAdd counters — map
one-to-one onto the paper's pseudocode.

Insertion runs in one of two modes:

* **Grouped batch insertion** (the default, :func:`insert_batch`):
  workers claim index *ranges* from the DBuffer counter, route the whole
  claim down the tree with one vectorized predicate per node, and take
  each leaf lock once per (leaf, group) — bulk HBuffer store, one
  vectorized synopsis update, splits consuming the group in
  capacity-sized chunks.  Split order follows the arrival index of the
  triggering series (a min-heap over pending groups), so the resulting
  tree — node ids, leaf contents, synopses — is bit-for-bit identical to
  the per-row path.  This is the ParIS+ move (per-series work → batch
  passes) applied to the whole construction pipeline.
* **Per-row insertion** (:func:`insert_series`,
  ``batched_inserts=False``): the reference implementation, one Python
  call per series, kept for parity tests and the build benchmark's
  baseline.

``num_build_threads == 1`` selects a sequential path that performs the
same insertions and flushes without worker threads; the resulting tree is
identical in distribution (thread interleaving only permutes insertion
order, which the tree's splits do not depend on once all series arrive).
"""

from __future__ import annotations

import heapq
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import obs
from repro.core.atomic import Barrier, FetchAdd, Flag, HandshakeBit
from repro.core.buffers import DoubleBuffer, HBuffer
from repro.core.config import HerculesConfig
from repro.core.node import Node, SpillExtent, synopsis_from_stats
from repro.core.split import choose_split
from repro.errors import ConfigError
from repro.storage.dataset import Dataset
from repro.storage.files import SeriesFile
from repro.summarization.eapca import BatchSketch, Segmentation, SeriesSketch

logger = logging.getLogger(__name__)


class PhaseTimers:
    """Thread-safe accumulated wall seconds per construction phase.

    Insert workers accumulate locally and fold in once per batched call,
    so the hot path pays two ``perf_counter`` reads per phase per group,
    not a lock per row.  The phases mirror the paper's Table 4
    decomposition of index building: routing, storing, splitting, and
    flushing.
    """

    PHASES = ("route", "store", "split", "flush")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seconds = {phase: 0.0 for phase in self.PHASES}

    def add(self, phase: str, seconds: float) -> None:
        with self._lock:
            self._seconds[phase] += seconds

    def seconds(self) -> dict:
        """A snapshot of the per-phase totals."""
        with self._lock:
            return dict(self._seconds)


@dataclass
class BuildContext:
    """Shared state of one index-building run."""

    root: Node
    hbuffer: HBuffer
    spill: SeriesFile
    config: HerculesConfig
    node_ids: FetchAdd = field(default_factory=lambda: FetchAdd(1))
    #: Number of leaf splits performed (reported by build statistics).
    splits: FetchAdd = field(default_factory=lambda: FetchAdd(0))
    #: Number of flush phases executed.
    flushes: FetchAdd = field(default_factory=lambda: FetchAdd(0))
    #: Per-phase wall-time accumulators (route/store/split/flush).
    timers: PhaseTimers = field(default_factory=PhaseTimers)

    def next_node_id(self) -> int:
        return self.node_ids.fetch_add(1)


def new_build_context(
    dataset: Dataset, config: HerculesConfig, spill: SeriesFile
) -> BuildContext:
    """Create the root node, HBuffer, and shared counters for a build."""
    length = dataset.series_length
    if config.initial_segments > length:
        raise ConfigError(
            f"initial_segments={config.initial_segments} exceeds the series "
            f"length {length}"
        )
    root = Node(0, Segmentation.uniform(length, config.initial_segments))
    workers = config.num_insert_workers
    # A worker only processes a batch when its region can absorb it whole
    # (Algorithm 2 line 6), so each region must fit one effective batch or
    # the batch could find no worker at all.
    effective_db = min(config.db_size, dataset.num_series)
    capacity = config.buffer_capacity
    if capacity is None:
        capacity = max(dataset.num_series, workers * effective_db)
    hbuffer = HBuffer(capacity, length, workers)
    min_region = min(hbuffer.region_capacity(w) for w in range(workers))
    if min_region < effective_db:
        raise ConfigError(
            f"HBuffer regions of {min_region} series cannot absorb DBuffer "
            f"batches of {effective_db}; raise buffer_capacity or lower "
            f"db_size/num_build_threads"
        )
    return BuildContext(root=root, hbuffer=hbuffer, spill=spill, config=config)


# ---------------------------------------------------------------------------
# Algorithm 5: InsertSeriesToNode
# ---------------------------------------------------------------------------


def route_to_leaf(node: Node, sketch: SeriesSketch) -> Node:
    """Descend from ``node`` to the leaf a series belongs to (lock-free).

    Split publication order (children and policy before ``is_leaf``)
    makes the unlocked reads safe; the caller re-checks leafness under
    the lock (Algorithm 5 lines 2-6).
    """
    while not node.is_leaf:
        node = node.route(sketch)
    return node


def insert_series(ctx: BuildContext, worker: int, series: np.ndarray) -> None:
    """Insert one raw series into the tree (Algorithm 5)."""
    sketch = SeriesSketch(series)
    node = route_to_leaf(ctx.root, sketch)
    node.lock.acquire()
    while not node.is_leaf:
        # Another thread split this node while we were acquiring the lock.
        node.lock.release()
        node = route_to_leaf(node, sketch)
        node.lock.acquire()
    try:
        means, stds = sketch.stats(node.segmentation)
        node.update_synopsis(means, stds)
        slot = ctx.hbuffer.store(worker, series)
        node.sbuffer.append(slot)
        node.size += 1
        if node.size > ctx.config.leaf_capacity:
            _split_leaf(ctx, node)
    finally:
        node.lock.release()


# ---------------------------------------------------------------------------
# Grouped batch insertion (the batched counterpart of Algorithm 5)
# ---------------------------------------------------------------------------


def insert_batch(ctx: BuildContext, worker: int, rows: np.ndarray) -> None:
    """Insert a claim of raw series into the tree as routed groups.

    Routing, synopsis updates, and HBuffer stores are whole-group NumPy
    passes; leaf locks are taken once per (leaf, group).  Groups that
    will split are processed in ascending order of the arrival index of
    the series that triggers the split (a min-heap keyed on that index),
    which reproduces the per-row path's split — and therefore node-id —
    sequence exactly: the tree built from any claim decomposition is
    bit-for-bit the tree :func:`insert_series` builds row by row.
    """
    count = rows.shape[0]
    if count == 0:
        return
    timers = ctx.timers
    with obs.span("build.insert_batch", worker=worker, rows=count) as sp:
        started = time.perf_counter()
        sketch = BatchSketch(rows)
        groups = _route_groups(ctx.root, sketch, np.arange(count, dtype=np.int64))
        timers.add("route", time.perf_counter() - started)
        sp.set("groups", len(groups))
        # Heap entries: (trigger arrival index, tiebreak, node, row indices).
        heap: list = []
        ticket = 0
        for node, idx in groups:
            heapq.heappush(heap, (_trigger(ctx, node, idx), ticket, node, idx))
            ticket += 1
        while heap:
            _, _, node, idx = heapq.heappop(heap)
            for child, sub in _insert_group(ctx, worker, node, idx, sketch):
                heapq.heappush(
                    heap, (_trigger(ctx, child, sub), ticket, child, sub)
                )
                ticket += 1


def _trigger(ctx: BuildContext, node: Node, idx: np.ndarray) -> int:
    """Arrival index at which ``node`` would first split absorbing ``idx``.

    Groups too small to split are keyed by their last row: they assign no
    node ids, so their position in the processing order is immaterial.
    """
    need = ctx.config.leaf_capacity + 1 - node.size
    return int(idx[min(max(need, 1), idx.size) - 1])


def _route_groups(
    node: Node, sketch: BatchSketch, idx: np.ndarray
) -> list:
    """Partition ``idx`` among the leaves below ``node`` (lock-free).

    One vectorized routing predicate per internal node; boolean masking
    preserves ascending order, so every group arrives at its leaf in
    arrival order.  The same split-publication ordering that makes
    :func:`route_to_leaf` safe makes these unlocked reads safe.
    """
    groups: list = []
    stack = [(node, idx)]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            groups.append((node, idx))
            continue
        policy = node.policy
        means, stds = sketch.range_stats(
            policy.route_start, policy.route_end, rows=idx
        )
        left = policy.route_left_batch(means, stds)
        stack.append((node.right, idx[~left]))
        stack.append((node.left, idx[left]))
    return groups


def _insert_group(
    ctx: BuildContext,
    worker: int,
    node: Node,
    idx: np.ndarray,
    sketch: BatchSketch,
) -> list:
    """Insert a routed group into ``node`` up to and including one split.

    Returns the sub-groups still to be inserted: the post-split remainder
    partitioned among the children, the same node again after a
    degenerate split, or a re-routing of the whole group when another
    worker split the node before this one acquired the lock.
    """
    while True:
        node.lock.acquire()
        if node.is_leaf:
            break
        # Another thread split this node while we were acquiring the lock.
        node.lock.release()
        started = time.perf_counter()
        groups = _route_groups(node, sketch, idx)
        ctx.timers.add("route", time.perf_counter() - started)
        return groups
    try:
        need = ctx.config.leaf_capacity + 1 - node.size
        if idx.size < need:
            _append_group(ctx, worker, node, idx, sketch)
            return []
        # Fill the leaf to one past capacity (``max(need, 1)`` keeps the
        # one-row-then-retry cadence of the per-row path on leaves left
        # over capacity by a degenerate split), then split and hand the
        # remainder back for re-routing.
        head = max(need, 1)
        _append_group(ctx, worker, node, idx[:head], sketch)
        _split_leaf(ctx, node)
        rest = idx[head:]
        if rest.size == 0:
            return []
        if node.is_leaf:
            # Degenerate split: the leaf stays over capacity; per-row
            # semantics retry after every subsequent insert.
            return [(node, rest)]
        policy = node.policy
        started = time.perf_counter()
        means, stds = sketch.range_stats(
            policy.route_start, policy.route_end, rows=rest
        )
        left = policy.route_left_batch(means, stds)
        ctx.timers.add("route", time.perf_counter() - started)
        out = []
        if left.any():
            out.append((node.left, rest[left]))
        if not left.all():
            out.append((node.right, rest[~left]))
        return out
    finally:
        node.lock.release()


def _append_group(
    ctx: BuildContext,
    worker: int,
    node: Node,
    idx: np.ndarray,
    sketch: BatchSketch,
) -> None:
    """Bulk-append a group to a leaf (caller holds the leaf lock)."""
    started = time.perf_counter()
    means, stds = sketch.stats(node.segmentation, rows=idx)
    node.update_synopsis_batch(means, stds)
    start = ctx.hbuffer.store_batch(worker, _gather_rows(sketch.rows, idx))
    node.sbuffer.extend(range(start, start + idx.size))
    node.size += idx.size
    ctx.timers.add("store", time.perf_counter() - started)


def _gather_rows(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The selected rows, as a view when ``idx`` is a contiguous run."""
    first = int(idx[0])
    if idx.size == int(idx[-1]) - first + 1:
        return rows[first : first + idx.size]
    return rows[idx]


def leaf_data(ctx: BuildContext, leaf: Node) -> np.ndarray:
    """All series of a leaf: spilled extents first, then HBuffer rows.

    Matches Algorithm 5 line 12 ("get all data series in N from memory
    and disk").  The caller must hold the leaf lock or otherwise have
    exclusive access.  The gather fills one preallocated matrix (spill
    extents copied into slices, HBuffer rows taken in place) instead of
    concatenating per-extent parts — splits and phase-2 leaf processing
    both sit on this path.
    """
    n_spilled = sum(extent.count for extent in leaf.spill_extents)
    total = n_spilled + len(leaf.sbuffer)
    out = np.empty(
        (total, ctx.hbuffer.series_length), dtype=ctx.hbuffer._data.dtype
    )
    row = 0
    for extent in leaf.spill_extents:
        out[row : row + extent.count] = ctx.spill.read_range(
            extent.position, extent.count
        )
        row += extent.count
    if leaf.sbuffer:
        ctx.hbuffer.get_rows(leaf.sbuffer, out=out[row:])
    return out


def _split_leaf(ctx: BuildContext, node: Node) -> None:
    """Split an over-capacity leaf (Algorithm 5 lines 9-14).

    The caller holds the node lock.  Series are fetched from memory and
    disk, redistributed by the best split policy, and the node becomes an
    internal node.  Children inherit the in-memory slots by reference;
    spilled series are re-spilled into fresh per-child extents (the old
    extents become dead space in the append-only spill file).
    """
    started = time.perf_counter()
    with obs.span("build.split", node=node.node_id, size=node.size) as sp:
        data = leaf_data(ctx, node)
        decision = choose_split(
            node.segmentation,
            data,
            allow_vertical=ctx.config.allow_vertical_splits,
            allow_std=ctx.config.allow_std_routing,
        )
        if decision is None:
            # Every candidate statistic is constant across the series (e.g.
            # a degenerate dataset of identical series): the leaf is allowed
            # to exceed its capacity.
            sp.set("degenerate", True)
        else:
            _apply_split(ctx, node, data, decision)
            sp.set("vertical", decision.policy.vertical)
    ctx.timers.add("split", time.perf_counter() - started)


def _apply_split(ctx: BuildContext, node: Node, data, decision) -> None:
    """Redistribute a leaf's series into two children and publish them."""
    policy = decision.policy
    left = Node(ctx.next_node_id(), policy.child_segmentation, parent=node)
    right = Node(ctx.next_node_id(), policy.child_segmentation, parent=node)

    mask = decision.left_mask
    for child, child_mask in ((left, mask), (right, ~mask)):
        child.synopsis = synopsis_from_stats(
            decision.child_means[child_mask], decision.child_stds[child_mask]
        )
        child.size = int(child_mask.sum())

    # Rows [0, n_spilled) of ``data`` came from the spill file, the rest
    # from HBuffer slots in sbuffer order.
    n_spilled = sum(extent.count for extent in node.spill_extents)
    slots = np.asarray(node.sbuffer, dtype=np.int64)
    memory_mask = mask[n_spilled:]
    left.sbuffer = [int(s) for s in slots[memory_mask]]
    right.sbuffer = [int(s) for s in slots[~memory_mask]]

    if n_spilled:
        spill_mask = mask[:n_spilled]
        for child, child_rows in (
            (left, data[:n_spilled][spill_mask]),
            (right, data[:n_spilled][~spill_mask]),
        ):
            if child_rows.shape[0]:
                position = ctx.spill.append_batch(child_rows)
                child.spill_extents.append(
                    SpillExtent(position, child_rows.shape[0])
                )

    # Publish children and policy before flipping is_leaf so lock-free
    # routing never observes an internal node without a policy.
    node.left = left
    node.right = right
    node.policy = policy
    node.sbuffer = []
    node.spill_extents = []
    node.is_leaf = False
    ctx.splits.fetch_add(1)


# ---------------------------------------------------------------------------
# Flushing (Algorithms 3-4)
# ---------------------------------------------------------------------------


def materialize_flush(ctx: BuildContext) -> None:
    """Spill every leaf's in-memory series and reset HBuffer regions.

    Runs with all InsertWorkers quiescent (they are parked between the
    ContinueBarrier and the FlushBarrier).
    """
    started = time.perf_counter()
    with obs.io_span("build.flush", ctx.spill.stats) as sp:
        spilled = 0
        for leaf in ctx.root.iter_leaves_inorder():
            if not leaf.sbuffer:
                continue
            rows = ctx.hbuffer.get_rows(leaf.sbuffer)
            position = ctx.spill.append_batch(rows)
            leaf.spill_extents.append(SpillExtent(position, rows.shape[0]))
            leaf.sbuffer = []
            spilled += rows.shape[0]
        ctx.hbuffer.reset_regions()
        flush_number = ctx.flushes.fetch_add(1) + 1
        sp.set_attrs(flush_number=flush_number, spilled_series=spilled)
    ctx.timers.add("flush", time.perf_counter() - started)
    logger.debug(
        "flush %d: spill file now holds %d series",
        flush_number,
        ctx.spill.num_series,
    )


class _BuildShared:
    """Synchronization objects shared by the coordinator and workers."""

    def __init__(self, config: HerculesConfig, series_length: int) -> None:
        workers = config.num_insert_workers
        self.dbuffer = DoubleBuffer(config.db_size, series_length)
        self.dbarrier = Barrier(workers + 1)
        self.continue_barrier = Barrier(workers)
        self.flush_barrier = Barrier(workers)
        self.flush_counter = FetchAdd(0)
        self.flush_order = Flag(False)
        self.handshakes = [HandshakeBit() for _ in range(workers)]
        self.errors: list[BaseException] = []
        self.error_lock = threading.Lock()

    def report_error(self, exc: BaseException) -> None:
        with self.error_lock:
            self.errors.append(exc)

    def abort_barriers(self) -> None:
        self.dbarrier.abort()
        self.continue_barrier.abort()
        self.flush_barrier.abort()


def _insert_worker(
    ctx: BuildContext, shared: _BuildShared, worker: int
) -> None:
    """Algorithm 2 (InsertWorker) with Algorithms 3-4 as its flush phase."""
    is_flush_coordinator = worker == 0
    batched = ctx.config.batched_inserts
    claim = ctx.config.effective_claim_size
    toggle = 0
    try:
        while not shared.dbuffer[toggle].finished.get():
            half = shared.dbuffer[toggle]
            region_has_space = ctx.hbuffer.free_slots(worker) >= half.size
            if region_has_space and batched:
                # Claim index *ranges* instead of single positions: one
                # FetchAdd and one insert_batch per ``claim`` series.
                pos = half.counter.fetch_add(claim)
                while pos < half.size:
                    end = min(pos + claim, half.size)
                    insert_batch(ctx, worker, half.data[pos:end])
                    pos = half.counter.fetch_add(claim)
            elif region_has_space:
                pos = half.counter.fetch_add(1)
                while pos < half.size:
                    insert_series(ctx, worker, half.data[pos])
                    pos = half.counter.fetch_add(1)
            shared.dbarrier.wait()
            if is_flush_coordinator:
                _flush_coordinator(ctx, shared, worker)
            else:
                _flush_worker(ctx, shared, worker)
            toggle = 1 - toggle
    except threading.BrokenBarrierError:
        return  # another thread failed; its error is already recorded
    except BaseException as exc:  # noqa: BLE001 - propagate to the caller
        shared.report_error(exc)
        shared.abort_barriers()


def _flush_coordinator(
    ctx: BuildContext, shared: _BuildShared, worker: int
) -> None:
    """Algorithm 3: decide whether to flush, then do it."""
    config = ctx.config
    with obs.span("build.flush.coordinator", worker=worker) as sp:
        shared.handshakes[worker].raise_bit()
        for bit in shared.handshakes:
            # Escape hatch: if a peer died before raising its bit, fail
            # this worker too instead of waiting forever (its error is
            # recorded).
            while not bit.await_raised(timeout=0.5):
                if shared.errors:
                    raise RuntimeError(
                        "flush handshake aborted: a worker failed"
                    )
        my_region_full = ctx.hbuffer.free_slots(worker) < config.db_size
        if (
            my_region_full
            or shared.flush_counter.load() >= config.flush_threshold
        ):
            shared.flush_order.set(True)
            shared.flush_counter.store(0)
        shared.continue_barrier.wait()
        shared.handshakes[worker].lower_bit()
        flushed = shared.flush_order.get()
        sp.set("flushed", flushed)
        if flushed:
            materialize_flush(ctx)
            shared.flush_barrier.wait()
            shared.flush_order.clear()


def _flush_worker(ctx: BuildContext, shared: _BuildShared, worker: int) -> None:
    """Algorithm 4: hand-shake with the coordinator, wait out a flush."""
    with obs.span("build.flush.worker", worker=worker) as sp:
        if ctx.hbuffer.free_slots(worker) < ctx.config.db_size:
            shared.flush_counter.fetch_add(1)
        shared.handshakes[worker].raise_bit()
        shared.continue_barrier.wait()
        shared.handshakes[worker].lower_bit()
        waited = shared.flush_order.get()
        sp.set("waited_for_flush", waited)
        if waited:
            shared.flush_barrier.wait()


# ---------------------------------------------------------------------------
# Algorithm 1: BuildHerculesIndex (the coordinator)
# ---------------------------------------------------------------------------


def build_tree(
    dataset: Dataset,
    config: HerculesConfig,
    spill: SeriesFile,
    context: Optional[BuildContext] = None,
) -> BuildContext:
    """Build the Hercules tree over ``dataset``; returns the build context.

    Leaves hold their series as HBuffer slots plus spill extents; the
    index-writing phase (:mod:`repro.core.writing`) turns this into
    LRDFile/LSDFile/HTree.
    """
    ctx = context if context is not None else new_build_context(dataset, config, spill)
    logger.info(
        "building tree over %d series x %d points (%d thread(s), "
        "HBuffer %d series)",
        dataset.num_series,
        dataset.series_length,
        config.num_build_threads,
        ctx.hbuffer.capacity,
    )
    with obs.span(
        "build.tree",
        num_series=dataset.num_series,
        num_threads=config.num_build_threads,
    ) as sp:
        if config.num_build_threads == 1:
            _build_sequential(ctx, dataset)
        else:
            _build_parallel(ctx, dataset)
        sp.set_attrs(splits=ctx.splits.load(), flushes=ctx.flushes.load())
        sp.set_attrs(
            **{
                f"{phase}_seconds": round(seconds, 6)
                for phase, seconds in ctx.timers.seconds().items()
            }
        )
    logger.info(
        "tree built: %d splits, %d flushes",
        ctx.splits.load(),
        ctx.flushes.load(),
    )
    return ctx


def _finite(batch: np.ndarray, position: int) -> np.ndarray:
    """``batch`` (dataset rows from ``position`` on), once it is known to
    hold only finite values: a NaN or inf series would poison its leaf's
    synopsis and every distance to it, so ingest rejects it."""
    bad = ~np.isfinite(batch).all(axis=1)
    if bad.any():
        raise ValueError(
            f"dataset series {position + int(bad.argmax())} holds NaN or "
            "infinite values; only finite series can be indexed"
        )
    return batch


def _build_sequential(ctx: BuildContext, dataset: Dataset) -> None:
    """Single-thread path: same inserts and flushes, no protocol."""
    config = ctx.config
    claim = config.effective_claim_size
    batches = (
        (start, _finite(batch, start))
        for start, batch in dataset.iter_batches(config.db_size)
    )
    while True:
        # The batch read happens lazily inside the generator; pulling it
        # under an explicit span keeps the buffering phase visible in
        # traces of the sequential path too.
        with obs.span("build.buffering") as sp:
            item = next(batches, None)
            if item is not None:
                sp.set_attrs(position=item[0], count=item[1].shape[0])
        if item is None:
            break
        _, batch = item
        if ctx.hbuffer.free_slots(0) < batch.shape[0]:
            materialize_flush(ctx)
        # One check per batch instead of one store-time check per row: a
        # flush (or the initial sizing) must have left room for the whole
        # batch, including the boundary case of an exactly-full region.
        assert ctx.hbuffer.free_slots(0) >= batch.shape[0], (
            f"HBuffer region cannot absorb a {batch.shape[0]}-series batch "
            f"after flushing ({ctx.hbuffer.free_slots(0)} slots free)"
        )
        if config.batched_inserts:
            for start in range(0, batch.shape[0], claim):
                insert_batch(ctx, 0, batch[start : start + claim])
        else:
            for row in batch:
                insert_series(ctx, 0, row)


def _build_parallel(ctx: BuildContext, dataset: Dataset) -> None:
    """The coordinator of Algorithm 1 plus its InsertWorker threads."""
    config = ctx.config
    shared = _BuildShared(config, dataset.series_length)
    total = dataset.num_series

    toggle = 0
    first = min(config.db_size, total)
    with obs.span("build.buffering", position=0, count=first):
        shared.dbuffer[toggle].fill(_finite(dataset.read_batch(0, first), 0))
    toggle = 1 - toggle

    # Worker threads start with an empty span stack, so the tree-build
    # span is captured here and attached to each worker span explicitly.
    parent = obs.current_span()

    def run_worker(worker: int) -> None:
        with obs.span("build.insert_worker", parent=parent, worker=worker):
            _insert_worker(ctx, shared, worker)

    threads = [
        threading.Thread(
            target=run_worker,
            args=(worker,),
            name=f"hercules-insert-{worker}",
            daemon=True,
        )
        for worker in range(config.num_insert_workers)
    ]
    for thread in threads:
        thread.start()

    try:
        position = first
        while position < total:
            count = min(config.db_size, total - position)
            with obs.span("build.buffering", position=position, count=count):
                shared.dbuffer[toggle].fill(
                    _finite(dataset.read_batch(position, count), position)
                )
            toggle = 1 - toggle
            shared.dbarrier.wait()
            # Workers just finished the half filled one iteration earlier,
            # which after the flip is the current ``toggle`` half.
            _check_batch_consumed(shared, toggle)
            position += count
        shared.dbuffer[toggle].finished.set(True)
        shared.dbarrier.wait()
        _check_batch_consumed(shared, 1 - toggle)
    except threading.BrokenBarrierError:
        pass
    except BaseException:
        shared.abort_barriers()  # release the workers before joining them
        raise
    finally:
        for thread in threads:
            thread.join()
    if shared.errors:
        raise shared.errors[0]


def _check_batch_consumed(shared: _BuildShared, toggle: int) -> None:
    """Safety net: a batch left unconsumed would mean silent data loss.

    Cannot happen while flush_threshold < num_insert_workers (at least one
    worker always has room for a batch), but a violated invariant must
    fail loudly rather than drop series.
    """
    half = shared.dbuffer[toggle]
    if half.counter.load() < half.size:
        shared.abort_barriers()
        raise RuntimeError(
            "index building dropped a batch: every InsertWorker region was "
            "full; this indicates a flush-protocol bug"
        )
