"""Index building (Section 3.3.2, Algorithms 1-5, Figure 3).

One loop on the calling thread builds the tree: it reads a ``db_size``
batch of the dataset, rejects non-finite rows, spills every leaf's
in-memory series to the spill file when the HBuffer cannot absorb the
batch (Algorithm 3's flush), and inserts the batch.  The paper runs this
as a coordinator filling a double DBuffer while InsertWorker threads
drain it, with barriers and handshake bits around each flush
(Algorithms 1-4).  On this runtime those threads built slower and grew a
different tree on every run (EXPERIMENTS.md, Figure 12a); the
process-parallel sharded build is this reproduction's parallel arm.

Insertion runs in one of two modes:

* **Grouped batch insertion** (the default, :func:`insert_batch`): each
  batch is routed down the tree with one vectorized predicate per node
  and lands in each leaf as one group — bulk HBuffer store, one
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
"""

from __future__ import annotations

import heapq
import logging
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import obs
from repro.core.buffers import HBuffer
from repro.core.config import HerculesConfig
from repro.core.node import Node, SpillExtent, synopsis_from_stats
from repro.core.split import choose_split
from repro.errors import ConfigError
from repro.storage.dataset import Dataset
from repro.storage.files import SeriesFile
from repro.summarization.eapca import BatchSketch, Segmentation, SeriesSketch

logger = logging.getLogger(__name__)


class PhaseTimers:
    """Accumulated wall seconds per construction phase.

    The batched path adds once per group, not once per row.  The phases
    mirror the paper's Table 4 decomposition of index building: routing,
    storing, splitting, and flushing.
    """

    PHASES = ("route", "store", "split", "flush")

    def __init__(self) -> None:
        self._seconds = {phase: 0.0 for phase in self.PHASES}

    def add(self, phase: str, seconds: float) -> None:
        self._seconds[phase] += seconds

    def seconds(self) -> dict:
        """A snapshot of the per-phase totals."""
        return dict(self._seconds)


@dataclass
class BuildContext:
    """State of one index-building run."""

    root: Node
    hbuffer: HBuffer
    spill: SeriesFile
    config: HerculesConfig
    #: The id the next new node gets (the root is node 0).
    node_ids: int = 1
    #: Number of leaf splits performed (reported by build statistics).
    splits: int = 0
    #: Number of flush phases executed.
    flushes: int = 0
    #: Per-phase wall-time accumulators (route/store/split/flush).
    timers: PhaseTimers = field(default_factory=PhaseTimers)

    def next_node_id(self) -> int:
        node_id = self.node_ids
        self.node_ids += 1
        return node_id


def new_build_context(
    dataset: Dataset, config: HerculesConfig, spill: SeriesFile
) -> BuildContext:
    """Create the root node, HBuffer, and counters for a build."""
    length = dataset.series_length
    if config.initial_segments > length:
        raise ConfigError(
            f"initial_segments={config.initial_segments} exceeds the series "
            f"length {length}"
        )
    root = Node(0, Segmentation.uniform(length, config.initial_segments))
    # A flush empties the HBuffer before a batch that does not fit, so the
    # buffer must hold one whole batch.
    effective_db = min(config.db_size, dataset.num_series)
    capacity = config.buffer_capacity
    if capacity is None:
        capacity = dataset.num_series
    if capacity < effective_db:
        raise ConfigError(
            f"an HBuffer of {capacity} series cannot absorb "
            f"batches of {effective_db}; raise buffer_capacity or lower "
            f"db_size"
        )
    hbuffer = HBuffer(capacity, length)
    return BuildContext(root=root, hbuffer=hbuffer, spill=spill, config=config)


# ---------------------------------------------------------------------------
# Algorithm 5: InsertSeriesToNode
# ---------------------------------------------------------------------------


def route_to_leaf(node: Node, sketch: SeriesSketch) -> Node:
    """Descend from ``node`` to the leaf a series belongs to."""
    while not node.is_leaf:
        node = node.route(sketch)
    return node


def insert_series(ctx: BuildContext, series: np.ndarray) -> None:
    """Insert one raw series into the tree (Algorithm 5)."""
    sketch = SeriesSketch(series)
    node = route_to_leaf(ctx.root, sketch)
    means, stds = sketch.stats(node.segmentation)
    node.update_synopsis(means, stds)
    node.sbuffer.append(ctx.hbuffer.store(series))
    node.size += 1
    if node.size > ctx.config.leaf_capacity:
        _split_leaf(ctx, node)


# ---------------------------------------------------------------------------
# Grouped batch insertion (the batched counterpart of Algorithm 5)
# ---------------------------------------------------------------------------


def insert_batch(ctx: BuildContext, rows: np.ndarray) -> None:
    """Insert a batch of raw series into the tree as routed groups.

    Routing, synopsis updates, and HBuffer stores are whole-group NumPy
    passes.  Groups that will split are processed in ascending order of
    the arrival index of the series that triggers the split (a min-heap
    keyed on that index), which reproduces the per-row path's split —
    and therefore node-id — sequence exactly: the tree built from any
    batch decomposition is bit-for-bit the tree :func:`insert_series`
    builds row by row.
    """
    count = rows.shape[0]
    if count == 0:
        return
    timers = ctx.timers
    with obs.span("build.insert_batch", rows=count) as sp:
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
            for child, sub in _insert_group(ctx, node, idx, sketch):
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
    """Partition ``idx`` among the leaves below ``node``.

    One vectorized routing predicate per internal node; boolean masking
    preserves ascending order, so every group arrives at its leaf in
    arrival order.
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
    ctx: BuildContext, node: Node, idx: np.ndarray, sketch: BatchSketch
) -> list:
    """Insert a routed group into leaf ``node`` up to and including one split.

    Returns the sub-groups still to be inserted: the post-split remainder
    partitioned among the children, or the same node again after a
    degenerate split.
    """
    need = ctx.config.leaf_capacity + 1 - node.size
    if idx.size < need:
        _append_group(ctx, node, idx, sketch)
        return []
    # Fill the leaf to one past capacity (``max(need, 1)`` keeps the
    # one-row-then-retry cadence of the per-row path on leaves left over
    # capacity by a degenerate split), then split and hand the remainder
    # back for re-routing.
    head = max(need, 1)
    _append_group(ctx, node, idx[:head], sketch)
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


def _append_group(
    ctx: BuildContext, node: Node, idx: np.ndarray, sketch: BatchSketch
) -> None:
    """Bulk-append a group to a leaf."""
    started = time.perf_counter()
    means, stds = sketch.stats(node.segmentation, rows=idx)
    node.update_synopsis_batch(means, stds)
    start = ctx.hbuffer.store_batch(_gather_rows(sketch.rows, idx))
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
    and disk").  The gather fills one preallocated matrix (spill
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

    Series are fetched from memory and
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

    node.left = left
    node.right = right
    node.policy = policy
    node.sbuffer = []
    node.spill_extents = []
    node.is_leaf = False
    ctx.splits += 1


# ---------------------------------------------------------------------------
# Flushing (Algorithm 3's spill)
# ---------------------------------------------------------------------------


def materialize_flush(ctx: BuildContext) -> None:
    """Spill every leaf's in-memory series and empty the HBuffer."""
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
        ctx.hbuffer.reset()
        ctx.flushes += 1
        sp.set_attrs(flush_number=ctx.flushes, spilled_series=spilled)
    ctx.timers.add("flush", time.perf_counter() - started)
    logger.debug(
        "flush %d: spill file now holds %d series",
        ctx.flushes,
        ctx.spill.num_series,
    )


# ---------------------------------------------------------------------------
# Algorithm 1: BuildHerculesIndex
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
        "building tree over %d series x %d points (HBuffer %d series)",
        dataset.num_series,
        dataset.series_length,
        ctx.hbuffer.capacity,
    )
    with obs.span("build.tree", num_series=dataset.num_series) as sp:
        _insert_dataset(ctx, dataset)
        sp.set_attrs(splits=ctx.splits, flushes=ctx.flushes)
        sp.set_attrs(
            **{
                f"{phase}_seconds": round(seconds, 6)
                for phase, seconds in ctx.timers.seconds().items()
            }
        )
    logger.info("tree built: %d splits, %d flushes", ctx.splits, ctx.flushes)
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


def _insert_dataset(ctx: BuildContext, dataset: Dataset) -> None:
    """Read, check, flush if needed, insert: one ``db_size`` batch at a time."""
    batches = (
        (start, _finite(batch, start))
        for start, batch in dataset.iter_batches(ctx.config.db_size)
    )
    while True:
        # The batch read happens lazily inside the generator; pulling it
        # under an explicit span keeps the buffering phase visible in
        # traces.
        with obs.span("build.buffering") as sp:
            item = next(batches, None)
            if item is not None:
                sp.set_attrs(position=item[0], count=item[1].shape[0])
        if item is None:
            break
        _, batch = item
        if ctx.hbuffer.free_slots() < batch.shape[0]:
            materialize_flush(ctx)
        if ctx.config.batched_inserts:
            insert_batch(ctx, batch)
        else:
            for row in batch:
                insert_series(ctx, row)
