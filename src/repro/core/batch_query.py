"""Batched multi-query execution: shared-leaf scans and matrix kernels.

A workload of Q queries answered one at a time re-descends the tree, re-
reads the same hot leaves, and runs Q independent (1×n) kernel passes.
This engine plans and executes the whole query set together so every
expensive touch is amortized across the queries that need it:

* **One bound pass.**  A single (Q × nodes) call on the index's
  :class:`~repro.core.leaf_table.LeafTable` gives every query its row of
  effective per-leaf LB_EAPCA²; phases 1-2 are array operations on it.
* **The serial LB_SAX pass.**  Phase 3 is the serial pipeline's kernel
  over each query's own LCList rows and BSF²
  (:meth:`~repro.core.prefilter.SignatureArray.screen_batch` ahead of
  the access-path decision with ``prefilter``, the serial routine at
  the paper's position otherwise), so the candidates are the serial
  ones by construction.
* **Shared-leaf refinement.**  The LCLists form a leaf→{query set}
  access plan; each surviving leaf is read from ``SeriesFile``/
  ``LeafCache`` exactly once and refined with a single screening
  (Q_leaf × rows) matrix kernel
  (:func:`~repro.distance.euclidean.early_abandon_squared_multi`)
  sharing the row load across queries, with per-query live BSF²
  cutoffs.  Per-query result sets update from the shared distance
  block.
* **Batch-scoped read memoization.**  All leaf reads of the batch —
  including the approximate-descent scans — go through one
  :class:`_BlockStore`, so a leaf touched by many queries is loaded
  once per batch regardless of cache configuration.

**Parity.**  Queries are independent search problems: each keeps its own
:class:`~repro.core.results.ResultSet`, BSF², and profile, and the
engine only re-orders *when* each query's work runs, never the per-query
order itself (leaves are processed in file-position order, exactly as
the serial pipeline does).  For exact search (ε = 0) answers are
order-independent, and the shared matrix kernel re-evaluates survivors
with the same whole-row arithmetic as the single-query kernel — batch
answers are value-identical to serial ones.  For ε-approximate search,
where pruning decisions depend on the BSF at each check, the engine
falls back to refining each query with the serial pipeline's own routine
(:func:`repro.core.query._refine_runs`; its reads are cut from the
shared store's blocks, so the I/O sharing survives); answers and work
counters then match the single-query path bit for bit by construction.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import obs
from repro.core.config import HerculesConfig
from repro.core.leaf_table import LeafTable
from repro.core.node import Node
from repro.core.prefilter import SignatureArray
from repro.core.query import (
    QueryAnswer,
    _approx_knn,
    _find_candidate_leaves,
    _find_candidate_series,
    _refine_leaves,
    _refine_series,
    _SearchState,
    _trim_to_candidates,
)
from repro.core.results import ResultSet
from repro.distance.euclidean import (
    # Not called here any more (the ε > 0 fallback refines through
    # core.query); the end-to-end benchmark's tracer still patches the
    # name in this module, so it stays bound.
    early_abandon_squared,  # noqa: F401
    early_abandon_squared_multi,
)
from repro.storage.files import SeriesFile, adjacent_runs
from repro.summarization.eapca import BatchSketch
from repro.types import DISTANCE_DTYPE

__all__ = ["BatchAnswer", "BatchStats", "exact_knn_batch"]


@dataclass
class BatchStats:
    """Batch-level execution metrics of one :func:`exact_knn_batch` call."""

    num_queries: int = 0
    #: Physical leaf-block loads performed for the whole batch.
    unique_leaf_reads: int = 0
    #: Per-query leaf-block touches served by those loads — descent
    #: scans plus refinement reads, summed over queries.
    #: ``leaf_share_factor`` > 1 means leaves were shared across
    #: queries instead of re-read per query.
    leaf_uses: int = 0
    #: Candidate rows the refinement kernels evaluated, summed over
    #: queries (each shared read serves ``kernel_rows_per_read`` rows).
    kernel_rows: int = 0
    #: Wall seconds of the pre-decision LB_SAX pass (0 with ``prefilter``
    #: off, where the pass runs inside refinement planning).
    screen_seconds: float = 0.0
    #: Wall seconds of the whole batch call.
    total_seconds: float = 0.0

    @property
    def leaf_share_factor(self) -> float:
        """Per-query leaf refinements per physical leaf read."""
        if self.unique_leaf_reads <= 0:
            return 0.0
        return self.leaf_uses / self.unique_leaf_reads

    @property
    def kernel_rows_per_read(self) -> float:
        """Kernel row evaluations amortized over each physical read."""
        if self.unique_leaf_reads <= 0:
            return 0.0
        return self.kernel_rows / self.unique_leaf_reads

    @property
    def screen_seconds_per_query(self) -> float:
        if self.num_queries <= 0:
            return 0.0
        return self.screen_seconds / self.num_queries


class BatchAnswer:
    """Per-query :class:`QueryAnswer` sequence plus batch-level stats.

    Behaves like the list of answers the serial loop used to return
    (iteration, indexing, ``len``), with :attr:`stats` riding along.
    """

    def __init__(self, answers: List[QueryAnswer], stats: BatchStats) -> None:
        self.answers = answers
        self.stats = stats

    def __len__(self) -> int:
        return len(self.answers)

    def __getitem__(self, index):
        return self.answers[index]

    def __iter__(self):
        return iter(self.answers)


class _BlockStore:
    """Batch-scoped leaf-block memo: each block is loaded at most once.

    Sits in front of the ``SeriesFile`` (and its optional LeafCache):
    the first query needing a block loads it; every later use within
    the batch is served from the memo, whatever the cache budget is.
    """

    def __init__(self, lrd: SeriesFile, table: LeafTable) -> None:
        self._lrd = lrd
        #: First file position of each leaf, for bisecting a read onto
        #: the leaf blocks that serve it.
        self.leaf_starts = table.positions.tolist()
        self._blocks: dict = {}
        self.loads = 0
        self.shared_hits = 0
        #: Per-query block touches served (every :meth:`leaf_block`
        #: call, plus the extra users of one multi-query kernel pass
        #: via :meth:`count_shared_uses`) — the numerator of the batch
        #: leaf-share factor.
        self.uses = 0

    def leaf_block(self, leaf: Node) -> np.ndarray:
        key = (leaf.file_position, leaf.size)
        self.uses += 1
        block = self._blocks.get(key)
        if block is None:
            block = self._lrd.read_range(leaf.file_position, leaf.size)
            self._blocks[key] = block
            self.loads += 1
        else:
            self.shared_hits += 1
        return block

    def count_shared_uses(self, extra: int) -> None:
        """Credit ``extra`` additional queries served by the last read."""
        self.uses += extra

    def resident(self, leaf: Node) -> bool:
        return (leaf.file_position, leaf.size) in self._blocks


class _BatchSearchState(_SearchState):
    """Per-query search state whose leaf reads flow through the store."""

    def __init__(self, store: _BlockStore, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._store = store
        # The per-query cache delta is meaningless when Q interleaved
        # queries share one cache; per-query sharing is counted on the
        # store instead and written into the profile at the end.
        self._cache_before = None
        self.store_hits = 0
        self.store_misses = 0

    def read_rows(
        self, position: int, count: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The serial read, cut from the store's memoized leaf blocks."""
        starts, leaves = self._store.leaf_starts, self.table.leaves
        end = position + count
        index = bisect_right(starts, position) - 1
        pieces = []
        while index < len(starts) and starts[index] < end:
            block = self._leaf_block(leaves[index])
            pieces.append(block[max(position - starts[index], 0) : end - starts[index]])
            index += 1
        if out is None and len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces, out=out)

    def _leaf_block(self, leaf: Node) -> np.ndarray:
        before = self._store.loads
        block = self._store.leaf_block(leaf)
        if self._store.loads == before:
            self.store_hits += 1
        else:
            self.store_misses += 1
        return block


@dataclass
class _RefineSpec:
    """One query's refinement work, in serial (file-position) order."""

    #: "leaves" — scan whole leaves with a live-BSF re-check (the
    #: skip-sequential and NoSAX paths); "series" — refine per-leaf
    #: candidate rows surviving LB_SAX (the full four-phase path);
    #: "none" — phase 1 already answered the query.
    kind: str = "none"
    #: LCList (table indices, file order) for "leaves".
    leaves: Optional[np.ndarray] = None
    #: SCList (file positions, ε-scaled squared LB_SAX) for "series".
    series: Optional[tuple] = None


def _plan_refinement(
    state: _BatchSearchState,
    lclist: np.ndarray,
    candidates: Optional[tuple],
    config: HerculesConfig,
    num_series: int,
) -> _RefineSpec:
    """The serial pipeline's access-path decision, emitted as a plan.

    Mirrors :func:`repro.core.query.exact_knn` exactly: the same path is
    chosen from the same pruning ratios, and phase 3 is the serial
    routine (``candidates`` carries its result where ``prefilter``
    already ran it).
    """
    spec = _RefineSpec()
    state.profile.candidate_leaves = len(lclist)
    if not len(lclist):
        state.profile.path = "approx-only"
        return spec
    if (
        config.adaptive_thresholds
        and state.profile.eapca_pruning < config.eapca_th
    ):
        state.profile.path = "eapca-skipseq"
        spec.kind = "leaves"
        spec.leaves = lclist
        return spec
    if not config.use_sax:
        state.profile.path = "nosax-leaves"
        spec.kind = "leaves"
        spec.leaves = lclist
        return spec

    if candidates is None:
        candidates = _find_candidate_series(state, lclist)
    total = len(candidates[0])
    sax_pr = 1.0 - (total / num_series if num_series else 0.0)
    state.profile.candidate_series = total
    state.profile.sax_pruning = sax_pr
    if config.adaptive_thresholds and sax_pr < config.sax_th:
        state.profile.path = "sax-skipseq"
        spec.kind = "leaves"
        spec.leaves = lclist
        return spec
    state.profile.path = "full-four-phase"
    spec.kind = "series"
    spec.series = candidates
    return spec


def _leaf_runs(table: LeafTable, positions: np.ndarray):
    """``(leaf index, start, end)`` of each same-leaf run of a
    file-ordered position list."""
    if not len(positions):
        return []
    leaf_of = table.leaf_of(positions)
    starts, ends = adjacent_runs(leaf_of, step=0)
    return zip(leaf_of[starts].tolist(), starts.tolist(), ends.tolist())


def _refine_shared(
    states: List[_BatchSearchState],
    specs: List[_RefineSpec],
    store: _BlockStore,
    stats: BatchStats,
) -> None:
    """Exact-search refinement over the leaf→{query set} plan.

    Leaves are visited once each, in file-position order; all queries
    needing a leaf are refined from one block with a single multi-query
    kernel call under per-query live BSF² cutoffs.  Sound for exact
    search: a per-candidate live re-check can only *skip more* than the
    serial per-chunk re-check, and any skipped candidate has
    LB ≥ BSF ≥ its final value, so it could never have entered a result
    set.
    """
    table = states[0].table
    tasks: dict = {}
    for qi, spec in enumerate(specs):
        if spec.kind == "leaves":
            for index in spec.leaves.tolist():
                tasks.setdefault(index, []).append((qi, None, None))
        elif spec.kind == "series":
            positions, bounds_sq = spec.series
            for index, start, end in _leaf_runs(table, positions):
                rows = positions[start:end] - table.positions[index]
                tasks.setdefault(index, []).append(
                    (qi, rows, bounds_sq[start:end])
                )

    # Table indices ascend with file position.
    for index in sorted(tasks):
        leaf = table.leaves[index]
        active = []
        for qi, rows, bounds_sq in tasks[index]:
            state = states[qi]
            state.results.refresh()
            bsf_squared = state.results.bsf_squared
            if rows is None:
                # Whole-leaf user: the serial skip-sequential re-check.
                if state.bounds[index] >= bsf_squared:
                    continue
                active.append((qi, None))
            else:
                alive = bounds_sq < bsf_squared
                if not alive.any():
                    continue
                active.append((qi, rows[alive]))
        if not active:
            continue

        was_resident = store.resident(leaf)
        block = store.leaf_block(leaf)
        store.count_shared_uses(len(active) - 1)
        length = block.shape[1]
        queries = np.stack([states[qi].query for qi, _rows in active])
        cutoffs = np.array(
            [states[qi].results.bsf_squared for qi, _rows in active],
            dtype=DISTANCE_DTYPE,
        )
        row_masks = np.zeros((len(active), leaf.size), dtype=bool)
        for i, (_qi, rows) in enumerate(active):
            if rows is None:
                row_masks[i] = True
            else:
                row_masks[i, rows] = True
        distances, points = early_abandon_squared_multi(
            queries, block, cutoffs, row_masks=row_masks
        )

        for i, (qi, rows) in enumerate(active):
            state = states[qi]
            if rows is None:
                row_count = leaf.size
                positions = leaf.file_position + np.arange(
                    leaf.size, dtype=np.int64
                )
                row_distances = distances[i]
            else:
                row_count = rows.shape[0]
                positions = leaf.file_position + rows
                row_distances = distances[i, rows]
            state.results.update_batch_squared(row_distances, positions)
            state.profile.series_accessed += row_count
            state.profile.distance_computations += row_count
            state.profile.points_compared += int(points[i])
            state.profile.points_total += row_count * length
            if i == 0 and not was_resident:
                state.store_misses += 1
            else:
                state.store_hits += 1
            stats.kernel_rows += row_count


def _refine_serial_cadence(
    state: _BatchSearchState, spec: _RefineSpec, stats: BatchStats
) -> None:
    """ε-approximate refinement: the serial pipeline's own routine, with
    its reads served from the shared store.

    With ε > 0 a pruning decision depends on the BSF at the moment of
    the check, so the batch must re-check at exactly the single-query
    cadence to keep answers bit-identical — which calling the serial
    routine gives by construction.  Leaf sharing survives through the
    store: the first query touching a leaf loads it, the rest hit.
    """
    refined_before = state.profile.distance_computations
    if spec.kind == "leaves":
        _refine_leaves(state, spec.leaves)
    elif spec.kind == "series":
        _refine_series(state, spec.series)
    stats.kernel_rows += state.profile.distance_computations - refined_before


def exact_knn_batch(
    queries: np.ndarray,
    k: int,
    config: HerculesConfig,
    table: LeafTable,
    lrd: SeriesFile,
    sax: SignatureArray,
    num_series: int,
    results: Optional[List[ResultSet]] = None,
) -> BatchAnswer:
    """Plan and execute a whole query set together.

    Each query's answer is value-identical to what
    :func:`repro.core.query.exact_knn` returns for it alone.  The
    engine runs single-threaded — the parallelism lives in the batch
    dimension of the kernels, not in worker threads — so answers are
    deterministic for a fixed index regardless of
    ``config.num_query_threads``.

    ``results`` optionally supplies one result set per query (shard
    coordinators pass linked sets broadcasting the per-query global
    BSF² vector).  Per-query wall-time attribution inside the shared
    phases is amortized: the screen and shared-refinement walls are
    split evenly across the queries that took part.
    """
    arr = np.asarray(queries, dtype=DISTANCE_DTYPE)
    if arr.ndim != 2:
        raise ValueError(
            f"expected a (Q, series_length) query matrix, got shape {arr.shape}"
        )
    num_queries = arr.shape[0]
    stats = BatchStats(num_queries=num_queries)
    if num_queries == 0:
        return BatchAnswer([], stats)
    if results is not None and len(results) != num_queries:
        raise ValueError(
            f"got {len(results)} result sets for {num_queries} queries"
        )

    started = time.perf_counter()
    store = _BlockStore(lrd, table)
    states: List[_BatchSearchState] = []
    lclists: list = []
    num_leaves = len(table.leaves)

    with obs.span("query.batch", queries=num_queries, k=k) as batch_span:
        # -- one bound pass, then per-query phases 1 + 2; reads memoized -
        with obs.span("query.batch.descend"):
            sketch = BatchSketch(arr)
            bounds = table.leaf_bounds_squared(sketch.cumsum, sketch.cumsq)
            # Amortized into every query's phase-1 time.
            bounds_share = (time.perf_counter() - started) / num_queries
            for qi in range(num_queries):
                phase_started = time.perf_counter()
                state = _BatchSearchState(
                    store,
                    arr[qi],
                    k,
                    config,
                    table,
                    lrd,
                    sax,
                    num_series,
                    results=results[qi] if results is not None else None,
                    bounds=bounds[qi],
                )
                _approx_knn(state)
                state.profile.time_approx = (
                    time.perf_counter() - phase_started + bounds_share
                )
                phase_started = time.perf_counter()
                lclist = _find_candidate_leaves(state)
                state.profile.time_candidates = (
                    time.perf_counter() - phase_started
                )
                state.profile.eapca_pruning = 1.0 - (
                    len(lclist) / num_leaves if num_leaves else 0.0
                )
                states.append(state)
                lclists.append(lclist)

        # -- prefilter: every query's LB_SAX pass, ahead of the decision --
        candidates: list = [None] * num_queries
        if config.prefilter:
            screen_started = time.perf_counter()
            with obs.span("query.batch.screen") as sp:
                candidates = sax.screen_batch(
                    np.stack([s.query_paa for s in states]),
                    np.array(
                        [s.results.bsf_squared for s in states],
                        dtype=DISTANCE_DTYPE,
                    ),
                    arr.shape[1],
                    prune_factor=states[0].prune_factor,
                    rows=[table.rows(lclist) for lclist in lclists],
                )
                for qi, state in enumerate(states):
                    lclists[qi] = _trim_to_candidates(
                        state, lclists[qi], candidates[qi][0]
                    )
                sp.set_attrs(
                    screened=sum(
                        s.profile.prefilter_screened for s in states
                    ),
                    survivors=sum(
                        s.profile.prefilter_survivors for s in states
                    ),
                )
            stats.screen_seconds = time.perf_counter() - screen_started

        # -- access-path planning (phase 3 where it has not run yet) -----
        refine_started = time.perf_counter()
        specs = [
            _plan_refinement(
                states[qi], lclists[qi], candidates[qi], config, num_series
            )
            for qi in range(num_queries)
        ]

        # -- shared-leaf refinement --------------------------------------
        loads_before = store.loads
        with obs.span("query.batch.refine") as sp:
            if states[0].prune_factor == 1.0:
                _refine_shared(states, specs, store, stats)
            else:
                for qi in range(num_queries):
                    _refine_serial_cadence(states[qi], specs[qi], stats)
            sp.set_attrs(
                unique_leaf_reads=store.loads - loads_before,
                leaf_uses=store.uses,
            )
        refine_seconds = time.perf_counter() - refine_started

        # -- finalize ----------------------------------------------------
        stats.unique_leaf_reads = store.loads
        stats.leaf_uses = store.uses
        stats.total_seconds = time.perf_counter() - started
        answers: List[QueryAnswer] = []
        refine_share = refine_seconds / num_queries
        screen_share = stats.screen_seconds / num_queries
        for state in states:
            distances, positions = state.results.items()
            state.profile.time_refine = refine_share
            state.profile.time_total = (
                state.profile.time_approx
                + state.profile.time_candidates
                + screen_share
                + refine_share
            )
            state.profile.cache_hits = state.store_hits
            state.profile.cache_misses = state.store_misses
            obs.observe_search(state.profile.time_total)
            answers.append(
                QueryAnswer(distances, positions, state.profile)
            )
        batch_span.set_attrs(
            unique_leaf_reads=stats.unique_leaf_reads,
            leaf_uses=stats.leaf_uses,
            leaf_share_factor=stats.leaf_share_factor,
            kernel_rows=stats.kernel_rows,
        )
    return BatchAnswer(answers, stats)
