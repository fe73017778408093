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
* **Shared-chunk refinement.**  The union of the LCLists, in file
  order, is cut into the serial pipeline's refinement chunks (up to a
  thousand rows of whole leaves each).  Per chunk every query re-checks
  its own extents against its live BSF², the leaves still needed are
  packed into one reused buffer — each read from ``SeriesFile``/
  ``LeafCache`` at most once per batch, file-adjacent ones in one read
  — and a single screening (Q_chunk × rows) matrix kernel
  (:func:`~repro.distance.euclidean.early_abandon_squared_multi`)
  evaluates them under per-query cutoffs and row masks; each query
  merges its rows of the shared distance block once.
* **Batch-scoped read memoization.**  The approximate-descent scans go
  through one :class:`_BlockStore`, and refinement takes the blocks they
  left there instead of reading them again, so a leaf touched by many
  queries is loaded once per batch regardless of cache configuration.

**Parity.**  Queries are independent search problems: each keeps its own
:class:`~repro.core.results.ResultSet`, BSF², and profile, and the
engine only re-orders *when* each query's work runs, never the per-query
order itself (chunks are processed in file-position order, exactly as
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
from repro.core.leaf_table import LeafTable, extent_rows
from repro.core.node import Node
from repro.core.prefilter import SignatureArray
from repro.core.query import (
    _CHUNK_ROWS,
    QueryAnswer,
    _approx_knn,
    _chunk_cuts,
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
from repro.types import DISTANCE_DTYPE, SERIES_DTYPE

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
        #: Memoized blocks by their leaf's first file position.
        self._blocks: dict = {}
        #: Leaf blocks physically loaded, and per-query leaf-block
        #: touches served (one per query per leaf it refines from) — the
        #: two sides of the batch leaf-share factor.
        self.loads = 0
        self.uses = 0

    def leaf_block(self, leaf: Node) -> np.ndarray:
        self.uses += 1
        block = self._blocks.get(leaf.file_position)
        if block is None:
            block = self._lrd.read_range(leaf.file_position, leaf.size)
            self._blocks[leaf.file_position] = block
            self.loads += 1
        return block

    def fill(
        self, buffer: np.ndarray, offsets: np.ndarray, starts: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Put the leaves ``[start, start + size)`` (file order) at the
        given rows of ``buffer``, packed in that order; returns which of
        them had to be loaded.

        A memoized block is copied in; the others are read straight into
        place, one ``read_range`` call per stretch of them that no
        memoized block interrupts (such a stretch is contiguous in
        ``buffer``).  They are not memoized: the chunk walk needs every
        leaf once.
        """
        held = np.array([start in self._blocks for start in starts.tolist()])
        for i in held.nonzero()[0].tolist():
            buffer[offsets[i] : offsets[i] + sizes[i]] = self._blocks[int(starts[i])]
        loaded = ~held
        load = loaded.nonzero()[0]
        self.loads += len(load)
        stretch_lo, stretch_hi = adjacent_runs(load)
        for lo, hi in zip(load[stretch_lo].tolist(), (load[stretch_hi - 1] + 1).tolist()):
            row, end = offsets[lo], offsets[hi - 1] + sizes[hi - 1]
            self._lrd.read_range(starts[lo:hi], sizes[lo:hi], out=buffer[row:end])
        return loaded


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

    def read_rows(self, position, count, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The serial read, cut from the store's memoized leaf blocks: a
        leaf block is touched once per run of file-adjacent extents."""
        starts, leaves = self._store.leaf_starts, self.table.leaves
        position, count = np.atleast_1d(position), np.atleast_1d(count)
        run_lo, run_hi = adjacent_runs(position, count[:-1])
        pieces = []
        for first, end in zip(position[run_lo].tolist(), (position + count)[run_hi - 1].tolist()):
            index = bisect_right(starts, first) - 1
            while index < len(starts) and starts[index] < end:
                block = self._leaf_block(leaves[index])
                pieces.append(block[max(first - starts[index], 0) : end - starts[index]])
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
    #: LCList (table indices, file order): the leaves refined from.
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
    spec.leaves = lclist
    spec.series = candidates
    return spec


def _refine_shared(
    states: List[_BatchSearchState],
    specs: List[_RefineSpec],
    store: _BlockStore,
    stats: BatchStats,
) -> None:
    """Exact-search refinement: the serial chunk walk, for Q queries.

    The union of the batch's candidate leaves is walked in file order in
    the chunks :func:`repro.core.query._refine_runs` would cut from it.
    Per chunk every query re-checks the bounds of its own extents there
    (LCList leaves, or SCList rows) against its live BSF²; the leaves
    some query still needs are packed into one reused buffer, each
    loaded at most once per batch; one multi-query kernel call under
    per-query cutoffs and row masks evaluates them, and each query
    merges its rows once.

    Sound as the serial walk is: an extent is dropped only when its
    bound ≥ the live BSF² ≥ the final one, the kernel abandons only
    rows above the cutoff, and every query meets its candidates in file
    order — so distances and positions equal the single-query answer.
    """
    table = states[0].table
    wanted = np.zeros(len(table.leaves), dtype=bool)
    for spec in specs:
        if spec.kind != "none":
            wanted[spec.leaves] = True
    leaves = wanted.nonzero()[0]
    starts, sizes = table.positions[leaves], table.sizes[leaves]
    cuts = _chunk_cuts(sizes)
    number = np.cumsum(wanted) - 1  # table index -> index into ``leaves``
    # Per user: its extents' bounds and leaves (as indices into ``leaves``),
    # SCList positions (None: whole leaves), and the slice of its extents
    # that falls into chunk i, edges[i]:edges[i + 1].
    users = []
    for state, spec in zip(states, specs):
        if spec.kind == "leaves":
            bounds_sq, leaf_of, positions = state.bounds[spec.leaves], number[spec.leaves], None
        elif spec.kind == "series":
            positions, bounds_sq = spec.series
            leaf_of = number[table.leaf_of(positions)]
        else:
            continue
        edges = np.searchsorted(leaf_of, cuts).tolist()
        users.append((state, bounds_sq, leaf_of, positions, edges))
    if not users:
        return
    queries = np.stack([user[0].query for user in users])
    length = queries.shape[1]
    buffer = np.empty((_CHUNK_ROWS, length), dtype=SERIES_DTYPE)

    for chunk, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        # -- who still needs which of the chunk's leaves ----------------
        used = np.zeros((len(users), hi - lo), dtype=bool)
        active, cutoffs, alive = [], [], []
        for ui, (state, bounds_sq, leaf_of, _positions, edges) in enumerate(users):
            first, last = edges[chunk], edges[chunk + 1]
            if first == last:
                continue
            state.results.refresh()
            bsf_squared = state.results.bsf_squared
            keep = (bounds_sq[first:last] < bsf_squared).nonzero()[0] + first
            if len(keep):
                used[ui, leaf_of[keep] - lo] = True
                active.append(ui)
                cutoffs.append(bsf_squared)
                alive.append(keep)
        if not active:
            continue
        needed = used.any(axis=0)
        used = used[active][:, needed]

        # -- one buffer, one kernel call --------------------------------
        chunk_starts = starts[lo:hi]
        held_sizes = np.where(needed, sizes[lo:hi], 0)
        filled = int(held_sizes.sum())
        if filled > buffer.shape[0]:  # one leaf above the cap
            buffer = np.empty((filled, length), dtype=SERIES_DTYPE)
        # Buffer row of each leaf's first series, and the file position
        # of every buffer row.
        offsets = np.cumsum(held_sizes) - held_sizes
        loaded = store.fill(buffer, offsets[needed], chunk_starts[needed], held_sizes[needed])
        row_positions = extent_rows(chunk_starts, held_sizes)
        row_masks = np.zeros((len(active), filled), dtype=bool)
        rows_of = []
        for i, (ui, keep) in enumerate(zip(active, alive)):
            _state, _bounds_sq, leaf_of, positions, _edges = users[ui]
            local = leaf_of[keep] - lo
            if positions is None:
                rows = extent_rows(offsets[local], held_sizes[local])
            else:
                rows = positions[keep] - chunk_starts[local] + offsets[local]
            row_masks[i, rows] = True
            rows_of.append(rows)
        distances, points = early_abandon_squared_multi(
            queries[active], buffer[:filled], np.array(cutoffs), row_masks=row_masks
        )

        # -- per-query merge; accounting per leaf block -----------------
        # A leaf's load is the miss of the first query that uses it.
        misses = np.bincount(used.argmax(axis=0)[loaded], minlength=len(active))
        leaf_uses = used.sum(axis=1)
        store.uses += int(leaf_uses.sum())
        for i, (ui, rows) in enumerate(zip(active, rows_of)):
            state = users[ui][0]
            state.results.update_batch_squared(distances[i, rows], row_positions[rows])
            state.profile.series_accessed += len(rows)
            state.profile.distance_computations += len(rows)
            state.profile.points_compared += int(points[i])
            state.profile.points_total += len(rows) * length
            state.store_misses += int(misses[i])
            state.store_hits += int(leaf_uses[i] - misses[i])
            stats.kernel_rows += len(rows)


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
