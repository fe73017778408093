"""The phases of exact k-NN (Section 3.4, Algorithms 10-14, Figure 5).

This module holds the routines every search is made of.  The one
pipeline that strings them together for Q ≥ 1 queries is
:func:`repro.core.batch_query.exact_knn_batch`: ``knn`` is its Q = 1
call, and ``knn_approx`` the same call stopped after phase 1.  Every
mode starts from one front half, :func:`_search_states` (one table
bound pass and one PAA block per call, one :class:`_SearchState` per
query); :func:`progressive_knn`, which yields after every phase-1 visit,
starts from it too.  The four phases:

1. **Approx-kNN** (Algorithm 11) — a best-first visit of at most
   ``L_max`` leaves by LB_EAPCA, computing real distances in each, to
   seed ``BSF_k``.
2. **FindCandidateLeaves** (Algorithm 12) — without touching disk,
   collect the unvisited leaves that survive LB_EAPCA pruning into
   LCList, in LRDFile position order.
3. **FindCandidateSeries** (Algorithm 13) — one vectorised LB_SAX pass
   over the in-memory iSAX words of the candidate leaves' series,
   producing the candidate series list (SCList).
4. **ComputeResults** (Algorithm 14) — multi-threaded refinement: load
   surviving series from LRDFile and compute real distances.

Phases 1-2 never walk the tree: one array pass over the index's flat
synopsis table (:class:`~repro.core.leaf_table.LeafTable`) yields every
leaf's *effective* squared bound — the largest LB_EAPCA on its root
path, which is what a priority-queue descent enforces implicitly — so
best-first order is an ``argsort`` and LCList an index array.

Adaptive access-path selection: when EAPCA pruning is weak
(``eapca_pr < EAPCA_TH``) phases 3-4 are replaced by a single-thread
skip-sequential scan of LRDFile over LCList, and when SAX pruning is weak
(``sax_pr < SAX_TH``) phase 4 is.  A skip-sequential scan pays one random
seek per run of adjacent surviving *leaves* (contiguous in LRDFile)
instead of one per surviving *series*, which is exactly why it wins on
hard queries.
``config.prefilter`` moves the phase-3 pass in front of that decision,
so the skip-sequential paths too only visit leaves that kept a row.

Refinement is written once (:func:`_refine_runs`, for Q ≥ 1 queries):
both skip-sequential scans and phase 4 hand it file-ordered read
extents with their bounds, and it walks them in chunks of up to a
thousand rows — one re-check against the live BSF², one read per run of
adjacent extents straight into one reused buffer, one kernel call and
one result-set merge per chunk — because at a leaf's worth of rows per
call the kernel is NumPy dispatch, not arithmetic.  Phase 1 evaluates
its visits the same way, a group of leaves per read and kernel call
(:func:`_best_first`), but merges them one leaf at a time so its visits
and stop test stay the paper's.

Distance kernels operate on whole row matrices (the SIMD analog) and the
pipeline runs end-to-end in *squared* distance space (the UCR-suite
optimization): lower bounds are ε-scaled and squared once, every pruning
comparison is against ``BSF²`` (:attr:`ResultSet.bsf_squared`),
refinement runs the screening early-abandoning kernel (one float32 BLAS
pass as a gate, exact float64 only for the rows it lets through) with
the live ``BSF²`` cutoff, and the one square root per answer happens in
``ResultSet.items()``.  The per-query :class:`QueryProfile` records the
path taken, pruning ratios, distance-computation / point-comparison and
I/O counts, plus leaf-cache hits, so harnesses can report the paper's
"percentage of accessed data" metric exactly.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Optional

import numpy as np

from repro import obs
from repro.core.config import HerculesConfig
from repro.core.leaf_table import LeafTable, extent_rows
from repro.core.prefilter import SignatureArray
from repro.core.results import ResultSet
from repro.distance.euclidean import early_abandon_squared
from repro.storage.files import SeriesFile, adjacent_runs
from repro.storage.iostats import IOSnapshot
from repro.summarization.eapca import BatchSketch

# Not called here (the front half sketches whole blocks); the end-to-end
# benchmark's tracer still patches this name in this module, so it stays bound.
from repro.summarization.eapca import SeriesSketch  # noqa: F401
from repro.summarization.paa import paa
from repro.types import DISTANCE_DTYPE, SERIES_DTYPE, as_series


#: Disk parameters of the paper's testbed (Section 4.1): 10K RPM SAS
#: drives in RAID0 with 1290 MB/s sequential throughput.  Used to model
#: what the measured I/O pattern would cost on that hardware.
PAPER_SEEK_SECONDS = 0.005
PAPER_BANDWIDTH_BYTES = 1.29e9


@dataclass
class QueryProfile:
    """Per-query cost and path metrics."""

    path: str = ""
    #: Leaves visited by the approximate phase.
    approx_leaves: int = 0
    #: LCList size and the resulting EAPCA pruning ratio.
    candidate_leaves: int = 0
    eapca_pruning: float = 0.0
    #: SCList size and the resulting SAX pruning ratio (None if phase 3
    #: did not run).
    candidate_series: int = 0
    sax_pruning: Optional[float] = None
    #: Rows *refined*: series handed to a real-distance kernel.  A series
    #: counts even when the kernel's screen abandoned it.
    distance_computations: int = 0
    #: Individual point comparisons performed by the refinement kernels,
    #: and the number a no-abandon kernel would have performed.  The
    #: screening kernel touches every point once, so the two are equal on
    #: every Hercules path; a method whose kernel stops part-way through a
    #: series reports fewer compared.
    points_compared: int = 0
    points_total: int = 0
    #: The LB_SAX pass when ``prefilter`` runs it ahead of the access-
    #: path decision (zero/zero otherwise): series of the LCList leaves
    #: it examined, and how many of them it kept.
    prefilter_screened: int = 0
    prefilter_survivors: int = 0
    #: Rows *read*: raw series fetched from LRDFile (drives "% of data
    #: accessed").  Refinement reads exactly the rows it refines, so on
    #: every Hercules path this equals ``distance_computations``.
    series_accessed: int = 0
    #: Leaf-cache lookups served with / without a disk read (zero when no
    #: cache is attached to LRDFile).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Wall-clock seconds.
    time_total: float = 0.0
    #: Per-phase breakdown (approximate search; candidate-leaf collection;
    #: the third/fourth phases or the skip-sequential fallback).
    time_approx: float = 0.0
    time_candidates: float = 0.0
    time_refine: float = 0.0
    #: I/O performed by this query (filled by harnesses that wrap knn
    #: calls with IOStats snapshots; None when the data lives in memory).
    io: Optional["IOSnapshot"] = None

    def data_accessed_fraction(self, num_series: int) -> float:
        return self.series_accessed / num_series if num_series else 0.0

    @property
    def abandoned_fraction(self) -> float:
        """Fraction of point comparisons skipped by early abandoning
        (0 under the screening kernel, see ``points_compared``)."""
        if self.points_total <= 0:
            return 0.0
        return 1.0 - self.points_compared / self.points_total

    @property
    def prefilter_pruned_fraction(self) -> Optional[float]:
        """Fraction of the candidate leaves' series the pre-decision
        LB_SAX pass pruned; None if it did not run (or had no rows)."""
        if self.prefilter_screened <= 0:
            return None
        return 1.0 - self.prefilter_survivors / self.prefilter_screened

    @property
    def cache_hit_rate(self) -> Optional[float]:
        """Leaf-cache hit rate for this query; None without any lookups."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else None

    def modeled_io_seconds(
        self,
        seek_seconds: float = PAPER_SEEK_SECONDS,
        bandwidth_bytes: float = PAPER_BANDWIDTH_BYTES,
        byte_scale: float = 1.0,
    ) -> float:
        """What this query's I/O pattern would cost on the paper's disks.

        Laptop-scale files sit in the OS page cache, so measured
        wall-clock underestimates disk effects; this projects the counted
        random seeks and bytes onto the paper's hardware.  Returns 0 when
        no I/O was captured.

        ``byte_scale`` maps the volumes to the paper's regime: a
        scaled-down reproduction keeps the paper's *tree shape* (leaf
        counts, candidate counts, hence seek counts) but shrinks every
        leaf by roughly (paper leaf size / configured leaf size); passing
        that ratio scales the byte term back up so the seek-vs-bandwidth
        balance matches the hardware the constants describe.  The
        default 1.0 reports the raw pattern.
        """
        if self.io is None:
            return 0.0
        return (
            self.io.random_seeks * seek_seconds
            + self.io.bytes_read * byte_scale / bandwidth_bytes
        )


@dataclass
class QueryAnswer:
    """Exact k-NN answers plus the profile of how they were computed."""

    distances: np.ndarray
    positions: np.ndarray
    profile: QueryProfile = field(default_factory=QueryProfile)

    @property
    def k(self) -> int:
        return self.distances.shape[0]


class _SearchState:
    """Mutable state threaded through the phases of one query, made by
    :func:`_search_states`."""

    def __init__(
        self,
        query: np.ndarray,
        k: int,
        config: HerculesConfig,
        table: LeafTable,
        lrd: SeriesFile,
        sax: SignatureArray,
        num_series: int,
        bounds: np.ndarray,
        query_paa: np.ndarray,
        results: Optional[ResultSet] = None,
    ) -> None:
        self.query = as_series(query).astype(DISTANCE_DTYPE)
        self.k = k
        self.config = config
        self.table = table
        self.lrd = lrd
        self.sax = sax
        self.num_series = num_series
        # An externally supplied ResultSet lets a coordinator link this
        # search to others (shard scatter-gather shares the global BSF²
        # through a LinkedResultSet); the default is a private set.
        self.results = results if results is not None else ResultSet(k)
        self.profile = QueryProfile()
        # ε-approximate search tightens every pruning comparison by this
        # factor; 1.0 keeps the search exact (Algorithm 10 as published).
        # All comparisons against BSF happen in squared-distance space, so
        # squared bounds are scaled by the factor squared, exactly once.
        self.prune_factor = 1.0 + config.epsilon
        #: Effective LB_EAPCA² per leaf in file order, ε-scaled: every
        #: pruning site compares these straight against the live BSF².
        self.bounds = bounds * (self.prune_factor * self.prune_factor)
        #: Leaves (table indices) scanned by phase 1, in visit order.
        self.visited: list[int] = []
        self.query_paa = query_paa


def _search_states(queries, k, config, table, lrd, sax, num_series, results=None) -> list:
    """The front half every query mode starts from: one ``(Q × nodes)``
    LB_EAPCA² pass over the leaf table, one PAA block, and one
    :class:`_SearchState` per row of the ``(Q, n)`` block ``queries``
    (stored dtype).  ``results`` optionally supplies one result set per
    query."""
    sketch = BatchSketch(queries)
    bounds = table.leaf_bounds_squared(sketch.cumsum, sketch.cumsq)
    paas = paa(queries, sax.space.segments)
    return [
        _SearchState(
            queries[qi], k, config, table, lrd, sax, num_series, bounds[qi], paas[qi],
            results=None if results is None else results[qi],
        )
        for qi in range(queries.shape[0])
    ]


@contextmanager
def _charging_cache(lrd: SeriesFile, profile: QueryProfile):
    """Add the leaf-cache lookups made inside the block to ``profile``."""
    before = lrd.cache.snapshot() if lrd.cache is not None else None
    yield
    if before is not None:
        lookups = lrd.cache.snapshot() - before
        profile.cache_hits += lookups.hits
        profile.cache_misses += lookups.misses


def progressive_knn(
    query: np.ndarray,
    k: int,
    config: HerculesConfig,
    table: LeafTable,
    lrd: SeriesFile,
    sax: SignatureArray,
    num_series: int,
):
    """Progressive k-NN: yield improving answers until the exact result.

    The paper motivates indexes with interactive analysis (Section 4.1's
    asynchronous workloads; its refs [27, 28] study progressive answers
    explicitly).  This generator exposes that interaction model: from
    the pipeline's front half it runs phase 1 without a leaf budget,
    yielding a :class:`QueryAnswer` snapshot after every leaf visited
    (each strictly refining the last), then a final *exact* answer.  The
    consumer may stop iterating at any point and keep the best answer
    seen so far.

    Snapshots carry ``profile.path == "progressive-partial"``; the last
    yield carries ``"progressive-final"`` and the whole profile, phase-1
    time included (wall time since the call, as ``time_total`` is).  The
    call's ``query`` span (``mode="progressive"``) and its
    ``query.phase1.approx`` are recorded once the search ends or the
    consumer stops.
    """
    started = time.perf_counter()
    io_before = lrd.stats.snapshot()
    (state,) = _search_states(query[None], k, config, table, lrd, sax, num_series)
    profile = state.profile
    try:
        with _charging_cache(lrd, profile):
            for _ in _best_first(state, limit=None):
                snapshot = replace(
                    profile, path="progressive-partial", time_total=time.perf_counter() - started
                )
                yield QueryAnswer(*state.results.items(), snapshot)
    finally:
        ended = time.perf_counter()
        profile.time_approx = ended - started
        root = obs.record_span("query", started, ended, k=k, queries=1, mode="progressive")
        obs.record_span(
            "query.phase1.approx", started, ended, parent=root,
            leaves_visited=profile.approx_leaves,
        )
    # The search above ran to pruning-exhaustion, which already makes
    # the current answers exact: the remaining phases would find nothing
    # (every unvisited leaf is pruned).
    profile.path = "progressive-final"
    profile.time_total = time.perf_counter() - started
    profile.io = lrd.stats.snapshot() - io_before
    yield QueryAnswer(*state.results.items(), profile)


# ---------------------------------------------------------------------------
# Phase 1: Algorithm 11 (Approx-kNN)
# ---------------------------------------------------------------------------


def _best_first(state: _SearchState, limit: Optional[int]):
    """Scan leaves by ascending effective bound; yield the count so far.

    This is the priority-queue descent's visit order: a leaf is reached
    only after every node on its root path, i.e. at the largest bound on
    that path.  The stable sort sends ties to the leftmost leaf, as the
    queue's left-child-first tie-break did.  Stops at ``limit`` leaves
    or at the first bound the live BSF² prunes (a leaf tied with BSF² is
    still visited) — every later one is at least as far.

    Leaves are evaluated in groups but merged one at a time.  While BSF²
    is infinite a group is one leaf; after that it is every following
    leaf whose bound is ≤ the current BSF², up to :data:`_CHUNK_ROWS`
    rows of whole leaves: one read per run of file-adjacent leaves, one
    kernel call at that BSF².  Each leaf is then merged in visit order
    after the same stop test and refresh as a leaf-at-a-time walk, so
    the visits, their order and every merge are that walk's: BSF² only
    falls, so the group's cutoff is ≥ the BSF² of each merge, and a row
    the kernel abandoned exceeds both.  A group's tail that the stop
    test then cuts was read and evaluated for nothing; it counts as
    accessed and computed, not as visited.
    """
    results, profile = state.results, state.profile
    order = np.argsort(state.bounds, kind="stable")[:limit]
    bounds = state.bounds[order]
    starts, sizes = state.table.positions[order], state.table.sizes[order]
    leaves, bound_list = order.tolist(), bounds.tolist()
    start_list, size_list = starts.tolist(), sizes.tolist()
    # Rows of the visits before each one: where a group reaches the cap.
    sized = list(accumulate(size_list, initial=0))
    length = state.query.shape[0]
    visit = 0
    while visit < len(leaves):
        bsf_squared = results.bsf_squared
        if bound_list[visit] > bsf_squared:
            return
        end = visit + 1
        if bsf_squared < np.inf:
            reachable = int(np.searchsorted(bounds, bsf_squared, side="right"))
            end = max(min(_chunk_end(sized, visit), reachable), end)
        if end - visit == 1:  # every first visit: a plain read, no packing
            data = state.lrd.read_range(start_list[visit], size_list[visit])
            offsets = [0]
        else:
            # Packed in file order into a buffer of the group's size;
            # offsets[i] is the first row of the group's i-th visit.
            in_file = np.argsort(starts[visit:end])
            first, packed = starts[visit:end][in_file], sizes[visit:end][in_file]
            offsets = np.empty_like(in_file)
            offsets[in_file] = np.cumsum(packed) - packed
            offsets = offsets.tolist()
            buffer = np.empty((sized[end] - sized[visit], length), dtype=SERIES_DTYPE)
            data = state.lrd.read_range(first, packed, out=buffer)
        squared, compared = early_abandon_squared(state.query, data, bsf_squared)
        profile.series_accessed += data.shape[0]
        profile.distance_computations += data.shape[0]
        profile.points_compared += compared
        profile.points_total += data.shape[0] * length

        for offset, i in zip(offsets, range(visit, end)):
            if bound_list[i] > results.bsf_squared:
                return
            state.visited.append(leaves[i])
            results.refresh()
            position, size = start_list[i], size_list[i]
            # Abandoned rows report inf; the batch update's pre-filter drops
            # them without ever taking the result-set lock.
            results.update_batch_squared(
                squared[offset : offset + size], np.arange(position, position + size)
            )
            profile.approx_leaves = len(state.visited)
            yield profile.approx_leaves
        visit = end


def _approx_knn(state: _SearchState) -> None:
    for _ in _best_first(state, limit=state.config.l_max):
        pass


# ---------------------------------------------------------------------------
# Phase 2: Algorithm 12 (FindCandidateLeaves)
# ---------------------------------------------------------------------------


def _find_candidate_leaves(state: _SearchState) -> np.ndarray:
    """LCList: table indices of the candidate leaves, in file order.

    BSF² is fixed for this phase; no distances are computed here.  The
    EAPCA pruning ratio is recorded from this untrimmed list: the access-
    path decision keys off the *tree's* pruning quality, so where the
    LB_SAX pass runs never changes the path, and running it early can
    only subtract work from that path.
    """
    mask = state.bounds < state.results.bsf_squared
    mask[state.visited] = False
    lclist = np.flatnonzero(mask)
    num_leaves = len(state.table.leaves)
    state.profile.eapca_pruning = 1.0 - (len(lclist) / num_leaves if num_leaves else 0.0)
    return lclist


# ---------------------------------------------------------------------------
# Phase 3: Algorithm 13 (FindCandidateSeries)
# ---------------------------------------------------------------------------


def _find_candidate_series(
    state: _SearchState, lclist: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SCList: (positions, ε-scaled squared LB_SAX) in file order.

    One vectorised pass over the series of the LCList leaves against
    BSF² by value (Algorithm 13 without the CSWorkers: the kernel is a
    handful of NumPy gathers, which threads under the GIL only slow
    down).  The bounds come out ε-scaled and squared, so phase 4's
    re-checks compare them straight against the live BSF².
    """
    return state.sax.screen(
        state.query_paa,
        state.results.bsf_squared,
        state.query.shape[0],
        prune_factor=state.prune_factor,
        rows=state.table.rows(lclist),
    )


def _trim_to_candidates(
    state: _SearchState, lclist: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """LCList without the leaves that kept no candidate series.

    Used where the pass runs ahead of the access-path decision; records
    what it examined and kept in the profile's ``prefilter_*`` counters.
    """
    state.profile.prefilter_screened = int(state.table.sizes[lclist].sum())
    state.profile.prefilter_survivors = len(positions)
    # Positions come in file order, so their leaves are sorted: one per run.
    leaves = state.table.leaf_of(positions)
    return leaves[adjacent_runs(leaves, step=0)[0]]


# ---------------------------------------------------------------------------
# The access-path decision, and refinement: the skip-sequential scans and
# phase 4 (Algorithm 14: ComputeResults / CRWorker) are one routine, for
# one query or a batch; phase 1 shares its reads
# ---------------------------------------------------------------------------

#: The refining paths whose walk may fan out over CRWorker threads (the
#: skip-sequential scans are single-threaded).
_THREADED_PATHS = frozenset({"nosax-leaves", "full-four-phase"})


def _choose_path(
    state: _SearchState, lclist: np.ndarray, candidates: Optional[tuple] = None
) -> Optional[tuple]:
    """Adaptive access-path selection: record the path in the profile
    and return its refinement extents, ``(starts, sizes, bounds_sq)`` in
    file order — LCList's leaves, or SCList's single rows — or None when
    phase 1 already answered the query.

    Weak EAPCA pruning, or the NoSAX ablation, refines LCList; otherwise
    phase 3 runs (``candidates`` carries SCList where ``prefilter``
    already computed it) and weak SAX pruning refines LCList, strong SAX
    pruning SCList.
    """
    config, profile, table = state.config, state.profile, state.table
    profile.candidate_leaves = len(lclist)
    if not len(lclist):
        profile.path = "approx-only"
        return None
    leaves = (table.positions[lclist], table.sizes[lclist], state.bounds[lclist])
    if config.adaptive_thresholds and profile.eapca_pruning < config.eapca_th:
        profile.path = "eapca-skipseq"
        return leaves
    if not config.use_sax:
        profile.path = "nosax-leaves"
        return leaves
    with obs.span("query.phase3.filter") as sp:
        if candidates is None:
            candidates = _find_candidate_series(state, lclist)
        positions, bounds_sq = candidates
        sp.set("candidate_series", len(positions))
    num_series = state.num_series
    profile.candidate_series = len(positions)
    profile.sax_pruning = 1.0 - (len(positions) / num_series if num_series else 0.0)
    if config.adaptive_thresholds and profile.sax_pruning < config.sax_th:
        profile.path = "sax-skipseq"
        return leaves
    profile.path = "full-four-phase"
    return positions, np.ones_like(positions), bounds_sq


#: Candidate rows per refinement chunk, and the rows of the one buffer a
#: refinement pass reads its chunks into.  Per chunk the kernel keeps only
#: a few values per row, so the buffer is what the cap costs in memory:
#: 1 MB at length 256.  The sweep behind the value is in docs/tuning.md.
_CHUNK_ROWS = 1024


def _chunk_end(sized: list, first: int) -> int:
    """Where a chunk starting at extent ``first`` ends: as many whole
    extents as hold at most :data:`_CHUNK_ROWS` rows — or that extent
    alone if it holds more.  ``sized[i]`` is the rows before extent
    ``i``."""
    return max(bisect_right(sized, sized[first] + _CHUNK_ROWS) - 1, first + 1)


def _chunk_cuts(sizes: np.ndarray) -> list:
    """Where a file-ordered extent list is cut into refinement chunks:
    chunk ``i`` is the extents ``cuts[i]:cuts[i + 1]`` (:func:`_chunk_end`)."""
    sized = list(accumulate(sizes.tolist(), initial=0))
    cuts = [0]
    while cuts[-1] < len(sizes):
        cuts.append(_chunk_end(sized, cuts[-1]))
    return cuts


def _merge_sorted(starts: np.ndarray, sizes: np.ndarray) -> tuple:
    """Start-sorted extents of several queries as one file-ordered list:
    extents that overlap (the same leaf twice, a leaf and an SCList row
    of it) merge into one, adjacent ones stay apart as a single query's
    always do.  One running-max pass over the ends, no sort."""
    if not len(starts):
        return starts, sizes
    reach = np.maximum.accumulate(starts + sizes)
    first = np.flatnonzero(np.concatenate(([True], starts[1:] >= reach[:-1])))
    last = np.append(first[1:], len(starts)) - 1
    return starts[first], reach[last] - starts[first]


def _refine_runs(
    states: list,
    extents: list,
    workers: Optional[int] = None,
) -> tuple:
    """Refine Q ≥ 1 queries' file-ordered candidates with real distances,
    chunk by chunk.

    ``extents[i]`` holds query ``i``'s candidates: every series of the
    extents ``[start, start + size)`` — whole leaves, or the single rows
    of SCList — in file order, with one ε-scaled squared lower bound per
    extent.  The walk works on one *entry table* built once: every
    query's extents with a query-id column and their bounds, stable-
    sorted by start — the walk's only sort (for one query, its own
    arrays, unsorted).  The chunks are cut over the union of all
    queries' extents (:func:`_merge_sorted`; for one query, its own
    list): whole extents, at most :data:`_CHUNK_ROWS` rows each unless
    one extent alone holds more, so each chunk is one slice of the
    table.  Per chunk, in a fixed number of array operations whatever Q
    is:

    * each query with entries there refreshes its live BSF², and every
      entry is re-checked against its own query's in one comparison (an
      extent a query prunes is not read for it);
    * the surviving entries, merged, are one ``read_range`` call (one
      positional read per run of file-adjacent ones) into one
      ``(_CHUNK_ROWS, length)`` buffer that lives as long as the pass —
      or a plain read when one extent is left;
    * one screening kernel call evaluates them under each query's
      cutoff; when several queries take part, a ``(queries, rows)``
      mask, filled by one scatter over the survivors' buffer rows, keeps
      each query to its own rows;
    * each query merges its rows into its result set once — in a shared
      chunk only if it got a finite distance there — and the per-query
      row counts come from one ``bincount``.

    A candidate dropped by a re-check has bound ≥ that query's BSF² ≥
    its final BSF², and one abandoned by the kernel has distance > the
    BSF at that time, so neither could have entered the top-k: at ε = 0
    every query's answer equals a full evaluation, and at ε > 0 the
    bound's ``(1 + ε)²`` factor gives the ε guarantee whatever the
    re-check cadence.  The ε factor is in the bounds only — it tightens
    lower-bound pruning, not real-distance refinement.

    ``workers`` fans the chunk list out over that many CRWorker threads,
    a contiguous slice each; ``None`` refines on the calling thread.
    Returns the entries the walk refined — not pruned by a re-check — as
    ``(query_ids, starts, sizes)`` arrays, in file order.
    """
    lrd, length = states[0].lrd, states[0].query.shape[0]
    num_queries = len(states)
    if num_queries == 1:  # the table and the union are the query's own list
        starts, sizes, bounds = extents[0]
        query_ids = np.zeros(len(starts), dtype=np.intp)
        cuts = _chunk_cuts(sizes)
    else:
        block = np.stack([state.query for state in states])
        query_ids = np.repeat(np.arange(num_queries), [len(ext[0]) for ext in extents])
        starts, sizes, bounds = (np.concatenate(column) for column in zip(*extents))
        order = np.argsort(starts, kind="stable")
        query_ids, starts, sizes, bounds = (
            query_ids[order], starts[order], sizes[order], bounds[order]
        )
        union_starts, union_sizes = _merge_sorted(starts, sizes)
        firsts = union_starts[_chunk_cuts(union_sizes)[:-1]]
        cuts = np.searchsorted(starts, firsts).tolist() + [len(starts)]
    # Chunk c is the table's entries cuts[c]:cuts[c + 1]; each worker
    # marks the entries it refined in its own chunks' slices.
    refined_entries = np.zeros(len(starts), dtype=bool)
    profile_lock = threading.Lock()

    def refine(part: range) -> None:
        refined = np.zeros(num_queries)
        points = np.zeros(num_queries, dtype=np.int64)
        bsf = np.full(num_queries, np.inf)
        buffer = None
        for chunk in part:
            lo, hi = cuts[chunk], cuts[chunk + 1]
            ids = query_ids[lo:hi]
            present = range(1) if num_queries == 1 else np.bincount(ids).nonzero()[0].tolist()
            for i in present:
                states[i].results.refresh()
                bsf[i] = states[i].results.bsf_squared
            alive = bounds[lo:hi] < (bsf[0] if num_queries == 1 else bsf[ids])
            kept = np.count_nonzero(alive)
            if not kept:
                continue
            refined_entries[lo:hi] = alive
            kept_ids, kept_starts, kept_sizes = ids, starts[lo:hi], sizes[lo:hi]
            if kept < hi - lo:
                kept_ids, kept_starts, kept_sizes = (
                    ids[alive], kept_starts[alive], kept_sizes[alive]
                )
            active = range(1)
            if num_queries > 1:
                # Rows each query refines here (float: bincount's weights).
                rows_of = np.bincount(kept_ids, weights=kept_sizes, minlength=num_queries)
                active = rows_of.nonzero()[0]
            if len(active) == 1:  # one query's extents never overlap
                read_starts, read_sizes = kept_starts, kept_sizes
            else:
                read_starts, read_sizes = _merge_sorted(kept_starts, kept_sizes)
            if len(read_starts) == 1:
                # One extent (a leaf above the cap, a lone candidate): a
                # plain read, and none of the run bookkeeping.
                position, size = int(read_starts[0]), int(read_sizes[0])
                data = lrd.read_range(position, size)
                positions = np.arange(position, position + size)
            else:
                positions = extent_rows(read_starts, read_sizes)
                if buffer is None or len(positions) > len(buffer):
                    rows = max(len(positions), _CHUNK_ROWS)
                    buffer = np.empty((rows, length), dtype=SERIES_DTYPE)
                data = lrd.read_range(read_starts, read_sizes, out=buffer[: len(positions)])

            # Abandoned rows report inf; the batch update's pre-filter drops
            # them without ever taking the result-set lock.
            if len(active) == 1:
                i = active[0]
                squared, compared = early_abandon_squared(states[i].query, data, bsf[i])
                states[i].results.update_batch_squared(squared, positions)
                refined[i] += len(positions)
                points[i] += compared
                continue
            # The buffer row of each read extent's first series, then of
            # each survivor's, and its rows in its query's mask row.
            offsets = np.cumsum(read_sizes) - read_sizes
            at = np.searchsorted(read_starts, kept_starts, side="right") - 1
            rows = extent_rows(offsets[at] + kept_starts - read_starts[at], kept_sizes)
            slot = np.cumsum(rows_of > 0) - 1  # query id -> row of the block
            masks = np.zeros((len(active), len(positions)), dtype=bool)
            masks[np.repeat(slot[kept_ids], kept_sizes), rows] = True
            squared, compared = early_abandon_squared(
                block[active], data, bsf[active], row_masks=masks
            )
            refined += rows_of
            points[active] += compared
            # Each query's finite distances, query after query, rows in
            # file order: one merge per query that has any.
            hit_slots, hit_rows = np.nonzero(squared < np.inf)
            values, hits = squared[hit_slots, hit_rows], positions[hit_rows]
            firsts = np.diff(hit_slots, prepend=-1).nonzero()[0].tolist()
            for a, b in zip(firsts, [*firsts[1:], len(hit_slots)]):
                states[active[hit_slots[a]]].results.update_batch_squared(values[a:b], hits[a:b])
        with profile_lock:
            for state, rows, compared in zip(
                states, refined.astype(np.int64).tolist(), points.tolist()
            ):
                state.profile.series_accessed += rows
                state.profile.distance_computations += rows
                state.profile.points_compared += compared
                state.profile.points_total += rows * length

    chunks = len(cuts) - 1
    if workers is None:
        refine(range(chunks))
    else:
        share = [chunks * worker // workers for worker in range(workers + 1)]
        _run_workers(
            lambda worker: refine(range(share[worker], share[worker + 1])), workers
        )
    return query_ids[refined_entries], starts[refined_entries], sizes[refined_entries]


def _run_workers(target, num_threads: int) -> None:
    """Run ``target(thread_id)`` on N CRWorker threads (inline when
    N == 1).

    Each worker's run is recorded as a ``query.refine.worker`` span
    parented to the walk's span that launched the fan-out — worker
    threads have no ambient span stack of their own, so the parent is
    captured here, on the calling thread, and attached explicitly.  The
    first exception a worker raised is re-raised once all have finished.
    """
    parent = obs.current_span()
    errors: list[BaseException] = []

    def run(thread_id: int) -> None:
        try:
            with obs.span("query.refine.worker", parent=parent, worker=thread_id):
                target(thread_id)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    if num_threads == 1:
        run(0)
    else:
        threads = [
            threading.Thread(target=run, args=(i,), daemon=True)
            for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
