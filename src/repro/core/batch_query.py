"""Batched multi-query execution: one bound pass, one refinement walk.

A workload of Q queries answered one at a time pays the bound pass, the
refinement chunks and the kernel dispatch Q times.  This engine answers
the whole query set with the serial pipeline's own routines, sharing
the two steps whose cost does not grow with Q:

* **One bound pass.**  A single (Q × nodes) call on the index's
  :class:`~repro.core.leaf_table.LeafTable` gives every query its row of
  effective per-leaf LB_EAPCA²; phases 1-2 then run per query, exactly
  as :func:`repro.core.query.exact_knn` runs them.
* **The serial LB_SAX pass.**  With ``prefilter`` it runs for every
  query ahead of the access-path decision
  (:meth:`~repro.core.prefilter.SignatureArray.screen_batch`); otherwise
  the shared decision (:func:`repro.core.query._choose_path`) runs it at
  the paper's position — the candidates are the serial ones either way.
* **One refinement walk.**  :func:`repro.core.query._refine_runs` — the
  serial routine, of which one query is the Q = 1 call — sorts every
  query's extents into one file-ordered entry table (query id, extent,
  bound) and cuts it, over the union, into chunks of up to a thousand
  rows.  A chunk costs a fixed number of array operations whatever Q
  is: one re-check of every entry against its query's live BSF², one
  read of the survivors into one reused buffer, one scatter filling the
  per-query row masks and one screening kernel call under per-query
  cutoffs; each query with a finite distance merges its own rows.  The
  ``account`` hook gets the chunk's query ids and extent starts as
  arrays, so the leaves each query used are marked in one assignment.

**Answers.**  Queries are independent search problems: each keeps its
own :class:`~repro.core.results.ResultSet`, BSF² and profile, and meets
its candidates in file order.  At ε = 0 answers are order-independent,
and the kernel reports the single-query values bit for bit, so batch
answers equal serial ones.  At ε > 0 every answer meets the (1 + ε)
guarantee, but a query re-checks once per chunk of the *union*, not of
its own list, so it may prune at other moments than alone and return a
different (equally guaranteed) answer.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import obs
from repro.core.config import HerculesConfig
from repro.core.leaf_table import LeafTable
from repro.core.prefilter import SignatureArray
from repro.core.query import (
    QueryAnswer,
    _approx_knn,
    _choose_path,
    _find_candidate_leaves,
    _refine_runs,
    _SearchState,
    _trim_to_candidates,
)
from repro.core.results import ResultSet

# Not called here (the walk's kernel calls go through core.query); the
# end-to-end benchmark's tracer still patches both names in this module,
# so they stay bound.
from repro.distance.euclidean import early_abandon_squared  # noqa: F401
from repro.distance.euclidean import (  # noqa: F401
    early_abandon_squared as early_abandon_squared_multi,
)
from repro.storage.files import SeriesFile
from repro.summarization.eapca import BatchSketch
from repro.types import DISTANCE_DTYPE, SERIES_DTYPE

__all__ = ["BatchAnswer", "BatchStats", "exact_knn_batch"]


@dataclass
class BatchStats:
    """Batch-level execution metrics of one :func:`exact_knn_batch` call."""

    num_queries: int = 0
    #: Leaves the refinement walk read rows of (phase 1 reads per query
    #: and is not counted).
    unique_leaf_reads: int = 0
    #: (query, leaf) refinements: the leaves each query refined rows of,
    #: summed over queries.  ``leaf_share_factor`` > 1 means the walk's
    #: reads served several queries each.
    leaf_uses: int = 0
    #: Candidate rows the refinement kernel evaluated, summed over
    #: queries.
    kernel_rows: int = 0
    #: Wall seconds of the pre-decision LB_SAX pass (0 with ``prefilter``
    #: off, where the pass runs inside the access-path decision).
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


class _LeafRows(Sequence):
    """Each query's LCList rows (``LeafTable.rows``), built only when the
    LB_SAX pass reaches that query, so one query's rows are alive at a
    time rather than the whole batch's."""

    def __init__(self, table: LeafTable, lclists: list) -> None:
        self.table = table
        self.lclists = lclists

    def __len__(self) -> int:
        return len(self.lclists)

    def __getitem__(self, index):
        return self.table.rows(self.lclists[index])


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
    """Answer a whole query set together.

    At ε = 0 each query's answer is value-identical to what
    :func:`repro.core.query.exact_knn` returns for it alone; at ε > 0 it
    meets the same (1 + ε) guarantee.  The engine runs single-threaded —
    the parallelism lives in the batch dimension of the kernel, not in
    worker threads — so answers are deterministic for a fixed index
    regardless of ``config.num_query_threads``.

    ``results`` optionally supplies one result set per query (shard
    coordinators pass linked sets broadcasting the per-query global
    BSF² vector).  Per-query wall-time attribution inside the shared
    phases is amortized: the screen and refinement walls are split
    evenly across the queries.
    """
    # In the stored dtype, as the serial path takes one query.
    arr = np.asarray(queries, dtype=SERIES_DTYPE)
    num_queries = arr.shape[0]
    stats = BatchStats(num_queries=num_queries)
    if num_queries == 0:
        return BatchAnswer([], stats)
    if results is not None and len(results) != num_queries:
        raise ValueError(
            f"got {len(results)} result sets for {num_queries} queries"
        )

    started = time.perf_counter()
    states: List[_SearchState] = []
    lclists: list = []

    with obs.span("query.batch", queries=num_queries, k=k) as batch_span:
        # -- one bound pass, then per-query phases 1 + 2 -----------------
        with obs.span("query.batch.descend"):
            sketch = BatchSketch(arr)
            bounds = table.leaf_bounds_squared(sketch.cumsum, sketch.cumsq)
            # Amortized into every query's phase-1 time.
            bounds_share = (time.perf_counter() - started) / num_queries
            for qi in range(num_queries):
                phase_started = time.perf_counter()
                state = _SearchState(
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
                lclists.append(_find_candidate_leaves(state))
                state.profile.time_candidates = (
                    time.perf_counter() - phase_started
                )
                # This query's own leaf-cache lookups; the walk adds the
                # reads it is charged with.
                state.finish_profile()
                states.append(state)

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
                    rows=_LeafRows(table, lclists),
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

        # -- the access-path decision, then one walk for every query -----
        refine_started = time.perf_counter()
        nothing = (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)
        extents = [
            _choose_path(state, lclist, cands) or nothing
            for state, lclist, cands in zip(states, lclists, candidates)
        ]
        refined_before = sum(s.profile.distance_computations for s in states)
        # The leaves each query refined rows of; a chunk read's leaf-cache
        # lookups are charged to the lowest query id it served.
        leaves_used = np.zeros((num_queries, len(table.leaves)), dtype=bool)

        def account(query_ids, starts, lookups):
            leaves_used[query_ids, table.leaf_of(starts)] = True
            if lookups is not None:
                charged = states[query_ids.min()].profile
                charged.cache_hits += lookups.hits
                charged.cache_misses += lookups.misses

        with obs.span("query.batch.refine") as sp:
            _refine_runs(states, extents, account=account)
            stats.unique_leaf_reads = int(np.count_nonzero(leaves_used.any(axis=0)))
            stats.leaf_uses = int(np.count_nonzero(leaves_used))
            sp.set_attrs(
                unique_leaf_reads=stats.unique_leaf_reads,
                leaf_uses=stats.leaf_uses,
            )
        stats.kernel_rows = (
            sum(s.profile.distance_computations for s in states) - refined_before
        )
        refine_seconds = time.perf_counter() - refine_started

        # -- finalize ----------------------------------------------------
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
