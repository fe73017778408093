"""The k-NN pipeline (Algorithm 10) for Q ≥ 1 queries, exact or stopped
after phase 1.

:func:`exact_knn_batch` is the one pipeline: :func:`exact_knn` — what
``knn`` calls — is its Q = 1 call, and ``knn_approx`` its call with
``phase1_only`` (Algorithm 11 alone).  It strings together the phase
routines of :mod:`repro.core.query`, sharing the steps whose cost does
not grow with Q:

* **One front half.**  :func:`repro.core.query._search_states` makes a
  single (Q × nodes) call on the index's
  :class:`~repro.core.leaf_table.LeafTable`, giving every query its row
  of effective per-leaf LB_EAPCA², and one call its PAA row; phases 1-2
  then run per query.  ``phase1_only`` stops here, after phase 1.
* **The LB_SAX pass.**  With ``prefilter`` it runs for every query ahead
  of the access-path decision
  (:meth:`~repro.core.prefilter.SignatureArray.screen_batch`); otherwise
  the decision (:func:`repro.core.query._choose_path`) runs it at the
  paper's position.  Nothing refines in between, so both positions see
  the same BSF² and keep the same rows.
* **One refinement walk.**  :func:`repro.core.query._refine_runs` sorts
  the extents of every query that has any into one file-ordered entry
  table (query id, extent, bound) and cuts it, over the union, into
  chunks of up to a thousand rows.  A chunk costs a fixed number of
  array operations whatever Q is: one re-check of every entry against
  its query's live BSF², one read of the survivors into one reused
  buffer, one scatter filling the per-query row masks and one screening
  kernel call under per-query cutoffs; each query with a finite
  distance merges its own rows.  The walk fans out over
  ``config.num_query_threads`` CRWorker threads only when the call
  serves one query on a threaded path (``nosax-leaves``,
  ``full-four-phase``); batches walk on the calling thread.

**Answers.**  Queries are independent search problems: each keeps its
own :class:`~repro.core.results.ResultSet`, BSF² and profile, and meets
its candidates in file order.  At ε = 0 answers are order-independent,
and the kernel reports the single-query values bit for bit, so a
query's answer in a batch equals its answer alone.  At ε > 0 every
answer meets the (1 + ε) guarantee, but a query re-checks once per chunk
of the *union*, not of its own list, so it may prune at other moments
than alone and return a different (equally guaranteed) answer.

**Accounting.**  Each query's :class:`~repro.core.query.QueryProfile`
carries its path, pruning, work, per-phase time and leaf-cache
counters; a one-query call also gets its I/O delta (in a batch the
reads are shared, and ``io`` stays None).  The trace has one shape for
every Q and mode: a ``query`` span (``mode`` ``"exact"`` or
``"approximate"``) with the :class:`BatchStats` counters, per query
``query.phase1.approx``, and past phase 1 per query
``query.phase2.candidates``, one ``query.prefilter``, per query
``query.phase3.filter`` where phase 3 runs, and one ``query.refine``
around the walk with its ``query.refine.worker`` children.
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
    _THREADED_PATHS,
    QueryAnswer,
    _approx_knn,
    _charging_cache,
    _choose_path,
    _find_candidate_leaves,
    _refine_runs,
    _search_states,
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
from repro.types import SERIES_DTYPE

__all__ = ["BatchAnswer", "BatchStats", "exact_knn", "exact_knn_batch"]


@dataclass
class BatchStats:
    """Call-level execution metrics of one :func:`exact_knn_batch` call."""

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
    #: Wall seconds of the whole call.
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

    def __iter__(self):
        return map(self.table.rows, self.lclists)


def exact_knn(
    query: np.ndarray,
    k: int,
    config: HerculesConfig,
    table: LeafTable,
    lrd: SeriesFile,
    sax: SignatureArray,
    num_series: int,
    results: Optional[ResultSet] = None,
) -> QueryAnswer:
    """Algorithm 10 for one query: :func:`exact_knn_batch`'s Q = 1 call.

    ``results`` optionally supplies the result set to search into —
    shard coordinators pass a linked set whose ``bsf_squared`` reflects
    the global best-so-far, tightening every pruning site without any
    other change to the pipeline.
    """
    return exact_knn_batch(
        query[None], k, config, table, lrd, sax, num_series,
        results=None if results is None else [results],
    )[0]


def exact_knn_batch(
    queries: np.ndarray,
    k: int,
    config: HerculesConfig,
    table: LeafTable,
    lrd: SeriesFile,
    sax: SignatureArray,
    num_series: int,
    results: Optional[List[ResultSet]] = None,
    phase1_only: bool = False,
) -> BatchAnswer:
    """Answer a ``(Q, n)`` query set exactly (module docstring).

    ``results`` optionally supplies one result set per query (shard
    coordinators pass linked sets broadcasting the per-query global
    BSF² vector).  Per-query wall time inside the shared steps is
    amortized: the front half, the screen and the refinement walk are
    split evenly across the queries.

    ``phase1_only`` stops after phase 1: approximate k-NN (Algorithm 11
    alone, the paper's §5 next step), at most ``config.l_max`` leaves
    per query, ``profile.path == "approximate"``.
    """
    # In the stored dtype, as the index holds its series.
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
    # One query owns every read of its call; a batch shares them.
    io_before = lrd.stats.snapshot() if num_queries == 1 else None
    lclists: list = []
    mode = "approximate" if phase1_only else "exact"
    with obs.span("query", k=k, queries=num_queries, mode=mode) as query_span:
        states = _search_states(arr, k, config, table, lrd, sax, num_series, results)
        shared = (time.perf_counter() - started) / num_queries
        for state in states:
            phase_started = time.perf_counter()
            with obs.span("query.phase1.approx") as sp, _charging_cache(lrd, state.profile):
                _approx_knn(state)
                sp.set("leaves_visited", state.profile.approx_leaves)
            phase_ended = time.perf_counter()
            state.profile.time_approx = phase_ended - phase_started + shared
            if phase1_only:
                state.profile.path = "approximate"
                continue
            with obs.span("query.phase2.candidates") as sp:
                lclists.append(_find_candidate_leaves(state))
                sp.set("candidate_leaves", len(lclists[-1]))
            state.profile.time_candidates = time.perf_counter() - phase_ended

        refine_share = 0.0
        if not phase1_only:
            refine_started = time.perf_counter()
            _phases_3_4(states, lclists, stats)
            refine_share = (
                time.perf_counter() - refine_started - stats.screen_seconds
            ) / num_queries

        screen_share = stats.screen_seconds / num_queries
        answers: List[QueryAnswer] = []
        for state in states:
            profile = state.profile
            profile.time_refine = refine_share
            profile.time_total = (
                profile.time_approx + profile.time_candidates + screen_share + refine_share
            )
            obs.observe_search(profile.time_total)
            answers.append(QueryAnswer(*state.results.items(), profile))
        if io_before is not None:
            states[0].profile.io = lrd.stats.snapshot() - io_before
        stats.total_seconds = time.perf_counter() - started
        query_span.set_attrs(
            unique_leaf_reads=stats.unique_leaf_reads,
            leaf_uses=stats.leaf_uses,
            kernel_rows=stats.kernel_rows,
        )
    return BatchAnswer(answers, stats)


def _phases_3_4(states: list, lclists: list, stats: BatchStats) -> None:
    """Phases 3-4 for queries past phase 2: the LB_SAX pass (ahead of the
    access-path decision with ``prefilter``), each query's access path,
    and one refinement walk over those with candidates; fills ``stats``."""
    first = states[0]
    config, table, lrd, sax = first.config, first.table, first.lrd, first.sax
    candidates: list = [None] * len(states)
    if config.prefilter:
        screen_started = time.perf_counter()
        with obs.span("query.prefilter"):
            # Only the queries phase 2 left candidate leaves have rows.
            screened = [qi for qi, lclist in enumerate(lclists) if len(lclist)]
            found = sax.screen_batch(
                [states[qi].query_paa for qi in screened],
                [states[qi].results.bsf_squared for qi in screened],
                first.query.shape[0],
                prune_factor=first.prune_factor,
                rows=_LeafRows(table, [lclists[qi] for qi in screened]),
            )
            for qi, cands in zip(screened, found):
                candidates[qi] = cands
                lclists[qi] = _trim_to_candidates(states[qi], lclists[qi], cands[0])
        stats.screen_seconds = time.perf_counter() - screen_started

    walkers, extents = [], []
    for state, lclist, cands in zip(states, lclists, candidates):
        path_extents = _choose_path(state, lclist, cands)
        if path_extents is not None:
            walkers.append(state)
            extents.append(path_extents)
    if not walkers:
        return
    # CRWorker threads serve one query on a threaded path only.
    threaded = len(states) == 1 and walkers[0].profile.path in _THREADED_PATHS
    # One snapshot pair stays exact under threads; the lookups are
    # charged to the walk's first query.
    with obs.span("query.refine"), _charging_cache(lrd, walkers[0].profile):
        query_ids, starts, sizes = _refine_runs(
            walkers, extents, config.num_query_threads if threaded else None
        )
    # The leaves each query refined rows of.
    used = np.zeros((len(walkers), len(table.leaves)), dtype=bool)
    used[query_ids, table.leaf_of(starts)] = True
    stats.unique_leaf_reads = int(np.count_nonzero(used.any(axis=0)))
    stats.leaf_uses = int(np.count_nonzero(used))
    stats.kernel_rows = int(sizes.sum())
