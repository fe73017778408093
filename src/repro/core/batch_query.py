"""The k-NN pipeline (Algorithm 10) for Q ≥ 1 queries, exact or stopped
after phase 1.

:func:`exact_knn_batch` is the one pipeline: :func:`exact_knn` — what
``knn`` calls — is its Q = 1 call, and ``knn_approx`` its call with
``phase1_only`` (Algorithm 11 alone).  It strings together the phase
routines of :mod:`repro.core.query`, sharing the steps whose cost does
not grow with Q:

* **One front half.**  :func:`repro.core.query._search_states` makes
  one (slice × nodes) call per slice of eight queries on the index's
  :class:`~repro.core.leaf_table.LeafTable`, giving every query its row
  of effective per-leaf LB_EAPCA², and one call its LB_SAX gap tables
  (``SignatureArray.gap_tables`` on the block's PAA), which phase 1's
  screens and phase 3's pass share.
* **One phase 1 in lockstep.**  A Q = 1 call walks its leaves group by
  group (:func:`repro.core.query._approx_knn`); a block runs
  :func:`repro.core.query._approx_knn_lockstep`, in rounds.  In a round
  every live query takes its next group by the same rule, at its own
  BSF² from the round's start; one ``screen_batch`` call screens the
  round's (query, row) pairs, the leaves kept by any query are read
  once, as one file-ordered union in chunks, and each chunk is one
  kernel call masked to the queries with a leaf there.  Each query then
  merges its group leaf by leaf in its own visit order, so its visits,
  stop point, answer and phase-1 counters are its Q = 1 call's.
  ``phase1_only`` stops here, after phase 1; phase 2 runs per query on
  its bound row.
* **One LB_SAX pass.**  Phase 3 runs once per call, ahead of the
  access-path decision
  (:meth:`~repro.core.prefilter.SignatureArray.screen_batch`), for the
  queries with candidate leaves (none under NoSAX), and each LCList
  loses the leaves that kept no row before
  :func:`repro.core.query._choose_path` picks its path.  The paper runs
  the pass after the decision; nothing refines in between, so it sees
  the same BSF² and keeps the same rows here, and the skip-sequential
  scans read the trimmed lists.  When two or more queries have
  candidate leaves (a *shared walk*), the pass skips the queries whose
  leaves the walk reads anyway: those weak EAPCA pruning decided
  (``eapca-skipseq``), and those whose every LCList leaf is a decided
  query's (``shared-leaves``).  Both refine their untrimmed LCList, and
  the walk gates those rows in the same kernel calls as the decided
  queries' (EXPERIMENTS.md, "LB_SAX pass in a shared walk").  A Q = 1
  call, or one in which a single query has candidate leaves, keeps the
  pass for it.
* **One refinement walk.**  :func:`repro.core.query._refine_runs` sorts
  the extents of every query that has any into file-ordered entry
  tables (query id, extent, bound), one per leaf-aligned file window,
  and cuts each, over its union, into chunks of up to a thousand rows.
  A chunk costs a fixed number of array operations whatever Q is: one
  re-check of every entry against its query's live BSF², one read of
  the survivors into one reused buffer, one scatter filling the
  per-query row masks and one screening kernel call under per-query
  cutoffs; each query with a finite distance merges its own rows.  The
  walk runs on the calling thread for every Q: the paper's CRWorker
  threads lost to it on this runtime (EXPERIMENTS.md, Figure 12b).

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
reads are shared, and ``io`` stays None).  A query the pass skipped
counts no ``prefilter_*`` rows and no ``candidate_series``, and is
charged every row of its LCList leaves the walk refines for it, so its
``series_accessed`` can exceed its Q = 1 call's though the walk reads
no more bytes.  Phase 1's reads are shared too: its leaf-cache lookups
are charged to the first query.  The trace has one shape for
every Q and mode: a ``query`` span (``mode`` ``"exact"`` or
``"approximate"``) with the :class:`BatchStats` counters, one
``query.phase1.approx`` (``leaves_visited`` summed over the queries,
and its ``rounds``), and past phase 1 per query
``query.phase2.candidates``, one ``query.prefilter`` around the LB_SAX
pass, and one ``query.refine`` around the walk.
"""

from __future__ import annotations

import time
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
    _approx_knn_lockstep,
    _charging_cache,
    _choose_path,
    _eapca_decided,
    _find_candidate_leaves,
    _refine_runs,
    _RowsByQuery,
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
    #: Leaves the refinement walk read rows of (phase 1's reads are not
    #: counted).
    unique_leaf_reads: int = 0
    #: (query, leaf) refinements: the leaves each query refined rows of,
    #: summed over queries.  ``leaf_share_factor`` > 1 means the walk's
    #: reads served several queries each.
    leaf_uses: int = 0
    #: Candidate rows the refinement kernel evaluated, summed over
    #: queries.
    kernel_rows: int = 0
    #: Wall seconds of the LB_SAX pass over the queries it runs for (0
    #: under NoSAX, which runs none; near 0 when a shared walk covers
    #: every query).
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


def exact_knn(
    query: np.ndarray,
    k: int,
    config: HerculesConfig,
    table: LeafTable,
    lrd: SeriesFile,
    sax: SignatureArray,
    num_series: int,
    norms: np.ndarray,
) -> QueryAnswer:
    """Algorithm 10 for one query: :func:`exact_knn_batch`'s Q = 1 call."""
    return exact_knn_batch(query[None], k, config, table, lrd, sax, num_series, norms)[0]


def exact_knn_batch(
    queries: np.ndarray,
    k: int,
    config: HerculesConfig,
    table: LeafTable,
    lrd: SeriesFile,
    sax: SignatureArray,
    num_series: int,
    norms: np.ndarray,
    results: Optional[List[ResultSet]] = None,
    phase1_only: bool = False,
) -> BatchAnswer:
    """Answer a ``(Q, n)`` query set exactly (module docstring).

    ``results`` optionally supplies one result set per query (shard
    workers pass linked sets broadcasting the per-query global BSF²
    vector).  Per-query wall time inside the shared steps is
    amortized: the front half with phase 1, the screen and the
    refinement walk are split evenly across the queries.

    ``phase1_only`` stops after phase 1: approximate k-NN (Algorithm 11
    alone, the paper's §5 next step), at most ``config.l_max`` leaves
    per query, ``profile.path == "approximate"``.

    ``norms`` is the index's stored row-norm column (each series'
    float32 ``|x|²`` by LRDFile position), which every kernel call takes
    its rows' norms from.
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
    # One query owns every read of its call, the first one a seek; a
    # batch shares them.
    io_before = lrd.io_checkpoint() if num_queries == 1 else None
    lclists: list = []
    mode = "approximate" if phase1_only else "exact"
    with obs.span("query", k=k, queries=num_queries, mode=mode) as query_span:
        states = _search_states(arr, k, config, table, lrd, sax, num_series, norms, results)
        # One snapshot pair around the whole phase: a block's reads are
        # shared, so the lookups are charged to its first query.
        with obs.span("query.phase1.approx") as sp, _charging_cache(lrd, states[0].profile):
            rounds = (
                _approx_knn(states[0]) if num_queries == 1 else _approx_knn_lockstep(states)
            )
            sp.set_attrs(
                leaves_visited=sum(state.profile.approx_leaves for state in states),
                rounds=rounds,
            )
        # The front half and phase 1 are shared: each query's share.
        approx = (time.perf_counter() - started) / num_queries
        for state in states:
            state.profile.time_approx = approx
            if phase1_only:
                state.profile.path = "approximate"
                continue
            phase_ended = time.perf_counter()
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
    """Phases 3-4 for queries past phase 2: the LB_SAX pass, each query's
    access path, and one refinement walk over those with candidates;
    fills ``stats``."""
    first = states[0]
    config, table, lrd, sax = first.config, first.table, first.lrd, first.sax
    candidates: list = [None] * len(states)
    # NoSAX prunes with LB_EAPCA alone: no LB_SAX pass.
    if config.use_sax:
        screen_started = time.perf_counter()
        with obs.span("query.prefilter"):
            # Only the queries phase 2 left candidate leaves have rows,
            # and a shared walk reads some of their leaves anyway.
            screened = _screened_queries(states, lclists)
            wanted = set(screened)
            empty = np.empty(0, dtype=np.int64)
            found = []
            if screened:  # most easy queries have no candidate leaf
                found = sax.screen_batch(
                    first.gap_block,
                    [state.results.bsf_squared for state in states],
                    first.query.shape[0],
                    prune_factor=first.prune_factor,
                    # Each query's LCList rows, built only when the pass
                    # reaches that query.
                    rows=_RowsByQuery(
                        len(states), lambda qi: table.rows(lclists[qi]) if qi in wanted else empty
                    ),
                )
            for qi in screened:
                candidates[qi] = found[qi]
                lclists[qi] = _trim_to_candidates(states[qi], lclists[qi], found[qi][0])
        stats.screen_seconds = time.perf_counter() - screen_started

    walkers, extents = [], []
    for state, lclist, cands in zip(states, lclists, candidates):
        path_extents = _choose_path(state, lclist, cands)
        if path_extents is not None:
            walkers.append(state)
            extents.append(path_extents)
    # Every LB_SAX pass is done: free the block's gap tables, so they are
    # not resident while the walk allocates its buffers.
    for state in states:
        state.gap_tables = state.gap_block = None
    if not walkers:
        return
    # One snapshot pair around the whole walk: its reads are shared, so
    # the lookups are charged to the walk's first query.
    with obs.span("query.refine"), _charging_cache(lrd, walkers[0].profile):
        used, stats.kernel_rows = _refine_runs(walkers, extents)
    # ``used`` marks the leaves each query refined rows of.
    stats.unique_leaf_reads = int(np.count_nonzero(used.any(axis=0)))
    stats.leaf_uses = int(np.count_nonzero(used))


def _screened_queries(states: list, lclists: list) -> list:
    """The queries the LB_SAX pass runs for: those with candidate leaves,
    less, when two or more have them (a shared walk), every query whose
    LCList lies inside the decided queries' (module docstring).  A
    decided query goes to ``eapca-skipseq`` whatever the pass keeps, so
    the walk reads its whole LCList and gates those rows for every query
    that has them; the pass would only cost time there."""
    with_leaves = [qi for qi, lclist in enumerate(lclists) if len(lclist)]
    decided = [qi for qi in with_leaves if _eapca_decided(states[qi])]
    if len(with_leaves) < 2 or not decided:
        return with_leaves
    covered = np.zeros(states[0].table.num_leaves, dtype=bool)
    for qi in decided:
        covered[lclists[qi]] = True
    return [qi for qi in with_leaves if not covered[lclists[qi]].all()]
