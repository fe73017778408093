"""Shard-parallel engine: IndexShard partitioning + scatter-gather.

Python's GIL caps the single-process Hercules build at one core of
useful CPU work (the paper's 24-thread numbers assume real parallelism).
This module scales past it the way ParIS+/MESSI scale distance-series
indexes across cores: partition the dataset into ``N`` disjoint row
ranges, build one *complete, self-contained* Hercules index per range
(an **index shard** — its own DBuffer space, tree, LRDFile/LSDFile and
MANIFEST under ``shard-XXXX/``), and coordinate queries scatter-gather.

Correctness rests on two facts:

* exact k-NN over a disjoint union is exact by construction — the global
  top-k is a subset of the union of per-shard top-k sets;
* the min over shards of *local* k-th-best distances is, at every
  moment, an upper bound on the final *global* k-th best — so shards may
  prune against a shared global BSF² (broadcast through
  :class:`~repro.core.results.LinkedResultSet`) and a stale bound only
  weakens pruning, never the answer.

Layout on disk::

    index-dir/
      SHARDS.json          top-level manifest: generation, shard list
      shard-0000/          a complete single-index directory
        MANIFEST.json  htree.bin  lrd.bin  lsd.bin
      shard-0001/
        ...

``num_shards=1`` never takes this path: :meth:`ShardedIndex.build`
delegates to the classic :meth:`~repro.core.index.HerculesIndex.build`,
keeping today's single-directory layout byte-identical.  Global answer
positions are ``shard row_base + shard-local LRDFile position``.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import logging
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro import obs
from repro.core.batch_query import BatchAnswer, BatchStats
from repro.core.config import HerculesConfig
from repro.core.index import BuildReport, HerculesIndex
from repro.core.query import QueryAnswer, QueryProfile
from repro.core.results import SharedBsf
from repro.core.shard_worker import (
    RETRYABLE,
    BuildOutcome,
    GatherOutcome,
    ShardQueryPool,
    answer_shard,
    build_shards_in_processes,
)
from repro.errors import (
    ConfigError,
    IndexStateError,
    ManifestError,
    ReproError,
    ShardError,
    ShardTimeoutError,
)
from repro.retry import RetryPolicy
from repro.storage import manifest as manifest_mod
from repro.storage.dataset import Dataset
from repro.storage.iostats import IOSnapshot
from repro.types import as_series

logger = logging.getLogger(__name__)

__all__ = [
    "ShardedBuildReport",
    "ShardedIndex",
    "ShardedQueryAnswer",
    "open_index",
    "partition_rows",
    "record_sharded_profile",
]


def partition_rows(num_series: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` row ranges, one per shard.

    The first ``num_series % num_shards`` shards get one extra row, so
    shard sizes differ by at most 1.  Contiguity is what makes the
    global position space trivial (``row_base + local position``) and
    keeps ``--shards 1`` equal to the unpartitioned input order.
    """
    if num_shards < 1:
        raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
    if num_series < num_shards:
        raise ConfigError(
            f"cannot partition {num_series} series into {num_shards} shards "
            "(each shard needs at least one series)"
        )
    base, extra = divmod(num_series, num_shards)
    ranges = []
    start = 0
    for shard_id in range(num_shards):
        stop = start + base + (1 if shard_id < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


@dataclass(frozen=True)
class ShardedBuildReport:
    """Aggregate timings of one sharded construction.

    Field-compatible with :class:`~repro.core.index.BuildReport` (so
    :func:`repro.obs.record_build` works on either): per-phase seconds
    are the **max over shards** — the critical path of a parallel build
    — while the work counters (series, splits, flushes, I/O) sum.
    ``wall_seconds`` is the coordinator's end-to-end wall-clock, which
    is what shard-scaling benchmarks should compare.
    """

    wall_seconds: float
    build_seconds: float
    write_seconds: float
    num_series: int
    num_leaves: int
    splits: int
    flushes: int
    io: IOSnapshot
    route_seconds: float = 0.0
    store_seconds: float = 0.0
    split_seconds: float = 0.0
    flush_seconds: float = 0.0
    #: Per-shard reports in shard-id order.
    shard_reports: tuple = ()
    #: Supervision interventions (all zero on a healthy build): worker
    #: processes respawned after dying, shard tasks requeued off dead
    #: workers, and shard builds retried after in-worker errors.
    worker_restarts: int = 0
    requeued_tasks: int = 0
    task_retries: int = 0

    @property
    def total_seconds(self) -> float:
        return self.wall_seconds

    @property
    def series_per_sec(self) -> float:
        """End-to-end construction throughput (wall-clock based).

        Unlike the single-index report this divides by *wall* time, not
        the phase-1 critical path: wall-clock is the honest number for a
        multi-process build (it includes the SharedMemory publish and
        worker startup the single-process path does not pay).
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.num_series / self.wall_seconds


@dataclass
class ShardedQueryAnswer(QueryAnswer):
    """A merged scatter-gather answer plus every shard's own answer.

    ``shard_answers`` holds ``(shard_id, QueryAnswer)`` pairs in shard
    order, positions already global — ``repro explain`` renders one row
    per shard from them.

    Degradation is never silent: ``coverage`` is the fraction of indexed
    series actually searched (1.0 on a healthy query), ``degraded`` is
    True when any shard was dropped under partial-results mode,
    ``shard_errors`` names every dropped shard with the reason, and
    ``retries`` counts the dispatch retries the answer cost.  A degraded
    answer is exact over the covered rows: it equals the fault-free
    answer restricted to the surviving shards.
    """

    shard_answers: tuple = ()
    coverage: float = 1.0
    degraded: bool = False
    shard_errors: tuple = ()
    retries: int = 0


def _merge_pairs(
    k: int,
    pairs: list,
    num_leaves: int,
    num_series: int,
    wall_seconds: float,
    coverage: float = 1.0,
    shard_errors: tuple = (),
    retries: int = 0,
) -> ShardedQueryAnswer:
    """One global answer from per-shard answers (positions global).

    Distances concatenate and the k smallest win (ties broken by
    position, like a stable single-index heap drain).  The aggregate
    profile sums work counters, takes per-phase times as the max over
    shards (phases run concurrently), and recomputes pruning ratios
    against the *global* leaf/series counts.
    """
    distances = np.concatenate([answer.distances for _, answer in pairs])
    positions = np.concatenate([answer.positions for _, answer in pairs])
    order = np.lexsort((positions, distances))[:k]
    profile = QueryProfile(path="sharded", time_total=wall_seconds)
    sax_ran = False
    io_parts = []
    for _, answer in pairs:
        p = answer.profile
        profile.approx_leaves += p.approx_leaves
        profile.candidate_leaves += p.candidate_leaves
        profile.candidate_series += p.candidate_series
        profile.prefilter_screened += p.prefilter_screened
        profile.prefilter_survivors += p.prefilter_survivors
        profile.distance_computations += p.distance_computations
        profile.points_compared += p.points_compared
        profile.points_total += p.points_total
        profile.series_accessed += p.series_accessed
        profile.cache_hits += p.cache_hits
        profile.cache_misses += p.cache_misses
        profile.time_approx = max(profile.time_approx, p.time_approx)
        profile.time_candidates = max(profile.time_candidates, p.time_candidates)
        profile.time_refine = max(profile.time_refine, p.time_refine)
        if p.sax_pruning is not None:
            sax_ran = True
        if p.io is not None:
            io_parts.append(p.io)
    profile.eapca_pruning = (
        1.0 - profile.candidate_leaves / num_leaves if num_leaves else 0.0
    )
    if sax_ran and num_series:
        profile.sax_pruning = 1.0 - profile.candidate_series / num_series
    if io_parts:
        profile.io = functools.reduce(lambda a, b: a + b, io_parts)
    return ShardedQueryAnswer(
        distances=distances[order],
        positions=positions[order],
        profile=profile,
        shard_answers=tuple(pairs),
        coverage=coverage,
        degraded=bool(shard_errors),
        shard_errors=tuple(shard_errors),
        retries=retries,
    )


def _add_stats(total: BatchStats, part: BatchStats) -> None:
    """Sum one shard's (or chunk's) work counters into ``total``."""
    total.unique_leaf_reads += part.unique_leaf_reads
    total.leaf_uses += part.leaf_uses
    total.kernel_rows += part.kernel_rows
    total.screen_seconds += part.screen_seconds


def _revive_report(doc: dict) -> BuildReport:
    """A BuildReport back from the dict a build worker shipped home."""
    fields = dict(doc)
    fields["io"] = IOSnapshot(**fields["io"])
    return BuildReport(**fields)


class ShardedIndex:
    """N disjoint index shards behind one scatter-gather facade.

    Query answering defaults to an inline loop: the shards answer one
    after another on the calling thread, each starting from the BSF²
    the shards before it found, so per-shard work is deterministic.
    Opening with ``workers > 0`` instead keeps a persistent pool of
    worker *processes* (each owning a subset of shards, caches staying
    warm across queries), which answers the shards in parallel.
    """

    def __init__(
        self,
        directory: Path,
        shards: list[HerculesIndex],
        row_bases: list[int],
        manifest,
        config: HerculesConfig,
        build_report: Optional[ShardedBuildReport] = None,
        owns_directory: bool = False,
        pool: Optional[ShardQueryPool] = None,
        worker_metric_states: Optional[list] = None,
    ) -> None:
        self.directory = directory
        self.shards = shards
        self.row_bases = row_bases
        self.manifest = manifest
        self.config = config
        self.build_report = build_report
        self._owns_directory = owns_directory
        self._pool = pool
        self._worker_metric_states = worker_metric_states or []
        self._closed = False

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        data: Union[np.ndarray, Dataset],
        config: Optional[HerculesConfig] = None,
        directory: Optional[Union[str, Path]] = None,
        cache_bytes: int = 0,
    ):
        """Build a sharded index (or a plain one when ``num_shards=1``).

        ``config.num_shards`` selects the partition count and
        ``config.shard_workers`` the build processes (``None`` →
        ``min(num_shards, cpu_count)``; ``0``/``1`` builds the shards
        sequentially in this process, which is what deterministic tests
        use).  With one shard this delegates to
        :meth:`HerculesIndex.build` — same files, same bytes.
        """
        config = config if config is not None else HerculesConfig()
        dataset = data if isinstance(data, Dataset) else Dataset.from_array(data)
        n = config.num_shards
        if n <= 1:
            if directory is not None:
                # A leftover SHARDS.json would shadow the plain layout.
                Path(directory).mkdir(parents=True, exist_ok=True)
                (Path(directory) / manifest_mod.SHARDS_FILENAME).unlink(
                    missing_ok=True
                )
            return HerculesIndex.build(
                dataset, config, directory=directory, cache_bytes=cache_bytes
            )

        owns_directory = directory is None
        directory = (
            Path(tempfile.mkdtemp(prefix="hercules-shards-"))
            if directory is None
            else Path(directory)
        )
        directory.mkdir(parents=True, exist_ok=True)
        generation = manifest_mod.next_generation(directory)
        ranges = partition_rows(dataset.num_series, n)
        shard_dirs = [
            directory / manifest_mod.shard_dirname(i) for i in range(n)
        ]
        shard_config = config.with_options(num_shards=1, shard_workers=None)
        workers = (
            config.shard_workers
            if config.shard_workers is not None
            else min(n, os.cpu_count() or 1)
        )

        reports: list[BuildReport] = []
        worker_metric_states: list = []
        supervision = BuildOutcome()
        wall_started = time.perf_counter()
        trace = obs.get_trace()
        with obs.span(
            "build.sharded", num_shards=n, workers=workers
        ) as parent_span:
            if workers > 1:
                replies, supervision = build_shards_in_processes(
                    dataset.load_all(),
                    ranges,
                    shard_dirs,
                    shard_config,
                    workers,
                    trace_enabled=trace is not None,
                )
                hub = obs.get_hub()
                for shard_id in range(n):
                    payload = replies[shard_id]
                    reports.append(_revive_report(payload["report"]))
                    worker_metric_states.append(payload["metrics"])
                    if trace is not None and payload["spans"]:
                        trace.absorb_spans(
                            payload["spans"],
                            thread_prefix=f"shard{shard_id}/",
                            parent=parent_span,
                        )
                    if hub is not None and payload.get("events"):
                        hub.journal.merge_state(
                            payload["events"], shard=shard_id
                        )
            else:
                for shard_id, (start, stop) in enumerate(ranges):
                    rows = dataset.read_batch(start, stop - start)
                    with obs.span("build.shard", shard=shard_id):
                        shard = HerculesIndex.build(
                            rows, shard_config, directory=shard_dirs[shard_id]
                        )
                    reports.append(shard.build_report)
                    worker_metric_states.append(None)
                    shard.close()
        wall_seconds = time.perf_counter() - wall_started

        records = []
        for shard_id, (start, _) in enumerate(ranges):
            shard_dir = shard_dirs[shard_id]
            sub = manifest_mod.load_manifest(shard_dir)
            crc = manifest_mod.stream_crc32(
                shard_dir / manifest_mod.MANIFEST_FILENAME
            )
            records.append(
                manifest_mod.ShardRecord(
                    name=manifest_mod.shard_dirname(shard_id),
                    row_base=start,
                    num_series=sub.num_series,
                    num_leaves=sub.num_leaves,
                    manifest_crc32=crc,
                )
            )
        shard_manifest = manifest_mod.ShardManifest(
            num_shards=n,
            num_series=dataset.num_series,
            series_length=dataset.series_length,
            generation=generation,
            config_digest=manifest_mod.config_digest(
                dataclasses.asdict(config)
            ),
            shards=records,
        )
        manifest_mod.save_shard_manifest(directory, shard_manifest)
        # The directory is now authoritatively sharded: drop a leftover
        # plain-layout manifest and any shard dirs beyond the new count.
        (directory / manifest_mod.MANIFEST_FILENAME).unlink(missing_ok=True)
        _prune_stale_shards(directory, n)

        report = ShardedBuildReport(
            wall_seconds=wall_seconds,
            build_seconds=max(r.build_seconds for r in reports),
            write_seconds=max(r.write_seconds for r in reports),
            num_series=dataset.num_series,
            num_leaves=sum(r.num_leaves for r in reports),
            splits=sum(r.splits for r in reports),
            flushes=sum(r.flushes for r in reports),
            io=functools.reduce(
                lambda a, b: a + b, (r.io for r in reports)
            ),
            route_seconds=max(r.route_seconds for r in reports),
            store_seconds=max(r.store_seconds for r in reports),
            split_seconds=max(r.split_seconds for r in reports),
            flush_seconds=max(r.flush_seconds for r in reports),
            shard_reports=tuple(reports),
            worker_restarts=supervision.worker_restarts,
            requeued_tasks=supervision.requeued_tasks,
            task_retries=supervision.task_retries,
        )
        logger.info(
            "sharded index ready: %d shards over %d series in %.2fs wall "
            "(%.0f series/s)",
            n,
            dataset.num_series,
            wall_seconds,
            report.series_per_sec,
        )
        obs.emit_event(
            "build_phase",
            phase="sharded_build",
            seconds=round(wall_seconds, 6),
            shards=n,
            num_series=dataset.num_series,
            worker_restarts=report.worker_restarts,
            requeued_tasks=report.requeued_tasks,
        )
        shards = [
            HerculesIndex.open(d, verify="off", cache_bytes=cache_bytes // n)
            for d in shard_dirs
        ]
        return cls(
            directory=directory,
            shards=shards,
            row_bases=[start for start, _ in ranges],
            manifest=shard_manifest,
            config=config,
            build_report=report,
            owns_directory=owns_directory,
            worker_metric_states=worker_metric_states,
        )

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        verify: str = "quick",
        cache_bytes: int = 0,
        workers: Optional[int] = None,
    ) -> "ShardedIndex":
        """Open a sharded directory (``SHARDS.json`` + shard sub-dirs).

        ``verify`` levels mirror :meth:`HerculesIndex.open` and recurse:
        ``quick``/``full`` first validate each shard sub-manifest against
        the committed top-level record (mixed generations and swapped
        shards are caught here), then verify the shard's own artifacts at
        the same level.  Every failure names the shard.

        The leaf-cache budget is **split evenly**: each shard gets
        ``cache_bytes // num_shards``.  ``workers > 0`` starts that many
        persistent query worker processes; ``None``/``0`` answers the
        shards one after another on the calling thread.
        """
        directory = Path(directory)
        if verify not in manifest_mod.VERIFY_LEVELS:
            raise ValueError(
                f"verify must be one of {manifest_mod.VERIFY_LEVELS}, "
                f"got {verify!r}"
            )
        manifest = manifest_mod.load_shard_manifest(directory)
        per_shard_cache = cache_bytes // max(manifest.num_shards, 1)
        shards: list[HerculesIndex] = []
        row_bases: list[int] = []
        try:
            for record in manifest.shards:
                if verify != "off":
                    manifest_mod.verify_shard_record(directory, record)
                try:
                    shard = HerculesIndex.open(
                        directory / record.name,
                        verify=verify,
                        cache_bytes=per_shard_cache,
                    )
                except ReproError as exc:
                    raise type(exc)(f"shard {record.name}: {exc}") from exc
                shards.append(shard)
                row_bases.append(record.row_base)
            total = sum(shard.num_series for shard in shards)
            if total != manifest.num_series:
                raise ManifestError(
                    f"shards hold {total} series but SHARDS.json records "
                    f"{manifest.num_series}: mixed generations"
                )
            expected_base = 0
            for record in manifest.shards:
                if record.row_base != expected_base:
                    raise ManifestError(
                        f"shard {record.name}: row_base {record.row_base} "
                        f"breaks the contiguous position space (expected "
                        f"{expected_base})"
                    )
                expected_base += record.num_series
            config = shards[0].config.with_options(
                num_shards=manifest.num_shards
            )
            pool = None
            if workers is not None and workers > 0:
                specs = [
                    (i, directory / record.name, record.row_base)
                    for i, record in enumerate(manifest.shards)
                ]
                # Shards were just verified above; workers re-open cheaply.
                pool = ShardQueryPool(
                    specs,
                    workers,
                    per_shard_cache,
                    verify="off",
                    max_worker_restarts=config.max_worker_restarts,
                    join_timeout=config.query_join_timeout,
                )
        except BaseException:
            for shard in shards:
                shard.close()
            raise
        return cls(
            directory=directory,
            shards=shards,
            row_bases=row_bases,
            manifest=manifest,
            config=config,
            pool=pool,
        )

    # -- querying ------------------------------------------------------------

    def knn(
        self,
        query: np.ndarray,
        k: int = 1,
        config: Optional[HerculesConfig] = None,
        partial_results: Optional[bool] = None,
    ) -> ShardedQueryAnswer:
        """Exact k-NN, scatter-gather over every shard.

        At ε = 0 value-identical to a single index over the same rows:
        each shard runs the ordinary four-phase search pruning against
        the shared global BSF², and the coordinator keeps the k smallest
        of the union.  This is the Q = 1 call of the scatter
        :meth:`knn_batch` uses.

        Shard failures are retried per the configuration's
        :meth:`~repro.core.config.HerculesConfig.retry_policy`.  A shard
        that still fails raises :class:`ShardError` naming it — an exact
        query refuses to silently degrade — unless ``partial_results``
        (argument, else ``config.partial_results``) allows dropping it,
        in which case the answer comes back with ``degraded=True``,
        ``coverage`` < 1 and the dropped shards in ``shard_errors``.  Any
        other exception (a bad argument) propagates unretried.
        """
        self._check_open()
        query = as_series(query, self.series_length)
        return self._scatter(query[None], k, "knn", config, partial_results)[0]

    def knn_approx(
        self,
        query: np.ndarray,
        k: int = 1,
        l_max: Optional[int] = None,
        partial_results: Optional[bool] = None,
    ) -> ShardedQueryAnswer:
        """Approximate k-NN: each shard's best-first probe, merged.

        ``l_max`` bounds the leaves visited *per shard*, so an N-shard
        approximate search examines up to N·l_max leaves total — more
        work than a single index at the same setting, and at least as
        good an answer.  Failure handling matches :meth:`knn`.
        """
        self._check_open()
        query = as_series(query, self.series_length)
        config = self.config if l_max is None else self.config.with_options(l_max=l_max)
        return self._scatter(
            query[None], k, "knn_approx", config, partial_results
        )[0]

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int = 1,
        config: Optional[HerculesConfig] = None,
        partial_results: Optional[bool] = None,
    ) -> BatchAnswer:
        """Exact k-NN for a whole query batch: one scatter per shard.

        Each shard answers the complete batch through its own
        :meth:`HerculesIndex.knn_batch` (one shared refinement walk,
        multi-query kernel calls) in a single dispatch — one pool
        round-trip per worker per batch instead of one per query — and
        per-query BSF² bounds broadcast across shards through one shared
        cell per query, so a tight bound found by any shard prunes that
        query everywhere without ever crossing queries.  At ε = 0 the
        merged answers are per-query value-identical to :meth:`knn`; at
        ε > 0 they meet the same (1 + ε) guarantee but may differ from
        it, as :meth:`HerculesIndex.knn_batch` does.  Batches larger
        than the pool's BSF-vector capacity are chunked transparently.

        Returns a :class:`~repro.core.batch_query.BatchAnswer` whose
        entries are :class:`ShardedQueryAnswer`s (list-compatible with
        the serial loop this replaces) and whose ``stats`` aggregate the
        shards' leaf-sharing metrics.  Failure policy matches
        :meth:`knn`, applied batch-wide: a dropped shard degrades every
        query in the batch (same coverage), a refused degradation
        raises for the whole batch.
        """
        self._check_open()
        arr = as_series(queries, self.series_length, ndim=2)
        if arr.shape[0] == 0:
            return BatchAnswer([], BatchStats())
        limit = (
            self._pool.batch_capacity
            if self._pool is not None
            else arr.shape[0]
        )
        answers: list = []
        stats = BatchStats(num_queries=arr.shape[0])
        for start in range(0, arr.shape[0], limit):
            batch = self._scatter(
                arr[start : start + limit],
                k,
                "knn_batch",
                config,
                partial_results,
            )
            answers.extend(batch.answers)
            _add_stats(stats, batch.stats)
            stats.total_seconds += batch.stats.total_seconds
        return BatchAnswer(answers, stats)

    def _scatter(
        self,
        queries: np.ndarray,
        k: int,
        mode: str,
        config: Optional[HerculesConfig],
        partial_results: Optional[bool],
    ) -> BatchAnswer:
        """Scatter a ``(Q, n)`` block, gather, then apply the failure policy.

        ``mode`` is the public call being served (``"knn"``,
        ``"knn_approx"`` or ``"knn_batch"``); every shard answers it
        through :func:`~repro.core.shard_worker.answer_shard`, in a pool
        worker or inline on the calling thread (:meth:`_scatter_inline`).
        """
        effective = config if config is not None else self.config
        policy = effective.retry_policy()
        allow_partial = (
            partial_results
            if partial_results is not None
            else effective.partial_results
        )
        started = time.perf_counter()
        if self._pool is not None:
            outcome = self._pool.query(queries, k, mode, config, policy)
        else:
            outcome = self._scatter_inline(queries, k, mode, config, policy)
        wall = time.perf_counter() - started
        return self._settle(queries.shape[0], k, outcome, allow_partial, wall)

    def _settle(
        self,
        num_queries: int,
        k: int,
        outcome: GatherOutcome,
        allow_partial: bool,
        wall: float,
    ) -> BatchAnswer:
        """Turn a raw gather outcome into per-query answers or a refusal.

        Without partial-results the first failed shard raises (a
        :class:`ShardTimeoutError` stays one); with it, failed shards
        are dropped and every answer is flagged degraded with
        ``coverage`` equal to the searched row fraction.  Losing *every*
        shard always raises — an empty answer is not a degraded answer.

        Each query is merged by :func:`_merge_pairs` over its per-shard
        answers; wall time is amortized evenly, and the scatter's
        dispatch retries are attributed to the first query so
        workload-level retry counts stay accurate.  Shard-level
        :class:`BatchStats` (leaf reads and uses, kernel rows, screen
        time) sum across shards.
        """
        coverage = self._degrade_or_raise(outcome, allow_partial)
        degraded = bool(outcome.shard_errors)
        shard_errors = tuple(
            (sid, _first_line(reason))
            for sid, reason in outcome.shard_errors
        )
        per_query_wall = wall / num_queries
        merged = []
        for qi in range(num_queries):
            obs.observe_query(
                per_query_wall, coverage=coverage, degraded=degraded
            )
            merged.append(
                _merge_pairs(
                    k,
                    [(sid, batch[qi]) for sid, batch in outcome.pairs],
                    self.num_leaves,
                    self.num_series,
                    per_query_wall,
                    coverage=coverage,
                    shard_errors=shard_errors,
                    retries=outcome.retries if qi == 0 else 0,
                )
            )
        stats = BatchStats(num_queries=num_queries, total_seconds=wall)
        for _, batch in outcome.pairs:
            _add_stats(stats, batch.stats)
        return BatchAnswer(merged, stats)

    def _degrade_or_raise(
        self, outcome: GatherOutcome, allow_partial: bool
    ) -> float:
        """Apply the failure policy; returns coverage or raises."""
        if outcome.shard_errors:
            names = sorted(sid for sid, _ in outcome.shard_errors)
            detail = "; ".join(
                f"shard {sid}: {reason}" for sid, reason in outcome.shard_errors
            )
            if not allow_partial:
                exc_type = (
                    ShardTimeoutError
                    if all(
                        "timeout" in reason or "deadline" in reason
                        for _, reason in outcome.shard_errors
                    )
                    else ShardError
                )
                raise exc_type(
                    f"shard(s) {names} failed after retries and "
                    "partial results are not allowed "
                    f"(pass partial_results=True to degrade): {detail}"
                )
            if not outcome.pairs:
                raise ShardError(
                    f"every shard failed; nothing to answer from: {detail}"
                )
            logger.warning(
                "degraded answer: dropped shard(s) %s after %d retries: %s",
                names, outcome.retries, detail,
            )
        coverage = self._coverage(outcome.pairs)
        if outcome.shard_errors:
            with obs.span(
                "query.degraded",
                coverage=round(coverage, 6),
                dropped=[sid for sid, _ in outcome.shard_errors],
            ):
                pass
            for sid, reason in outcome.shard_errors:
                obs.emit_event(
                    "shard_dropped", shard=sid, reason=_first_line(reason)
                )
            obs.emit_event(
                "query_degraded",
                coverage=round(coverage, 6),
                dropped=[sid for sid, _ in outcome.shard_errors],
                retries=outcome.retries,
            )
        return coverage

    def _coverage(self, pairs: list) -> float:
        """Fraction of indexed series the answering shards hold."""
        if not self.num_series:
            return 1.0
        answered = {shard_id for shard_id, _ in pairs}
        covered = sum(
            record.num_series
            for shard_id, record in enumerate(self.manifest.shards)
            if shard_id in answered
        )
        return covered / self.num_series

    def _scatter_inline(
        self,
        queries: np.ndarray,
        k: int,
        mode: str,
        config: Optional[HerculesConfig],
        policy: RetryPolicy,
    ) -> GatherOutcome:
        """Answer the ``(Q, n)`` block shard after shard on the calling thread.

        Every query gets its own :class:`SharedBsf` cell, so each shard
        starts from the bounds the shards before it found, bounds never
        leak between queries, and every per-shard counter is
        deterministic.  A shard is retried per ``policy`` on
        :data:`~repro.core.shard_worker.RETRYABLE` faults only; anything
        else (a bad argument) propagates.  ``policy.deadline`` is checked
        before each attempt: a shard not started in time is reported as
        past the deadline, and a retry it cuts off leaves the shard's
        last fault as the reason.  A running attempt is never
        interrupted, so ``shard_timeout`` only stops the retries of an
        attempt that overran it; the process pool enforces both bounds
        preemptively.
        """
        links = [SharedBsf() for _ in range(queries.shape[0])]
        outcome = GatherOutcome()
        started = time.monotonic()
        with obs.span(
            "query.sharded", k=k, shards=len(self.shards), mode=mode, queries=len(links)
        ):
            for shard_id, shard in enumerate(self.shards):
                reason = None
                for attempt in range(1, policy.attempts + 1):
                    if policy.past_deadline(started):
                        reason = reason or (
                            f"shard {shard_id} ran past the "
                            f"{policy.deadline:.2f}s query deadline"
                        )
                        break
                    if attempt > 1:
                        outcome.retries += 1
                    attempt_started = time.monotonic()
                    try:
                        with obs.span("query.shard", shard=shard_id, queries=len(links)):
                            batch = answer_shard(
                                shard, queries, k, mode, config, links, self.row_bases[shard_id]
                            )
                    except RETRYABLE as exc:
                        reason = f"{type(exc).__name__}: {exc} (after {attempt} attempts)"
                        if policy.shard_timeout is not None and (
                            time.monotonic() - attempt_started >= policy.shard_timeout
                        ):
                            break
                        if attempt < policy.attempts:
                            with obs.span("shard.retry", shard=shard_id, attempt=attempt):
                                time.sleep(policy.delay(attempt, key=f"shard-{shard_id}"))
                    else:
                        outcome.pairs.append((shard_id, batch))
                        reason = None
                        break
                if reason is not None:
                    outcome.shard_errors.append((shard_id, reason))
        return outcome

    def get_series(self, position: int) -> np.ndarray:
        """Fetch the raw series at a *global* position."""
        self._check_open()
        if not 0 <= position < self.num_series:
            raise ValueError(
                f"position {position} outside [0, {self.num_series})"
            )
        shard_id = bisect.bisect_right(self.row_bases, position) - 1
        return self.shards[shard_id].get_series(
            position - self.row_bases[shard_id]
        )

    # -- introspection -------------------------------------------------------

    @property
    def num_series(self) -> int:
        return self.manifest.num_series

    @property
    def num_leaves(self) -> int:
        return sum(shard.num_leaves for shard in self.shards)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def series_length(self) -> int:
        return self.manifest.series_length

    @property
    def generation(self) -> int:
        return self.manifest.generation

    def bind_metrics(self, registry) -> None:
        """Attach per-shard leaf-cache gauges (``cache.leaf.shard<i>.*``)."""
        for shard_id, shard in enumerate(self.shards):
            if shard.leaf_cache is not None:
                shard.leaf_cache.bind_registry(
                    registry, prefix=f"cache.leaf.shard{shard_id}"
                )

    def merge_worker_metrics(self, registry) -> None:
        """Fold build-worker registries into ``registry`` as ``shard.<i>.*``.

        Populated only after a multi-process :meth:`build` in this
        session; each worker's counters/gauges/histograms were flushed
        home with the shard's build reply.
        """
        for shard_id, state in enumerate(self._worker_metric_states):
            if state:
                registry.merge_state(state, prefix=f"shard.{shard_id}.")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop workers, release every shard (and the temp dir if ours)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        for shard in self.shards:
            shard.close()
        if self._owns_directory:
            shutil.rmtree(self.directory, ignore_errors=True)

    def _check_open(self) -> None:
        if self._closed:
            raise IndexStateError("sharded index is closed")

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedIndex({len(self.shards)} shards, "
            f"{self.num_series} series, dir={self.directory})"
        )


def open_index(
    directory: Union[str, Path],
    verify: str = "quick",
    cache_bytes: int = 0,
    workers: Optional[int] = None,
) -> Union[HerculesIndex, ShardedIndex]:
    """Open whichever index layout ``directory`` holds.

    A ``SHARDS.json`` marks a sharded directory (→
    :class:`ShardedIndex`); anything else opens as a plain
    :class:`HerculesIndex` (``workers`` is then ignored — there is
    nothing to scatter).
    """
    if manifest_mod.is_sharded_directory(directory):
        return ShardedIndex.open(
            directory, verify=verify, cache_bytes=cache_bytes, workers=workers
        )
    return HerculesIndex.open(directory, verify=verify, cache_bytes=cache_bytes)


def _first_line(text: str) -> str:
    """The first non-empty line of a (possibly multi-line) reason."""
    for line in str(text).splitlines():
        if line.strip():
            return line.strip()
    return str(text)


def record_sharded_profile(
    registry,
    answer: ShardedQueryAnswer,
    num_series: Optional[int] = None,
) -> None:
    """Record a scatter-gather answer: global + per-shard instruments.

    The merged profile lands under the usual ``query.*`` names; each
    shard's own profile additionally lands under
    ``shard.<i>.query.*`` so per-shard skew stays visible.  Resilience
    events ride along — ``query.coverage`` (histogram),
    ``query.degraded`` / ``shard.dropped`` / ``shard.retries``
    (counters) — so no retry or degradation is ever silent.
    """
    obs.record_profile(registry, answer.profile, num_series=num_series)
    registry.histogram("query.coverage").observe(answer.coverage)
    if answer.retries:
        registry.counter("shard.retries").inc(answer.retries)
    if answer.degraded:
        registry.counter("query.degraded").inc()
        registry.counter("shard.dropped").inc(len(answer.shard_errors))
    for shard_id, shard_answer in answer.shard_answers:
        obs.record_profile(
            registry,
            shard_answer.profile,
            prefix=f"shard.{shard_id}.query",
        )


def _prune_stale_shards(directory: Path, num_shards: int) -> None:
    """Remove ``shard-*`` directories beyond the just-committed count."""
    keep = {manifest_mod.shard_dirname(i) for i in range(num_shards)}
    for child in directory.glob("shard-*"):
        if child.is_dir() and child.name not in keep:
            shutil.rmtree(child, ignore_errors=True)
