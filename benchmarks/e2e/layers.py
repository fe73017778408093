"""Per-layer metrics: the traced pass, the TLB measures and the probes.

Everything here runs in the serve child *after* the timed rounds and the
peak-RSS reading.  Counts come from the engine's public return values
(``QueryProfile``, ``IOSnapshot``, ``BatchStats``, ``shard_answers``);
times are self times of the spans ``tracing`` records.  Pool workers are
separate processes the wrappers cannot reach: for the sharded workload
the in-worker layers are read from each shard's ``QueryProfile`` and the
span-timed ones stay 0 apart from the coordinator's own.
"""

from __future__ import annotations

import time
from functools import reduce
from pathlib import Path

import numpy as np

from repro import Dataset, obs, open_index
from repro.baselines import SerialScan
from repro.core.writing import LSD_FILENAME
from repro.storage import IOSnapshot, SymbolFile
from repro.summarization.eapca import SeriesSketch
from repro.summarization.paa import paa

from benchmarks.e2e import hostspeed, tracing

clock = time.perf_counter

#: Queries of the TLB measures, the scan baseline and the side probes.
TLB_QUERIES = 16
SCAN_QUERIES = 8
CACHE_PROBE_QUERIES = 25
SIDE_PROBE_QUERIES = 32
SERIAL_LOOP_QUERIES = 64

_PATHS = {
    "query.path_approx_only": "approx-only",
    "query.path_four_phase": "full-four-phase",
    "query.path_eapca_skipseq": "eapca-skipseq",
    "query.path_sax_skipseq": "sax-skipseq",
}


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _side_pass(session, walls: np.ndarray, calls: list, timed_factor: float, answer=None) -> tuple:
    """One extra pass over ``calls``: ``(overhead, call walls, answers)``.

    ``overhead`` is the pass's wall over the untraced wall of the same
    calls, minus 1, both host-normalised.  A side pass runs once, so it
    is set against the typical round (per-call median over the R timed
    rounds): against a best-of-R it would read host noise as overhead.
    """
    samples: list = []
    call_walls, answers = session.run_round(calls, answer, samples)
    factor = hostspeed.factor(samples)
    typical = float(np.median(walls[:, : len(calls)], axis=0).sum())
    overhead = (float(call_walls.sum()) / factor) / (typical / timed_factor) - 1.0
    return overhead, call_walls, answers


def traced_pass(session, walls: np.ndarray, trace_path: Path, result: dict) -> tuple:
    """One round with the layer wrappers installed; fills ``result``.

    Returns the pass's ``(calls, answers)`` so the oracle checks them
    like any timed round.
    """
    workload, index = session.workload, session.index
    calls = session.calls_covering(workload.traced_queries)
    num_queries = sum(len(ids) for ids in calls)
    sharded = workload.shards > 1
    recorder = tracing.Recorder()

    def answer(ids):
        recorder.query = int(ids[0])
        return session.answer(ids)

    io_before = None if sharded else index.query_io.snapshot()
    with tracing.installed(recorder):
        overhead, call_walls, answers = _side_pass(
            session, walls, calls, result["harness.host_factor"], answer
        )
    tracing.write_chrome_trace(recorder.spans, trace_path)
    table = tracing.layer_table(recorder.spans)
    served = [a for call in answers if call is not None for a in call]
    profiles = [a.profile for a in served]
    # What ran inside the search: the merged profile hides the path, the
    # per-shard ones carry it.
    searches = (
        [shard.profile for a in served for _, shard in a.shard_answers]
        if sharded
        else profiles
    )
    if sharded:
        io = reduce(lambda a, b: a + b, (p.io for p in profiles), IOSnapshot())
    else:
        io = index.query_io.snapshot() - io_before

    def self_ms(*names) -> float:
        return sum(table.get(n, (0, 0.0))[1] for n in names) * 1e3 / num_queries

    def calls_per_query(name) -> float:
        return table.get(name, (0, 0.0))[0] / num_queries

    traced_seconds = float(call_walls.sum())
    kernel_seconds = table.get("distance.kernel", (0, 0.0))[1]
    points = sum(p.points_compared for p in profiles)
    points_total = sum(p.points_total for p in profiles)
    screened = sum(p.prefilter_screened for p in profiles)
    result.update({
        "harness.trace_overhead_fraction": overhead,
        "harness.traced_ms_per_query": traced_seconds * 1e3 / num_queries,
        "harness.traced_queries": num_queries,
        "prefilter.screen_ms_per_query": self_ms("prefilter.screen", "prefilter.screen_batch"),
        "prefilter.pruned_fraction": (
            1.0 - sum(p.prefilter_survivors for p in profiles) / screened if screened else 0.0
        ),
        "distance.lb_eapca_ms_per_query": self_ms("distance.lb_eapca"),
        "distance.lb_eapca_calls_per_query": calls_per_query("distance.lb_eapca"),
        "distance.kernel_ms_per_query": self_ms("distance.kernel"),
        "distance.kernel_rows_per_query": (
            sum(p.distance_computations for p in profiles) / num_queries
        ),
        "distance.kernel_mpoints_per_s": (
            points / kernel_seconds / 1e6 if kernel_seconds else 0.0
        ),
        "distance.abandoned_fraction": 1.0 - points / points_total if points_total else 0.0,
        "storage.read_ms_per_query": self_ms("storage.read", "storage.cache"),
        "storage.read_calls_per_query": io.read_calls / num_queries,
        "storage.bytes_read_per_query": io.bytes_read / num_queries,
        "storage.random_seeks_per_query": io.random_seeks / num_queries,
        "storage.data_accessed_fraction": (
            sum(p.series_accessed for p in profiles) / (num_queries * index.num_series)
        ),
        "summarization.sketch_ms_per_query": self_ms("summarization.sketch"),
        "summarization.mindist_ms_per_query": self_ms("summarization.mindist"),
        "results.update_ms_per_query": self_ms("results.update", "results.items"),
        "results.update_calls_per_query": calls_per_query("results.update"),
        "query.phase1_approx_ms": _mean(p.time_approx for p in profiles) * 1e3,
        "query.phase2_candidates_ms": _mean(p.time_candidates for p in profiles) * 1e3,
        "query.refine_ms": _mean(p.time_refine for p in profiles) * 1e3,
        "query.glue_ms_per_query": self_ms("query.exact_knn"),
        "query.eapca_pruning": _mean(p.eapca_pruning for p in profiles),
        "query.sax_pruning": _mean(
            p.sax_pruning for p in profiles if p.sax_pruning is not None
        ),
        "query.candidate_leaves_per_query": (
            sum(p.candidate_leaves for p in profiles) / num_queries
        ),
        "batch.screen_ms_per_query": self_ms("prefilter.screen_batch"),
        "batch.glue_ms_per_query": self_ms("batch.exact_knn_batch"),
    })
    for name, path in _PATHS.items():
        result[name] = _mean(p.path == path for p in searches)
    if workload.batch_size:
        stats = [call.stats for call in answers if call is not None]
        reads = sum(s.unique_leaf_reads for s in stats)
        result.update({
            "batch.leaf_share_factor": sum(s.leaf_uses for s in stats) / reads if reads else 0.0,
            "batch.kernel_rows_per_read": sum(s.kernel_rows for s in stats) / reads if reads else 0.0,
            "batch.unique_leaf_reads_per_batch": reads / len(stats) if stats else 0.0,
        })
    if sharded:
        slowest = [
            max(shard.profile.time_total for _, shard in a.shard_answers) for a in served
        ]
        result.update({
            "sharding.scatter_overhead_ms": _mean(
                wall - slow for wall, slow in zip(call_walls, slowest)
            ) * 1e3,
            "sharding.slowest_shard_ms": _mean(slowest) * 1e3,
            "sharding.shard_imbalance": _mean(
                slow / _mean(shard.profile.time_total for _, shard in a.shard_answers)
                for slow, a in zip(slowest, served)
            ),
            "sharding.retries": sum(a.retries for a in served),
        })
    return calls, answers


def _parts(index) -> list:
    """``(plain index, global position of its first row)`` per shard."""
    shards = getattr(index, "shards", None)
    return list(zip(shards, index.row_bases)) if shards else [(index, 0)]


def tightness(index, queries: np.ndarray, result: dict) -> None:
    """Tightness of each tier's lower bound (Lernaean Hydra's TLB).

    The mean over (query, series) pairs of lower bound / true distance,
    where a leaf's LB_EAPCA stands for every series stored in it.
    Computed from public state only, outside any timing.
    """
    length = index.series_length
    total = index.num_series
    rows = np.stack([index.get_series(p) for p in range(total)]).astype(np.float64)
    parts = []
    for part, base in _parts(index):
        with SymbolFile(
            part.directory / LSD_FILENAME, part.sax_space.segments, read_only=True
        ) as lsd:
            parts.append((part, base, lsd.read_all()))
    bounds = {
        "distance.tlb_eapca": np.empty(total),
        "summarization.tlb_sax": np.empty(total),
        "prefilter.tlb_signature": np.empty(total),
    }
    sums = dict.fromkeys(bounds, 0.0)
    pairs = 0
    for query in queries:
        query = query.astype(np.float64)
        true = np.sqrt(np.square(rows - query).sum(axis=1))
        sketch = SeriesSketch(query)
        for part, base, words in parts:
            span = slice(base, base + part.num_series)
            query_paa = paa(query, part.sax_space.segments)
            for leaf in part.leaves:
                start = base + leaf.file_position
                bounds["distance.tlb_eapca"][start : start + leaf.size] = (
                    leaf.lower_bound(sketch)
                )
            bounds["summarization.tlb_sax"][span] = part.sax_space.mindist(
                query_paa, words, length
            )
            bounds["prefilter.tlb_signature"][span] = part.signatures.lower_bounds(
                query_paa, length
            )
        valid = true > 0.0
        pairs += int(valid.sum())
        for name, lower in bounds.items():
            sums[name] += float((lower[valid] / true[valid]).sum())
    for name, value in sums.items():
        result[name] = value / pairs
    result["prefilter.memory_mb"] = sum(
        part.signatures.memory_bytes for part, _, _ in parts
    ) / 2**20


def _serial(session, index=None, config=None):
    """A one-``knn``-per-call answer function for the side probes."""
    index = index if index is not None else session.index
    config = config if config is not None else session.config

    def answer(ids):
        return [index.knn(session.queries[ids[0]], k=session.workload.k, config=config)]

    return answer


def _probe_walls(session, calls: list, answer) -> np.ndarray:
    """Call walls of one probe pass; unlike a timed round, a probe whose
    call raises has measured nothing and fails the run."""
    walls, answers = session.run_round(calls, answer)
    if any(call is None for call in answers):
        raise RuntimeError("a probe call raised (traceback above)")
    return walls


def _ms_per_query(walls: np.ndarray) -> float:
    return float(walls.mean()) * 1e3


def probes(session, dataset_path: Path, walls: np.ndarray, open_seconds: float, result: dict) -> None:
    """Side measurements no timed round takes; each fills its metrics."""
    workload, index = session.workload, session.index
    directory = index.directory
    single = [np.array([i]) for i in range(session.queries.shape[0])]
    tightness(index, session.queries[:TLB_QUERIES], result)

    calls = session.calls_covering(workload.traced_queries)
    with obs.use_trace(obs.Trace()):
        result["obs.trace_overhead_fraction"], _, _ = _side_pass(
            session, walls, calls, result["harness.host_factor"]
        )

    with Dataset.open(dataset_path, index.series_length) as dataset:
        scan = SerialScan(dataset)
        scan_walls = _probe_walls(
            session,
            single[:SCAN_QUERIES],
            lambda ids: [scan.knn(session.queries[ids[0]], k=workload.k)],
        )
    result["baselines.scan_ms_per_query"] = _ms_per_query(scan_walls)

    started = clock()
    open_index(directory, verify="full").close()
    result["storage.verify_full_ms"] = (clock() - started) * 1e3

    if "leaf-cache" in workload.probes:
        raw_bytes = index.num_series * index.series_length * 4
        for label, budget in (("fits", 2 * raw_bytes), ("small", raw_bytes // 4)):
            with open_index(directory, cache_bytes=budget) as cached:
                answer = _serial(session, index=cached)
                _probe_walls(session, single[:CACHE_PROBE_QUERIES], answer)
                again = _probe_walls(session, single[:CACHE_PROBE_QUERIES], answer)
                snapshot = cached.leaf_cache.snapshot()
            result[f"storage.cache_hit_rate_{label}"] = snapshot.hit_rate
            result[f"storage.cache_evictions_{label}"] = snapshot.evictions
            result[f"storage.cache_ms_per_query_{label}"] = _ms_per_query(again)

    if workload.batch_size:
        # The same leading queries one knn at a time, against the typical
        # (per-call median) batch round over exactly those queries.
        loop = single[:SERIAL_LOOP_QUERIES]
        loop_walls = _probe_walls(session, loop, _serial(session))
        batch_calls = len(session.calls_covering(len(loop)))
        result["batch.speedup_vs_serial"] = float(
            loop_walls.sum() / np.median(walls[:, :batch_calls], axis=0).sum()
        )
        two_threads = session.config.with_options(num_query_threads=2)
        threaded_walls = _probe_walls(
            session, single[:SIDE_PROBE_QUERIES], _serial(session, config=two_threads)
        )
        result["query.threads2_ratio"] = float(
            threaded_walls.sum() / loop_walls[:SIDE_PROBE_QUERIES].sum()
        )

    if workload.shards > 1:
        started = clock()
        with open_index(directory) as threaded:
            thread_open_seconds = clock() - started
            thread_walls = _probe_walls(
                session, single[:SIDE_PROBE_QUERIES], _serial(session, index=threaded)
            )
        result["sharding.thread_scatter_ms_per_query"] = _ms_per_query(thread_walls)
        result["sharding.pool_start_ms"] = (open_seconds - thread_open_seconds) * 1e3
