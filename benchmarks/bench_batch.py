"""Batched multi-query engine benchmark: one walk for a whole workload.

Not a paper figure: this pins the perf properties of
``repro.core.batch_query`` — answering a Q-query workload with one
(Q x nodes) bound pass and one refinement walk (one read and one
multi-query kernel call per chunk) instead of Q independent searches —

* at Q = 64 the batched workload completes at >= 1.65x the serial loop's
  throughput on the same index (1.67-2.08x measured),
* the walk reads far fewer leaves than its queries refine from in
  total (the leaf-share factor), and the batched call reads no more
  bytes from LRDFile than the serial loop,
* every per-query answer is bit-for-bit the serial answer, and
* the call's tracemalloc peak (``batch_traced_peak_mb``, gated by
  ``bench-diff`` as a lower-is-better count) stays what the front
  half's query slices and the walk's file windows bound it to.

Both arms query the *same* materialized index, single-threaded, so the
work counters are deterministic and the JSON artifact diffs cleanly
against the committed baseline.  Run with
``REPRO_BENCH_JSON=BENCH_batch.json`` to dump the measured numbers;
wall-clock ratios carry ``speedup`` in their key so ``bench-diff``
skips them across machines.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.core import HerculesIndex
from repro.eval.experiments import ExperimentResult
from repro.eval.methods import hercules_config
from repro.eval.metrics import run_workload
from repro.workloads.generators import make_noise_queries, random_walks

from .conftest import record_table, scaled

#: Long series and a large k make refinement (raw reads + exact
#: distances) the dominant cost, which is where shared chunk reads and
#: multi-query kernel calls win; the medium-noise workload keeps lower-bound
#: pruning realistic rather than degenerate.
_LENGTH = 256
_NUM_QUERIES = 64
_K = 100


@pytest.fixture(scope="module")
def data():
    return random_walks(scaled(4_000), _LENGTH, seed=13)


@pytest.fixture(scope="module")
def queries(data):
    """Medium-difficulty queries with realistic locality: noisy copies
    of indexed rows cluster around the same subtrees, so consecutive
    workload queries genuinely share leaves."""
    return make_noise_queries(data, _NUM_QUERIES, 0.5, seed=11)


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("bench-batch") / "hercules"
    config = hercules_config(data.shape[0])
    HerculesIndex.build(data, config, directory=directory).close()
    return directory


def _timed_workloads(method, queries, k, num_series, repeats=14):
    """``{batched: (best wall seconds, last WorkloadResult)}`` for the
    serial and the batched arm, run alternately ``repeats`` times.

    Alternating gives both arms the same host state, and fourteen rounds
    outlast the one thing that differs between them: the batched arm's
    gemm is the process's first multi-threaded BLAS call, and on a
    two-vCPU host whose second core sat idle every such call costs a
    scheduler tick (8 ms) until the core is awake — seven to eight of
    these 0.3 s rounds after a 30 s pause (3 of 3: rounds 0-7 read
    serial 2.9 / batched 2.0 ms per query, rounds 8-13 2.2 / 1.23).
    """
    best = {False: float("inf"), True: float("inf")}
    result = {}
    for _ in range(repeats):
        for batched in (False, True):
            started = time.perf_counter()
            result[batched] = run_workload(
                method, queries, k=k, num_series=num_series, batched=batched
            )
            best[batched] = min(best[batched], time.perf_counter() - started)
    return {batched: (best[batched], result[batched]) for batched in best}


def test_batched_workload(index_dir, data, queries):
    index = HerculesIndex.open(index_dir)
    try:
        num_series = data.shape[0]
        timed = _timed_workloads(index, queries, _K, num_series)
        serial_seconds, serial = timed[False]
        batch_seconds, batched = timed[True]
        speedup = serial_seconds / batch_seconds

        # One more batch for the sharing stats, the parity gate, the
        # call's traced memory peak and its LRDFile reads.
        io_before = index.query_io.snapshot()
        tracemalloc.start()
        try:
            batch = index.knn_batch(queries, k=_K)
            traced_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        batch_bytes = (index.query_io.snapshot() - io_before).bytes_read
        stats = batch.stats

        result = ExperimentResult(
            figure="bench_batch",
            headers=[
                "scenario",
                "queries",
                "leaf_reads",
                "leaf_uses",
                "share",
                "ms_per_query",
            ],
        )
        result.rows.append(
            [
                "serial",
                _NUM_QUERIES,
                "-",
                "-",
                "-",
                serial_seconds / _NUM_QUERIES * 1e3,
            ]
        )
        result.rows.append(
            [
                "batched",
                _NUM_QUERIES,
                stats.unique_leaf_reads,
                stats.leaf_uses,
                f"{stats.leaf_share_factor:.2f}x",
                batch_seconds / _NUM_QUERIES * 1e3,
            ]
        )
        result.raw = {
            "serial": serial,
            "batched": batched,
            "workload_speedup": speedup,
            "leaf_share_factor": stats.leaf_share_factor,
            "unique_lrd_reads": int(stats.unique_leaf_reads),
            "leaf_uses": int(stats.leaf_uses),
            "kernel_rows_per_read": stats.kernel_rows_per_read,
            "screen_ms_per_query": stats.screen_seconds_per_query * 1e3,
            "batch_traced_peak_mb": traced_peak / 1e6,
        }
        record_table(
            "Batched multi-query engine: shared scans vs the serial loop",
            result,
        )

        # -- parity: batching must never change an answer ------------------
        io_before = index.query_io.snapshot()
        references = [index.knn(query, k=_K) for query in queries]
        serial_bytes = (index.query_io.snapshot() - io_before).bytes_read
        for reference, answer in zip(references, batch):
            assert np.array_equal(reference.distances, answer.distances)
            assert np.array_equal(reference.positions, answer.positions)

        # The perf properties this PR claims, pinned as assertions.
        assert stats.leaf_share_factor > 1.0, (
            f"no leaf sharing at Q={_NUM_QUERIES} "
            f"({stats.unique_leaf_reads} reads, {stats.leaf_uses} uses)"
        )
        # Physical reads, not the profiles' ``series_accessed``: a query
        # whose leaves the shared walk reads anyway skips the LB_SAX pass
        # and is charged every row of them, though no extra byte is read.
        assert batch_bytes <= serial_bytes, (
            "the batched call read more from LRDFile than the serial loop "
            f"({batch_bytes} vs {serial_bytes} bytes)"
        )
        # Both arms run the same screening kernel on 1 024-row chunks, so
        # what batching adds is the shared reads, the one bound pass and
        # one kernel call per chunk for all its queries, at a fixed number
        # of NumPy calls per chunk whatever Q is.  Twenty-four runs on a
        # 2-vCPU x86 container: 1.674, 1.730, 1.733, 1.735, 1.740, 1.750,
        # 1.757, 1.768, 1.789, 1.795, 1.796, 1.796, 1.807, 1.812, 1.834,
        # 1.835, 1.836, 1.840, 1.842, 1.845, 1.859, 1.884, 1.916 and
        # 2.082x (median 1.80x).  The floor sits just under the lowest
        # run.  Phase 1 reads per query, unshared, since the batch refines
        # through the serial walk.  Since queries whose leaves the walk
        # reads anyway skip the LB_SAX pass, with one BLAS thread (as CI
        # runs it): 2.49-2.62x alone and 2.44-2.47x beside an
        # end-to-end benchmark on the other vCPU (2.19-2.98x with
        # threaded BLAS there).
        assert speedup >= 1.65, (
            f"batched workload only {speedup:.2f}x the serial loop "
            f"at Q={_NUM_QUERIES}"
        )
    finally:
        index.close()
