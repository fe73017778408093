"""Shard-scaling benchmark: build throughput and query latency vs N shards.

Not a paper figure: this pins the scatter-gather engine's scaling story.
A single-process Hercules build is GIL-bound outside the NumPy kernels;
``ShardedIndex`` with worker processes is the path past it (the paper's
multi-core numbers assume real parallelism).  The benchmark builds the
same dataset at shard counts 1/2/4 — process workers for N > 1 — then
answers the same queries through each index, recording:

* end-to-end build wall-clock and series/sec (``raw["build/N"]``),
* the throughput ratio vs the single-process baseline
  (``raw["speedup/N"]``) — the number the CI shard-smoke gate reads,
* per-query exact k-NN latency through the scatter-gather path.

Answer parity across shard counts is asserted inline (distances must be
value-identical); byte-level and protocol parity live in
``tests/core/test_sharding.py``.

Speedup is hardware-honest: on a single-core container process workers
cannot beat the baseline (``raw["cpus"]`` records what the run had), so
the CI gate only enforces ``speedup >= 1`` when the runner reports
multiple CPUs.  Run with ``REPRO_BENCH_JSON=BENCH_shard.json`` to dump
the figures as a JSON artifact.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import HerculesConfig, ShardedIndex
from repro.workloads.generators import random_walks

from .conftest import record_table, scaled

#: Per-shard tree knobs: single-threaded shard builds (the processes are
#: the parallelism), everything else at the scaled-experiment defaults.
_BASE = dict(
    leaf_capacity=256,
    db_size=1024,
)

_SHARD_COUNTS = (1, 2, 4)
_NUM_QUERIES = 8
_K = 10


@pytest.fixture(scope="module")
def data():
    return random_walks(scaled(30_000), 64, seed=17)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(23)
    noise = 0.1 * rng.standard_normal((_NUM_QUERIES, data.shape[1]))
    return (data[:: data.shape[0] // _NUM_QUERIES][:_NUM_QUERIES] + noise).astype(
        np.float32
    )


def _build_once(data, directory, num_shards):
    config = HerculesConfig(
        num_shards=num_shards,
        shard_workers=num_shards if num_shards > 1 else None,
        **_BASE,
    )
    started = time.perf_counter()
    index = ShardedIndex.build(data, config, directory=directory)
    return time.perf_counter() - started, index


def _measure_build(data, tmp_path, num_shards, repeats=2):
    """Best-of-N end-to-end build; returns (seconds, opened index)."""
    best, index = float("inf"), None
    for attempt in range(repeats):
        if index is not None:
            index.close()
        directory = tmp_path / f"shards{num_shards}-{attempt}"
        seconds, index = _build_once(data, directory, num_shards)
        best = min(best, seconds)
    return best, index


def _query_latency(index, queries):
    """Median per-query exact k-NN seconds (first pass warms nothing)."""
    laps = []
    for query in queries:
        started = time.perf_counter()
        index.knn(query, k=_K)
        laps.append(time.perf_counter() - started)
    return float(np.median(laps))


def test_shard_scaling(tmp_path, data, queries):
    from repro.eval.experiments import ExperimentResult

    result = ExperimentResult(
        figure="bench_shard",
        headers=[
            "shards",
            "build_s",
            "series_per_s",
            "speedup",
            "query_ms",
        ],
    )
    result.raw["cpus"] = os.cpu_count() or 1

    baseline_sps = None
    reference = None
    for num_shards in _SHARD_COUNTS:
        seconds, index = _measure_build(data, tmp_path, num_shards)
        sps = data.shape[0] / seconds
        if baseline_sps is None:
            baseline_sps = sps
        speedup = sps / baseline_sps
        latency = _query_latency(index, queries)

        answers = [index.knn(q, k=5).distances for q in queries]
        if reference is None:
            reference = answers
        else:  # scatter-gather must be value-identical at every N
            for ref, got in zip(reference, answers):
                np.testing.assert_array_equal(got, ref)
        index.close()

        result.rows.append(
            [
                num_shards,
                round(seconds, 3),
                round(sps, 1),
                round(speedup, 2),
                round(latency * 1e3, 2),
            ]
        )
        result.raw[f"build/{num_shards}"] = {
            "seconds": seconds,
            "series_per_sec": sps,
        }
        result.raw[f"speedup/{num_shards}"] = speedup
        result.raw[f"query_seconds/{num_shards}"] = latency

    record_table(
        "Shard scaling: build throughput and exact-query latency",
        result,
    )
