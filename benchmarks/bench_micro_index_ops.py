"""Micro-benchmarks of index-level operations.

Not a paper figure: construction throughput of each index, the cost of
a single Hercules query phase pipeline, and of one vectored extent read,
measured in isolation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import DSTreeConfig, DSTreeIndex, ParisConfig, ParisIndex
from repro.core import HerculesConfig, HerculesIndex
from repro.storage.files import SeriesFile
from repro.workloads.generators import random_walks

from .conftest import scaled


@pytest.fixture(scope="module")
def corpus():
    return random_walks(scaled(5_000), 64, seed=3)


@pytest.fixture(scope="module")
def queries():
    return random_walks(5, 64, seed=4)


def _hercules_config(num_series: int) -> HerculesConfig:
    return HerculesConfig(
        leaf_capacity=100,
        db_size=512,
        l_max=4,
    )


def test_build_hercules(benchmark, corpus):
    def build():
        index = HerculesIndex.build(corpus, _hercules_config(corpus.shape[0]))
        index.close()

    benchmark.pedantic(build, rounds=3, iterations=1)


def test_build_dstree(benchmark, corpus):
    def build():
        index = DSTreeIndex.build(corpus, DSTreeConfig(leaf_capacity=100))
        index.close()

    benchmark.pedantic(build, rounds=3, iterations=1)


def test_build_paris(benchmark, corpus):
    def build():
        ParisIndex.build(corpus, ParisConfig(leaf_capacity=20))

    benchmark.pedantic(build, rounds=3, iterations=1)


def test_hercules_query(benchmark, corpus, queries):
    index = HerculesIndex.build(corpus, _hercules_config(corpus.shape[0]))

    def run():
        for query in queries:
            index.knn(query, k=10)

    benchmark.pedantic(run, rounds=3, iterations=1)
    index.close()


@pytest.mark.parametrize("runs", [1, 500], ids=lambda runs: f"{runs} runs")
def test_read_range_extents(benchmark, tmp_path, runs):
    """One ``read_range`` call over 500 one-series extents (phase 4's
    SCList shape): all file-adjacent (one read), or none (500 reads)."""
    data = random_walks(1_000, 256, seed=5)
    path = tmp_path / "lrd.bin"
    data.tofile(path)
    positions = np.arange(500, dtype=np.int64) * (1 if runs == 1 else 2)
    counts = np.ones_like(positions)
    out = np.empty((500, 256), dtype=np.float32)
    with SeriesFile(path, 256, read_only=True) as lrd:
        lrd.read_range(positions, counts, out=out)
        assert lrd.stats.snapshot().read_calls == runs
        np.testing.assert_array_equal(out, data[positions])
        benchmark(lrd.read_range, positions, counts, out=out)


def test_dstree_query(benchmark, corpus, queries):
    index = DSTreeIndex.build(corpus, DSTreeConfig(leaf_capacity=100))

    def run():
        for query in queries:
            index.knn(query, k=10)

    benchmark.pedantic(run, rounds=3, iterations=1)
    index.close()
