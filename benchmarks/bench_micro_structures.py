"""Micro-benchmarks of structural operations.

Not a paper figure: split-policy selection, HTree serialization, HBuffer
throughput, and result-set maintenance — the fixed costs underneath
index construction and query answering.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.buffers import HBuffer
from repro.core.results import ResultSet
from repro.core.split import choose_split
from repro.storage.htree import load_tree, save_tree
from repro.summarization.eapca import Segmentation
from repro.workloads.generators import random_walks


def test_choose_split_100x128(benchmark):
    data = random_walks(100, 128, seed=7)
    seg = Segmentation.uniform(128, 8)
    benchmark(choose_split, seg, data)


def test_choose_split_h_only(benchmark):
    data = random_walks(100, 128, seed=7)
    seg = Segmentation.uniform(128, 8)
    benchmark(choose_split, seg, data, False, True)


def test_htree_roundtrip(benchmark, tmp_path):
    from repro import HerculesConfig, HerculesIndex

    data = random_walks(2_000, 64, seed=8)
    index = HerculesIndex.build(
        data,
        HerculesConfig(
            leaf_capacity=50
        ),
    )
    path = tmp_path / "tree.bin"

    def roundtrip():
        save_tree(path, index.root, {"n": 2000})
        load_tree(path)

    benchmark.pedantic(roundtrip, rounds=5, iterations=1)
    index.close()


def test_hbuffer_store_throughput(benchmark):
    rows = random_walks(1_000, 64, seed=9)

    def fill():
        buffer = HBuffer(capacity=1_000, series_length=64)
        for row in rows:
            buffer.store(row)

    benchmark.pedantic(fill, rounds=5, iterations=1)


def test_result_set_updates(benchmark):
    rng = np.random.default_rng(10)
    distances = rng.uniform(0, 100, size=5_000)
    positions = np.arange(5_000)

    def run():
        results = ResultSet(100)
        results.update_batch_squared(np.square(distances), positions)

    benchmark(run)
