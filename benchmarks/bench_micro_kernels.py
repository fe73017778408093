"""Micro-benchmarks of the substrate kernels.

Not a paper figure: these measure the building blocks every experiment
rests on (batch ED, early abandoning, LB_EAPCA, LB_SAX/MINDIST, PAA,
SAX symbolization, EAPCA segment statistics) so kernel regressions are
visible independently of the end-to-end harnesses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distance.euclidean import (
    _row_norms,
    batch_squared_euclidean,
    early_abandon_squared,
)
from repro.core.config import HerculesConfig
from repro.core.index import HerculesIndex
from repro.core.prefilter import SignatureArray
from repro.distance.lower_bounds import lb_eapca
from repro.summarization.eapca import BatchSketch, Segmentation, SeriesSketch, segment_stats
from repro.summarization.paa import paa
from repro.summarization.sax import SaxSpace
from repro.workloads.generators import random_walks


@pytest.fixture(scope="module")
def corpus():
    return random_walks(10_000, 128, seed=1)


@pytest.fixture(scope="module")
def query(corpus):
    return random_walks(1, 128, seed=2)[0]


def test_batch_squared_euclidean(benchmark, corpus, query):
    benchmark(batch_squared_euclidean, query, corpus)


@pytest.mark.parametrize("rows_per_call", [64, 256, 1024])
@pytest.mark.parametrize("kernel", ["whole-row", "screen"])
def test_early_abandon_squared(benchmark, corpus, query, kernel, rows_per_call):
    """The corpus in calls of a leaf's, a quarter-chunk's and a refinement
    chunk's worth of rows (``repro.core.query._CHUNK_ROWS`` = 1 024): the
    evidence behind the cap.  Compare the two kernels at equal rows."""
    full = batch_squared_euclidean(query, corpus)
    cutoff = float(np.quantile(full, 0.01)) if kernel == "screen" else np.inf
    blocks = [
        corpus[lo : lo + rows_per_call]
        for lo in range(0, corpus.shape[0], rows_per_call)
    ]
    benchmark.extra_info["points"] = int(corpus.size)
    benchmark(lambda: [early_abandon_squared(query, block, cutoff) for block in blocks])


@pytest.mark.parametrize("rows_per_call", [256, 1024])
@pytest.mark.parametrize("num_queries", [1, 64])
@pytest.mark.parametrize("norms", ["stored", "computed"])
def test_early_abandon_stored_norms(benchmark, corpus, norms, num_queries, rows_per_call):
    """The refinement kernel as the index calls it: each call's row norms
    sliced from a column computed once (an index's ``norms.bin``) against
    computed in the call.  Q = 64 is the block form of a shared batch
    chunk; every query's cutoff is its 1 % quantile over the corpus."""
    queries = random_walks(num_queries, 128, seed=3)
    cutoffs = np.array(
        [np.quantile(batch_squared_euclidean(q, corpus), 0.01) for q in queries]
    )
    column = _row_norms(corpus)
    starts = range(0, corpus.shape[0], rows_per_call)
    blocks = [corpus[lo : lo + rows_per_call] for lo in starts]
    stored = [column[lo : lo + rows_per_call] if norms == "stored" else None for lo in starts]
    query, cutoff = (queries[0], cutoffs[0]) if num_queries == 1 else (queries, cutoffs)
    benchmark.extra_info["points"] = int(corpus.size) * num_queries
    benchmark(
        lambda: [
            early_abandon_squared(query, block, cutoff, norms=block_norms)
            for block, block_norms in zip(blocks, stored)
        ]
    )


def test_paa_16_segments(benchmark, corpus):
    benchmark(paa, corpus, 16)


def test_sax_symbolize(benchmark, corpus):
    space = SaxSpace(16, 256)
    values = paa(corpus, 16)
    benchmark(space.symbolize, values)


def test_sax_mindist_batch(benchmark, corpus, query):
    space = SaxSpace(16, 256)
    words = space.symbolize(paa(corpus, 16))
    q_paa = paa(query, 16)
    benchmark(space.mindist, q_paa, words, 128)


def test_eapca_segment_stats(benchmark, corpus):
    seg = Segmentation.uniform(128, 16)
    benchmark(segment_stats, corpus, seg)


def test_lb_eapca_per_node(benchmark, corpus, query):
    seg = Segmentation([16, 40, 80, 128])
    means, stds = segment_stats(corpus, seg)
    synopsis = np.empty((4, 4))
    synopsis[:, 0] = means.min(axis=0)
    synopsis[:, 1] = means.max(axis=0)
    synopsis[:, 2] = stds.min(axis=0)
    synopsis[:, 3] = stds.max(axis=0)
    sketch = SeriesSketch(query)
    q_means, q_stds = sketch.stats(seg)
    benchmark(lb_eapca, q_means, q_stds, synopsis, seg.lengths)


@pytest.mark.parametrize("num_queries", [1, 64])
def test_lb_eapca_table(benchmark, corpus, num_queries):
    """Every node's bound plus the per-leaf effective max in one array
    pass — compare with ``test_lb_eapca_per_node`` × the node count.  The
    Q = 64 row is the ``knn_batch`` form: divide by 64 and compare with
    the Q = 1 row for its per-query cost."""
    config = HerculesConfig(leaf_capacity=100)
    with HerculesIndex.build(corpus, config) as index:
        table = index._table
        sketch = BatchSketch(random_walks(num_queries, 128, seed=2))
        cumsum, cumsq = sketch.cumsum, sketch.cumsq
        if num_queries == 1:
            cumsum, cumsq = cumsum[0], cumsq[0]
        benchmark.extra_info["nodes"] = len(table.parent)
        benchmark.extra_info["node_segments"] = int(table.segment_ids.shape[0])
        benchmark.extra_info["distinct_segments"] = int(table.seg_ends.shape[0])
        benchmark(table.leaf_bounds_squared, cumsum, cumsq)


@pytest.mark.parametrize("num_rows", [128, 10_000, None], ids=["128", "10K", "all"])
def test_lb_sax_rows(benchmark, corpus, query, num_rows):
    """The one LB_SAX kernel over a row subset (two leaves' worth, a hard
    query's LCList) and over the whole array — compare with
    ``test_sax_mindist_batch``, the linear-space reference on all rows."""
    space = SaxSpace(16, 256)
    words = space.symbolize(paa(corpus, 16))
    tier = SignatureArray.from_full_symbols(words, space, 8)
    tables = tier.gap_tables(paa(query, 16))
    rows = None if num_rows is None else np.arange(num_rows)
    benchmark(tier.screen, tables, 40.0, 128, rows=rows)


def test_series_sketch_stats(benchmark, query):
    sketch = SeriesSketch(query)
    segmentations = [
        Segmentation.uniform(128, m) for m in (2, 4, 8, 16)
    ]

    def evaluate():
        fresh = SeriesSketch(query)
        for seg in segmentations:
            fresh.stats(seg)

    benchmark(evaluate)
