"""Memory bounds of a ``knn_batch`` call, measured with tracemalloc.

A Q-query batch must hold what it answers with — each query's bounds,
gap tables, SCList and result set — plus a transient that does not grow
with Q: the front half's LB_EAPCA² pass runs in slices of
``_SLICE_QUERIES`` queries, the refinement walk builds its entry
table one file window of ``_WINDOW_ROWS`` rows at a time, and phase 1's
lockstep rounds share one read buffer, adding only one group's worth
per query.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import HerculesConfig, HerculesIndex, batch_query, query

from ..conftest import make_random_walks

_NUM_SERIES = 2000
_LENGTH = 64


@pytest.fixture(scope="module")
def data():
    return make_random_walks(_NUM_SERIES, _LENGTH, seed=23)


@pytest.fixture(scope="module")
def index(data, tmp_path_factory):
    # A short phase 1 and no adaptive paths: every query refines a long
    # SCList, so the walk's entry tables are large.
    config = HerculesConfig(
        leaf_capacity=20,
        l_max=2,
        adaptive_thresholds=False,
    )
    built = HerculesIndex.build(
        data, config, directory=tmp_path_factory.mktemp("batch-memory") / "index"
    )
    yield built
    built.close()


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(4)
    return (data[:64] + rng.standard_normal((64, _LENGTH))).astype(np.float32)


def _front_transient(index, queries) -> int:
    """Bytes ``_search_states`` held at its peak beyond what it returned."""
    tracemalloc.start()
    try:
        states = query._search_states(
            queries, 5, index.config, index._table, index._lrd, index._sax, index.num_series,
            index._norms,
        )
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(states) == len(queries)
    return peak - current


def test_front_half_transient_does_not_grow_with_q(index, queries):
    """64 queries' front half holds about the transient of 8 (one
    slice) beyond the states it returns."""
    eight = _front_transient(index, queries[:8])
    sixty_four = _front_transient(index, queries)
    assert sixty_four <= 1.25 * eight, (sixty_four, eight)


def _phase1_transient(index, queries, config, monkeypatch) -> int:
    """Bytes phase 1 of one ``phase1_only`` call over ``queries`` (Q ≥
    2: the lockstep rounds) held at its peak beyond what it kept."""
    lockstep = batch_query._approx_knn_lockstep
    transients = []

    def measured(states):
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        try:
            return lockstep(states)
        finally:
            current, peak = tracemalloc.get_traced_memory()
            transients.append(peak - max(start, current))

    with monkeypatch.context() as patch:
        patch.setattr(batch_query, "_approx_knn_lockstep", measured)
        tracemalloc.start()
        try:
            batch_query.exact_knn_batch(
                queries, 5, config, index._table, index._lrd, index._sax,
                index.num_series, index._norms, phase1_only=True,
            )
        finally:
            tracemalloc.stop()
    (transient,) = transients
    return transient


@pytest.mark.parametrize("long_phase", [False, True], ids=["fixture", "long-shared"])
def test_phase1_transient_grows_by_one_group_per_query(index, queries, long_phase, monkeypatch):
    """Phase 1 in lockstep holds one read buffer whatever Q is; per
    query it adds one group's distances — ``_CHUNK_ROWS`` float64 — and
    no buffer.

    That is the bound at the fixture's two-leaf phase 1.  The long case
    runs phase 1 to exhaustion on eight queries repeated eight times
    with a little noise, so the copies share their leaves and a chunk
    holds many queries: there each query also has its whole visit order
    alive (5 words per leaf), one screen per round keeps every group's
    survivors (position and bound, 16 bytes each) until the round's
    reads start, and a chunk's masked kernel block holds about 10 bytes
    per row for each query present (the refinement walk's bound, O(Q ×
    ``_CHUNK_ROWS``)), so the allowance per query is a group of 34 bytes
    per row plus its visit order.  A read buffer per query (256 bytes a
    row here) would exceed either allowance."""
    config, block = index.config, queries
    per_query = query._CHUNK_ROWS * 8
    if long_phase:
        config = config.with_options(l_max=1000)
        noise = np.random.default_rng(9).standard_normal(queries.shape).astype(np.float32)
        block = np.repeat(queries[:8], 8, axis=0) + 0.01 * noise
        per_query = query._CHUNK_ROWS * 34 + index.num_leaves * 5 * 8
    eight = _phase1_transient(index, block[::8], config, monkeypatch)
    sixty_four = _phase1_transient(index, block, config, monkeypatch)
    assert sixty_four <= eight + 56 * per_query, (sixty_four, eight)


def _walk(index, queries, monkeypatch) -> tuple:
    """The traced transient of one ``knn_batch`` call's refinement walk
    (its peak above the memory it started with), the entry tables it
    built and the answers."""
    walk, cut = batch_query._refine_runs, query._chunk_cuts
    transients, tables, walking = [], [], []

    def measured(*args, **kwargs):
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        walking.append(True)
        try:
            return walk(*args, **kwargs)
        finally:
            walking.pop()
            transients.append(tracemalloc.get_traced_memory()[1] - start)

    def counting(sizes):
        if walking:  # phase 1's rounds cut their chunks by the same rule
            tables.append(len(sizes))
        return cut(sizes)

    with monkeypatch.context() as patch:
        patch.setattr(batch_query, "_refine_runs", measured)
        patch.setattr(query, "_chunk_cuts", counting)
        tracemalloc.start()
        try:
            answers = index.knn_batch(queries, k=5)
        finally:
            tracemalloc.stop()
    (transient,) = transients
    return transient, len(tables), answers


def test_walk_transient_is_one_windows(index, queries, monkeypatch):
    """The same batch walked in windows of an eighth of the file holds
    at most half the transient of its walk as one window."""
    monkeypatch.setattr(query, "_WINDOW_ROWS", _NUM_SERIES)
    whole, one, answers = _walk(index, queries, monkeypatch)
    assert one == 1
    monkeypatch.setattr(query, "_WINDOW_ROWS", _NUM_SERIES // 8)
    windowed, several, windowed_answers = _walk(index, queries, monkeypatch)
    assert several >= 4
    assert windowed <= whole / 2, (windowed, whole)
    assert {answer.profile.path for answer in answers} == {"full-four-phase"}
    for a, b in zip(answers, windowed_answers):
        np.testing.assert_array_equal(a.distances, b.distances)
        np.testing.assert_array_equal(a.positions, b.positions)
