"""Phase 1's LB_SAX screen: once BSF² is finite, a best-first visit whose
leaf has no row with LB_SAX² < BSF² is visited without being read.

``use_sax=False`` (the NoSAX ablation) reads every visited leaf, so in
the phase-1-only modes it is the unscreened walk the screened one must
answer exactly as.
"""

import numpy as np
import pytest

from repro import HerculesConfig, HerculesIndex
from repro.core import ShardedIndex
from repro.core.prefilter import SignatureArray
from repro.core.shard_worker import ProcessBsfVector, answer_shard
from repro.storage.files import SeriesFile
from repro.workloads.generators import make_noise_queries

from ..conftest import make_random_walks

_LENGTH = 64


def _config(**overrides):
    base = dict(
        leaf_capacity=40,
        sax_segments=8,
    )
    base.update(overrides)
    return HerculesConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    return make_random_walks(1600, _LENGTH, seed=310)


@pytest.fixture(scope="module")
def index(corpus, tmp_path_factory):
    idx = HerculesIndex.build(corpus, _config(), directory=tmp_path_factory.mktemp("screen"))
    yield idx
    idx.close()


@pytest.fixture(scope="module")
def easy(corpus):
    """Dataset members plus 1 % noise."""
    return make_noise_queries(corpus, 12, 0.01, seed=311).astype(np.float32)


@pytest.fixture(scope="module")
def mixed(corpus, easy):
    medium = make_noise_queries(corpus, 4, 0.5, seed=312).astype(np.float32)
    return np.vstack([easy[:4], medium, make_random_walks(3, _LENGTH, seed=313)])


def brute_force(corpus, query, k):
    diff = corpus.astype(np.float64) - query.astype(np.float64)
    return np.sort(np.sqrt((diff * diff).sum(axis=1)))[:k]


def _same(got, want):
    np.testing.assert_array_equal(got.distances, want.distances)
    np.testing.assert_array_equal(got.positions, want.positions)
    assert got.profile.approx_leaves == want.profile.approx_leaves


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("l_max", [1, 4, 1000])
@pytest.mark.parametrize("k", [1, 10])
def test_knn_approx_is_the_unscreened_walk(index, mixed, epsilon, l_max, k, monkeypatch):
    screened = index.config.with_options(epsilon=epsilon, l_max=l_max)
    for query in mixed:
        monkeypatch.setattr(index, "config", screened)
        got = index.knn_approx(query, k=k)
        monkeypatch.setattr(index, "config", screened.with_options(use_sax=False))
        want = index.knn_approx(query, k=k)
        _same(got, want)
        assert got.profile.series_accessed <= want.profile.series_accessed


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("k", [1, 10])
def test_every_progressive_snapshot_is_the_unscreened_walks(index, mixed, epsilon, k):
    screened = index.config.with_options(epsilon=epsilon)
    for query in mixed:
        got = list(index.knn_progressive(query, k=k, config=screened))
        want = list(
            index.knn_progressive(query, k=k, config=screened.with_options(use_sax=False))
        )
        assert len(got) == len(want)
        for got_answer, want_answer in zip(got, want):
            assert got_answer.profile.path == want_answer.profile.path
            _same(got_answer, want_answer)


def test_easy_queries_read_less_with_the_same_answers(index, corpus, easy):
    config = index.config.with_options(l_max=1000)
    nosax = config.with_options(use_sax=False)
    accessed = {True: 0, False: 0}
    read_bytes = {True: 0, False: 0}
    for query in easy:
        for use_sax, cfg in ((True, config), (False, nosax)):
            answer = index.knn(query, k=1, config=cfg)
            np.testing.assert_allclose(answer.distances, brute_force(corpus, query, 1), atol=1e-5)
            accessed[use_sax] += answer.profile.series_accessed
            read_bytes[use_sax] += answer.profile.io.bytes_read
        got = index.knn(query, k=1, config=config)
        want = index.knn(query, k=1, config=nosax)
        np.testing.assert_array_equal(got.distances, want.distances)
        np.testing.assert_array_equal(got.positions, want.positions)
    assert accessed[True] < accessed[False]
    assert read_bytes[True] < read_bytes[False]


def test_sharded_inline_query_screens_its_first_visit(corpus, tmp_path, monkeypatch):
    """A one-worker pool answers the shards in order through
    ``answer_shard``, all linked to the query's one BSF² cell, so the
    second shard starts from the first shard's bound and its very first
    phase-1 visit is screened before anything of it is read.  The
    worker's sequence is replayed in this process, where its calls can be
    recorded; the pool's own answers must be exact."""
    sharded = ShardedIndex.build(
        corpus, _config(num_shards=2, shard_workers=1), directory=tmp_path / "sharded"
    )
    events = []
    screen, read_range = SignatureArray.screen, SeriesFile.read_range

    def recording_screen(self, *args, **kwargs):
        events.append(("screen", id(self)))
        return screen(self, *args, **kwargs)

    def recording_read(self, *args, **kwargs):
        events.append(("read", id(self)))
        return read_range(self, *args, **kwargs)

    monkeypatch.setattr(SignatureArray, "screen", recording_screen)
    monkeypatch.setattr(SeriesFile, "read_range", recording_read)
    cells = ProcessBsfVector(capacity=1)
    with sharded:
        second = sharded.shards[1]
        owners = {id(second.signatures), id(second._lrd)}
        # Members of the first shard's rows, so it finds a near match first.
        queries = make_noise_queries(corpus[:800], 6, 0.01, seed=314).astype(np.float32)
        for query in queries:
            for k in (1, 5):
                answer = sharded.knn(query, k=k)
                np.testing.assert_allclose(
                    answer.distances, brute_force(corpus, query, k), atol=1e-5
                )
                events.clear()
                cells.reset(1)
                for shard, row_base in zip(sharded.shards, sharded.row_bases):
                    answer_shard(shard, query[None], k, "knn", None, [cells.cell(0)], row_base)
                first = next(kind for kind, owner in events if owner in owners)
                assert first == "screen"
