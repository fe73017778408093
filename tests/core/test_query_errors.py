"""Error propagation from the query phases."""

import numpy as np
import pytest

from repro import HerculesConfig, HerculesIndex
from repro.baselines import PScan, SerialScan
from repro.core import ShardedIndex
from repro.core.prefilter import SignatureArray

from ..conftest import make_random_walks


@pytest.fixture()
def index(tmp_path):
    data = make_random_walks(500, 32, seed=290)
    config = HerculesConfig(
        leaf_capacity=40,
        l_max=2,
        sax_segments=8,
        adaptive_thresholds=False,  # force phases 3-4 to always run
    )
    idx = HerculesIndex.build(data, config, directory=tmp_path / "idx")
    yield idx
    idx.close()


class TestQueryWorkerErrors:
    def test_phase3_worker_error_propagates(self, index, monkeypatch):
        def broken_screen(self, *args, **kwargs):
            raise RuntimeError("injected LB_SAX failure")

        monkeypatch.setattr(SignatureArray, "screen_batch", broken_screen)
        query = make_random_walks(1, 32, seed=291)[0]
        with pytest.raises(RuntimeError, match="injected LB_SAX failure"):
            index.knn(query, k=1)

    def test_phase4_read_error_propagates(self, index, monkeypatch):
        from repro.core import batch_query
        from repro.errors import StorageError

        read_range = index._lrd.read_range
        refine_runs = batch_query._refine_runs
        refining = []

        def broken(position, count, out=None):
            # Every refinement read is a read_range; only the walk's reads
            # fail, phase 1's read on.
            if refining:
                raise StorageError("injected read failure")
            return read_range(position, count, out=out)

        def walk(*args):
            refining.append(True)
            return refine_runs(*args)

        monkeypatch.setattr(index._lrd, "read_range", broken)
        monkeypatch.setattr(batch_query, "_refine_runs", walk)
        query = make_random_walks(1, 32, seed=292)[0]
        with pytest.raises(StorageError, match="injected read failure"):
            index.knn(query, k=1)

    def test_queries_work_after_a_failed_query(self, index, monkeypatch):
        """A failed query must not poison the index for later ones."""
        query = make_random_walks(1, 32, seed=293)[0]
        original_screen = SignatureArray.screen

        def broken(self, *args, **kwargs):
            raise RuntimeError("one-off failure")

        monkeypatch.setattr(SignatureArray, "screen", broken)
        with pytest.raises(RuntimeError):
            index.knn(query, k=1)
        monkeypatch.setattr(SignatureArray, "screen", original_screen)

        answer = index.knn(query, k=1)
        assert np.isfinite(answer.distances[0])


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    """A plain and a 2-shard index over the same 32-point series."""
    data = make_random_walks(300, 32, seed=294)
    base = tmp_path_factory.mktemp("bad-queries")
    options = dict(leaf_capacity=40, sax_segments=8)
    plain = HerculesIndex.build(data, HerculesConfig(**options), directory=base / "plain")
    sharded = ShardedIndex.build(
        data,
        HerculesConfig(num_shards=2, shard_workers=1, **options),
        directory=base / "sharded",
    )
    yield {
        "plain": plain,
        "sharded": sharded,
        "pscan": PScan(data, num_threads=2),
        "serial-scan": SerialScan(data),
    }
    plain.close()
    sharded.close()


@pytest.fixture(scope="module")
def pooled(layouts):
    """The 2-shard index of ``layouts`` reopened with 2 pool workers
    (``layouts`` serves it with the one worker that built it)."""
    with ShardedIndex.open(layouts["sharded"].directory, workers=2) as index:
        yield index


def _bad_query(kind):
    query = make_random_walks(1, 32, seed=295)[0]
    if kind == "short":
        return query[:31]
    if kind == "long":
        return np.append(query, 0.0)
    query[7] = np.nan if kind == "nan" else np.inf
    return query


#: Every public entry point a query enters by: (layout, call).
_ENTRY_POINTS = {
    "knn": ("plain", lambda index, q: index.knn(q, k=1)),
    "knn_batch": ("plain", lambda index, q: index.knn_batch(q[None], k=1)),
    "knn_approx": ("plain", lambda index, q: index.knn_approx(q, k=1)),
    "knn_progressive": ("plain", lambda index, q: index.knn_progressive(q, k=1)),
    "sharded-knn": ("sharded", lambda index, q: index.knn(q, k=1)),
    "sharded-knn_batch": ("sharded", lambda index, q: index.knn_batch(q[None], k=1)),
    "sharded-knn_approx": ("sharded", lambda index, q: index.knn_approx(q, k=1)),
}

_REJECTIONS = {
    "short": "query length 31 does not match the index's series length 32",
    "long": "query length 33 does not match the index's series length 32",
    "nan": "NaN or infinite",
    "inf": "NaN or infinite",
}


@pytest.mark.parametrize("kind", sorted(_REJECTIONS))
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_bad_query_rejected_at_entry(layouts, entry, kind):
    """A query of the wrong length, or with a NaN or inf, raises
    ``ValueError`` before any search work — not an ``IndexError`` in the
    bound pass, a kernel failure after phase 1, or an empty answer."""
    layout, call = _ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=_REJECTIONS[kind]):
        call(layouts[layout], _bad_query(kind))


#: Every entry point a ``k`` enters by: (layout, call returning one answer).
_K_ENTRY_POINTS = {
    "knn": ("plain", lambda index, q, k: index.knn(q, k=k)),
    "knn_batch": ("plain", lambda index, q, k: index.knn_batch(q[None], k=k)[0]),
    "knn_approx": ("plain", lambda index, q, k: index.knn_approx(q, k=k)),
    "knn_progressive": (
        "plain",
        lambda index, q, k: list(index.knn_progressive(q, k=k))[-1],
    ),
    "sharded-knn": ("sharded", lambda index, q, k: index.knn(q, k=k)),
    "pooled-knn": ("pooled", lambda index, q, k: index.knn(q, k=k)),
    "pscan": ("pscan", lambda scan, q, k: scan.knn(q, k=k)),
    "serial-scan": ("serial-scan", lambda scan, q, k: scan.knn(q, k=k)),
}


@pytest.mark.parametrize("entry", sorted(_K_ENTRY_POINTS))
def test_fractional_k_rejected(request, layouts, monkeypatch, entry):
    """``k = 2.5`` raises ``ValueError`` rather than answering with 3 (or,
    behind a pool, 2) neighbours; a sharded index raises it before any
    shard is dispatched.  A NumPy integer ``k`` is still a whole number."""
    layout, call = _K_ENTRY_POINTS[entry]
    target = request.getfixturevalue("pooled") if layout == "pooled" else layouts[layout]
    query = make_random_walks(1, 32, seed=296)[0]
    assert len(call(target, query, np.int64(2)).distances) == 2

    if isinstance(target, ShardedIndex):

        def dispatched(*args, **kwargs):
            raise AssertionError("a shard was dispatched")

        monkeypatch.setattr(target._pool, "query", dispatched)
    with pytest.raises(ValueError, match="k must be an integer"):
        call(target, query, 2.5)
