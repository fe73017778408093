"""Error propagation from the query phases."""

import threading

import numpy as np
import pytest

from repro import HerculesConfig, HerculesIndex
from repro.core.prefilter import SignatureArray

from ..conftest import make_random_walks


@pytest.fixture()
def index(tmp_path):
    data = make_random_walks(500, 32, seed=290)
    config = HerculesConfig(
        leaf_capacity=40,
        num_build_threads=1,
        flush_threshold=1,
        num_query_threads=3,
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

        monkeypatch.setattr(SignatureArray, "screen", broken_screen)
        query = make_random_walks(1, 32, seed=291)[0]
        with pytest.raises(RuntimeError, match="injected LB_SAX failure"):
            index.knn(query, k=1)

    def test_phase4_read_error_propagates(self, index, monkeypatch):
        from repro.errors import StorageError

        read_range = index._lrd.read_range

        def broken(position, count, out=None):
            # Every refinement read is a read_range; only the CRWorker
            # threads of phase 4 fail, phase 1 (calling thread) reads on.
            if threading.current_thread() is threading.main_thread():
                return read_range(position, count, out=out)
            raise StorageError("injected read failure")

        monkeypatch.setattr(index._lrd, "read_range", broken)
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
