"""Tests for progressive query answering and concurrent index use."""

import threading

import numpy as np
import pytest

from repro import HerculesConfig, HerculesIndex

from ..conftest import make_random_walks


@pytest.fixture(scope="module")
def corpus():
    return make_random_walks(1000, 32, seed=230)


@pytest.fixture(scope="module")
def index(corpus, tmp_path_factory):
    config = HerculesConfig(
        leaf_capacity=50,
        db_size=256,
        l_max=3,
        sax_segments=8,
    )
    idx = HerculesIndex.build(
        corpus, config, directory=tmp_path_factory.mktemp("prog")
    )
    yield idx
    idx.close()


def brute_force(corpus, query, k):
    d = np.sqrt(
        ((corpus.astype(np.float64) - query.astype(np.float64)) ** 2).sum(axis=1)
    )
    return np.sort(d)[:k]


class TestProgressive:
    def test_final_answer_is_exact(self, index, corpus):
        query = make_random_walks(1, 32, seed=231)[0]
        answers = list(index.knn_progressive(query, k=5))
        assert answers[-1].profile.path == "progressive-final"
        np.testing.assert_allclose(
            answers[-1].distances, brute_force(corpus, query, 5), atol=1e-5
        )

    def test_snapshots_improve_monotonically(self, index):
        query = make_random_walks(1, 32, seed=232)[0]
        answers = list(index.knn_progressive(query, k=3))
        kth = [a.distances[-1] for a in answers if a.k == 3]
        assert all(a >= b - 1e-12 for a, b in zip(kth, kth[1:]))

    def test_partials_are_labeled_and_counted(self, index):
        query = make_random_walks(1, 32, seed=233)[0]
        answers = list(index.knn_progressive(query, k=3))
        partials = [a for a in answers if a.profile.path == "progressive-partial"]
        assert len(partials) == len(answers) - 1
        leaves = [a.profile.approx_leaves for a in partials]
        # One snapshot per merged leaf, although leaves are read and
        # evaluated in groups.
        assert leaves == list(range(1, len(partials) + 1))
        assert len(partials) > 2

    def test_early_stop_is_usable(self, index, corpus):
        """Consuming only the first snapshot still yields valid answers."""
        query = corpus[11]
        first = next(iter(index.knn_progressive(query, k=1)))
        assert first.k == 1
        assert first.distances[0] == pytest.approx(0.0, abs=1e-5)

    def test_progressive_respects_epsilon(self, index, corpus):
        query = make_random_walks(1, 32, seed=234)[0]
        config = index.config.with_options(epsilon=0.5)
        final = list(index.knn_progressive(query, k=3, config=config))[-1]
        exact = brute_force(corpus, query, 3)
        assert final.distances[-1] <= 1.5 * exact[-1] + 1e-6


class TestConcurrentQueries:
    def test_parallel_queries_stay_exact(self, index, corpus):
        """One index object serving many querying threads at once."""
        queries = make_random_walks(12, 32, seed=235)
        expected = [brute_force(corpus, q, 3) for q in queries]
        failures = []

        def run(i):
            try:
                answer = index.knn(queries[i], k=3)
                np.testing.assert_allclose(
                    answer.distances, expected[i], atol=1e-5
                )
            except Exception as exc:  # noqa: BLE001
                failures.append((i, exc))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures
