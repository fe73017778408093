"""Tests for ε-approximate and approximate-only query answering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HerculesConfig, HerculesIndex, ShardedIndex
from repro.errors import ConfigError

from ..conftest import make_random_walks


@pytest.fixture(scope="module")
def corpus():
    return make_random_walks(1200, 64, seed=140)


def index_config(**overrides):
    return HerculesConfig(
        leaf_capacity=50,
        db_size=256,
        l_max=3,
        sax_segments=8,
        **overrides,
    )


@pytest.fixture(scope="module")
def index(corpus, tmp_path_factory):
    idx = HerculesIndex.build(
        corpus, index_config(), directory=tmp_path_factory.mktemp("approx")
    )
    yield idx
    idx.close()


def brute_force(corpus, query, k):
    d = np.sqrt(
        ((corpus.astype(np.float64) - query.astype(np.float64)) ** 2).sum(axis=1)
    )
    return np.sort(d)[:k]


class TestEpsilonApproximate:
    def test_epsilon_zero_is_exact(self, index, corpus):
        query = make_random_walks(1, 64, seed=141)[0]
        answer = index.knn(query, k=5)
        np.testing.assert_allclose(
            answer.distances, brute_force(corpus, query, 5), atol=1e-6
        )

    @pytest.mark.parametrize("epsilon", [0.05, 0.2, 1.0])
    def test_guarantee_holds(self, index, corpus, epsilon):
        config = index.config.with_options(epsilon=epsilon)
        queries = make_random_walks(8, 64, seed=142)
        for query in queries:
            answer = index.knn(query, k=5, config=config)
            exact = brute_force(corpus, query, 5)
            # The reported k-th distance is within (1+ε) of the true k-th.
            assert answer.distances[-1] <= (1.0 + epsilon) * exact[-1] + 1e-6
            # Every reported distance is a genuine distance to some series.
            for dist, pos in zip(answer.distances, answer.positions):
                series = index.get_series(int(pos))
                recomputed = np.sqrt(
                    ((series.astype(np.float64) - query.astype(np.float64)) ** 2).sum()
                )
                assert recomputed == pytest.approx(dist, abs=1e-6)

    def test_larger_epsilon_prunes_more(self, index, corpus):
        """ε trades accuracy for work: data accessed must not increase."""
        query = make_random_walks(1, 64, seed=143)[0]
        tight = index.knn(query, k=5).profile.series_accessed
        loose = index.knn(
            query, k=5, config=index.config.with_options(epsilon=2.0)
        ).profile.series_accessed
        assert loose <= tight

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            HerculesConfig(epsilon=-0.5)


class TestApproximateOnly:
    def test_returns_k_answers_quickly(self, index, corpus):
        query = make_random_walks(1, 64, seed=144)[0]
        answer = index.knn_approx(query, k=5)
        assert answer.k == 5
        assert answer.profile.path == "approximate"
        assert answer.profile.approx_leaves <= index.config.l_max
        # Answers are genuine distances (not necessarily the smallest).
        exact = brute_force(corpus, query, 5)
        assert answer.distances[0] >= exact[0] - 1e-9

    def test_recall_improves_with_l_max(self, index, corpus):
        queries = make_random_walks(10, 64, seed=145)

        def recall(l_max):
            hits = 0
            for query in queries:
                approx = index.knn_approx(query, k=1, l_max=l_max)
                exact = brute_force(corpus, query, 1)
                if np.isclose(approx.distances[0], exact[0], atol=1e-6):
                    hits += 1
            return hits / len(queries)

        assert recall(index.num_leaves) >= recall(1)
        assert recall(index.num_leaves) == 1.0  # unlimited: exact first phase

    def test_self_query_is_found_approximately(self, index, corpus):
        """The query's own leaf is visited first, so recall@1 for dataset
        members is perfect even with l_max=1."""
        answer = index.knn_approx(corpus[5], k=1, l_max=1)
        assert answer.distances[0] == pytest.approx(0.0, abs=1e-5)


class TestPhaseOneTime:
    """The modes that stop at (or only run) phase 1 report its time."""

    def test_knn_approx(self, index):
        query = make_random_walks(1, 64, seed=146)[0]
        profile = index.knn_approx(query, k=5).profile
        assert 0.0 < profile.time_approx <= profile.time_total

    def test_sharded_knn_approx(self, corpus, tmp_path):
        config = index_config(num_shards=2, shard_workers=1)
        sharded = ShardedIndex.build(corpus, config, directory=tmp_path / "sharded")
        try:
            query = make_random_walks(1, 64, seed=147)[0]
            profile = sharded.knn_approx(query, k=5, l_max=2).profile
        finally:
            sharded.close()
        assert 0.0 < profile.time_approx <= profile.time_total

    def test_knn_progressive_final(self, index):
        query = make_random_walks(1, 64, seed=148)[0]
        final = list(index.knn_progressive(query, k=5))[-1].profile
        assert final.path == "progressive-final"
        assert 0.0 < final.time_approx <= final.time_total


class TestEpsilonProperty:
    """Property-based ε-guarantee over random queries and ε values."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), epsilon=st.floats(0.0, 2.0))
    def test_kth_distance_within_factor(self, index, corpus, seed, epsilon):
        query = make_random_walks(1, 64, seed=seed)[0]
        config = index.config.with_options(epsilon=float(epsilon))
        answer = index.knn(query, k=3, config=config)
        exact = brute_force(corpus, query, 3)
        assert answer.distances[-1] <= (1.0 + epsilon) * exact[-1] + 1e-6
