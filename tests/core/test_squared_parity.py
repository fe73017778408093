"""Exact-answer parity of the squared-space query pipeline.

The pipeline now prunes and refines entirely in squared-distance space;
these tests pin the property that made the rework safe: the answers are
*bit-for-bit* the linear-space answers, on every access path.  Survivor
rows of the early-abandoning kernel are recomputed with the unblocked
kernel's summation order, so a final answer's distance is exactly
``sqrt(batch_squared_euclidean(query, row))`` regardless of which path
produced it — identical to what the pre-squared pipeline returned.

ε-approximate search scales lower bounds by ``1 + ε`` exactly once
(squared *after* scaling, never scaling the squared value again):
returned distances stay true distances, and answers honor the paper's
``(1 + ε)``-of-optimal guarantee.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import HerculesConfig, HerculesIndex
from repro.core.query import _search_states
from repro.distance.euclidean import batch_squared_euclidean
from repro.types import as_series

from ..conftest import make_random_walks

#: Config overrides that force each refinement path (cf. Algorithms 12-14).
PATHS = {
    "full-four-phase": {"eapca_th": 0.0, "sax_th": 0.0},
    "eapca-skipseq": {"eapca_th": 1.0},
    "sax-skipseq": {"eapca_th": 0.0, "sax_th": 1.0},
    "nosax-leaves": {"eapca_th": 0.0, "use_sax": False},
}


@pytest.fixture(scope="module")
def corpus():
    return make_random_walks(700, 32, seed=230)


@pytest.fixture(scope="module")
def index(corpus, tmp_path_factory):
    config = HerculesConfig(
        leaf_capacity=40,
        l_max=3,
        sax_segments=8,
    )
    idx = HerculesIndex.build(
        corpus, config, directory=tmp_path_factory.mktemp("parity")
    )
    yield idx
    idx.close()


@pytest.fixture(scope="module")
def queries():
    return make_random_walks(6, 32, seed=231)


def _true_squared(index, query):
    """Squared distances to every series, in LRD (answer-position) order."""
    data = index._lrd.read_range(0, index.num_series)
    return batch_squared_euclidean(np.asarray(query, dtype=np.float64), data)


class TestExactParity:
    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("k", [1, 5])
    def test_bit_for_bit_on_every_path(self, index, queries, path, k):
        config = index.config.with_options(**PATHS[path])
        for query in queries:
            full = _true_squared(index, query)
            expected = np.sqrt(np.sort(full))[:k]
            answer = index.knn(query, k=k, config=config)
            assert answer.profile.path in (path, "approx-only")
            # Bit-for-bit: same floats the linear-space pipeline produced.
            np.testing.assert_array_equal(answer.distances, expected)
            np.testing.assert_array_equal(
                answer.distances, np.sqrt(full[answer.positions])
            )

    def test_progressive_final_answer_is_exact(self, index, queries):
        for query in queries:
            full = _true_squared(index, query)
            expected = np.sqrt(np.sort(full))[:3]
            final = None
            for final in index.knn_progressive(query, k=3):
                pass
            np.testing.assert_array_equal(final.distances, expected)
            assert final.profile.path != "progressive-partial"

    def test_approximate_answers_are_true_distances(self, index, queries):
        for query in queries:
            full = _true_squared(index, query)
            answer = index.knn_approx(query, k=3)
            # Approximate answers may not be the optimal k, but each
            # reported distance is the true distance of its position.
            np.testing.assert_array_equal(
                answer.distances, np.sqrt(full[answer.positions])
            )
            assert answer.distances[0] >= np.sqrt(full.min()) or (
                answer.distances[0] == np.sqrt(full.min())
            )


class TestEpsilonParity:
    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_epsilon_guarantee_and_true_distances(
        self, index, queries, path, epsilon
    ):
        config = index.config.with_options(epsilon=epsilon, **PATHS[path])
        for query in queries:
            full = _true_squared(index, query)
            optimal = np.sqrt(np.sort(full))[:3]
            answer = index.knn(query, k=3, config=config)
            # Refinement is never ε-scaled: reported distances are the
            # true distances of the reported positions, bit-for-bit.
            np.testing.assert_array_equal(
                answer.distances, np.sqrt(full[answer.positions])
            )
            # The (1 + ε)-of-optimal guarantee, per rank.
            assert np.all(answer.distances <= (1.0 + epsilon) * optimal)
            if epsilon == 0.0:
                np.testing.assert_array_equal(answer.distances, optimal)

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_epsilon_runs_are_deterministic(self, index, queries, epsilon):
        config = index.config.with_options(epsilon=epsilon)
        for query in queries:
            first = index.knn(query, k=3, config=config)
            second = index.knn(query, k=3, config=config)
            np.testing.assert_array_equal(first.distances, second.distances)
            np.testing.assert_array_equal(first.positions, second.positions)

    def test_prune_factor_squared_once(self, index):
        # bound² · (1 + ε)², never a double application: the state scales
        # the table's squared bounds exactly once, when it is created.
        query = make_random_walks(1, 32, seed=240)[0]

        def state_for(epsilon):
            (state,) = _search_states(
                as_series(query)[None],
                1,
                index.config.with_options(epsilon=epsilon),
                index._table,
                index._lrd,
                index.signatures,
                index.num_series,
                index._norms,
            )
            return state

        scaled = state_for(0.05)
        assert scaled.prune_factor == 1.05
        assert scaled.bounds.max() > 0.0
        np.testing.assert_array_equal(
            scaled.bounds, state_for(0.0).bounds * (1.05 * 1.05)
        )


class TestPointsAccounting:
    def test_profile_counts_points(self, index, queries):
        answer = index.knn(queries[0], k=1)
        profile = answer.profile
        assert profile.points_total > 0
        assert 0 < profile.points_compared <= profile.points_total
        assert 0.0 <= profile.abandoned_fraction < 1.0

    def test_cache_counters_zero_without_cache(self, index, queries):
        profile = index.knn(queries[0], k=1).profile
        assert profile.cache_hits == 0
        assert profile.cache_misses == 0
        assert profile.cache_hit_rate is None
