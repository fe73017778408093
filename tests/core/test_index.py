"""End-to-end tests for the HerculesIndex facade: build, query, persist."""

import numpy as np
import pytest

from repro import (
    ConfigError,
    HerculesConfig,
    HerculesIndex,
    IndexStateError,
)
from repro.storage.dataset import Dataset

from ..conftest import make_random_walks


def brute_force_knn(data, query, k):
    d = np.sqrt(
        ((data.astype(np.float64) - query.astype(np.float64)) ** 2).sum(axis=1)
    )
    return np.sort(d)[:k]


@pytest.fixture(scope="module")
def corpus():
    return make_random_walks(1500, 64, seed=100)


@pytest.fixture(scope="module")
def built_index(corpus, tmp_path_factory):
    directory = tmp_path_factory.mktemp("hercules")
    config = HerculesConfig(
        leaf_capacity=60,
        db_size=128,
        l_max=10,
        sax_segments=8,
    )
    index = HerculesIndex.build(corpus, config, directory=directory)
    yield index
    index.close()


class TestBuild:
    def test_build_report(self, built_index, corpus):
        report = built_index.build_report
        assert report.num_series == corpus.shape[0]
        assert report.num_leaves == built_index.num_leaves
        assert report.splits == built_index.num_leaves - 1
        assert report.total_seconds > 0

    def test_rejects_empty_dataset(self):
        with pytest.raises(ConfigError):
            HerculesIndex.build(np.empty((0, 16), dtype=np.float32))

    def test_temp_directory_removed_on_close(self):
        data = make_random_walks(120, 16, seed=101)
        index = HerculesIndex.build(
            data,
            HerculesConfig(
                leaf_capacity=30,
                sax_segments=8,
            ),
        )
        directory = index.directory
        assert directory.exists()
        index.close()
        assert not directory.exists()

    def test_build_from_on_disk_dataset(self, tmp_path):
        data = make_random_walks(200, 32, seed=102)
        dataset = Dataset.write(tmp_path / "data.bin", data)
        index = HerculesIndex.build(
            dataset,
            HerculesConfig(
                leaf_capacity=40, db_size=64,
                sax_segments=8,
            ),
        )
        assert index.num_series == 200
        answer = index.knn(data[17], k=1)
        assert answer.distances[0] == pytest.approx(0.0, abs=1e-5)
        index.close()
        dataset.close()

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_rejects_non_finite_series(self, tmp_path, on_disk):
        """Ingest names the first NaN/inf row, in memory and from a file."""
        data = make_random_walks(200, 32, seed=103).astype(np.float32)
        data[150, 3] = np.inf
        data[137, 0] = np.nan
        source = Dataset.write(tmp_path / "data.bin", data) if on_disk else data
        config = HerculesConfig(
            leaf_capacity=40, db_size=64,
            sax_segments=8,
        )
        try:
            with pytest.raises(ValueError, match="series 137 holds NaN or infinite"):
                HerculesIndex.build(source, config, directory=tmp_path / "idx")
        finally:
            if on_disk:
                source.close()


class TestExactness:
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_matches_brute_force(self, built_index, corpus, k):
        queries = make_random_walks(10, 64, seed=103)
        for q in queries:
            answer = built_index.knn(q, k=k)
            expected = brute_force_knn(corpus, q, k)
            np.testing.assert_allclose(answer.distances, expected, atol=1e-6)

    def test_self_query_finds_itself(self, built_index, corpus):
        answer = built_index.knn(corpus[42], k=1)
        assert answer.distances[0] == pytest.approx(0.0, abs=1e-5)
        np.testing.assert_allclose(
            built_index.get_series(int(answer.positions[0])),
            corpus[42],
        )

    def test_positions_address_true_neighbors(self, built_index, corpus):
        query = make_random_walks(1, 64, seed=104)[0]
        answer = built_index.knn(query, k=5)
        for dist, pos in zip(answer.distances, answer.positions):
            series = built_index.get_series(int(pos))
            recomputed = np.sqrt(
                ((series.astype(np.float64) - query.astype(np.float64)) ** 2).sum()
            )
            assert recomputed == pytest.approx(dist, abs=1e-6)

    def test_ablation_variants_return_identical_answers(self, built_index, corpus):
        query = make_random_walks(1, 64, seed=105)[0]
        base = built_index.knn(query, k=10)
        for overrides in (
            {"use_sax": False},
            {"adaptive_thresholds": False},
            {"adaptive_thresholds": False, "use_sax": False},
        ):
            variant = built_index.knn(
                query, k=10, config=built_index.config.with_options(**overrides)
            )
            np.testing.assert_allclose(
                variant.distances, base.distances, atol=1e-9
            )

    def test_profile_consistency(self, built_index, corpus):
        query = make_random_walks(1, 64, seed=106)[0]
        answer = built_index.knn(query, k=1)
        profile = answer.profile
        assert profile.path != ""
        assert 0.0 <= profile.eapca_pruning <= 1.0
        assert profile.series_accessed <= built_index.num_series
        assert profile.distance_computations <= built_index.num_series
        assert profile.time_total > 0


class TestAdaptivePaths:
    def test_hard_query_takes_skip_sequential(self, corpus, tmp_path):
        """A far-away query prunes nothing, triggering the scan fallback."""
        config = HerculesConfig(
            leaf_capacity=60,
            l_max=2, sax_segments=8,
        )
        index = HerculesIndex.build(corpus, config, directory=tmp_path / "idx")
        rng = np.random.default_rng(107)
        hostile = rng.uniform(-40, 40, size=64).astype(np.float32)
        answer = index.knn(hostile, k=1)
        assert answer.profile.path in ("eapca-skipseq", "sax-skipseq")
        expected = brute_force_knn(corpus, hostile, 1)
        np.testing.assert_allclose(answer.distances, expected, atol=1e-6)
        index.close()

    def test_nothresh_never_skips(self, corpus, tmp_path):
        config = HerculesConfig(
            leaf_capacity=60,
            adaptive_thresholds=False, l_max=2, sax_segments=8,
        )
        index = HerculesIndex.build(corpus, config, directory=tmp_path / "idx")
        rng = np.random.default_rng(108)
        hostile = rng.uniform(-40, 40, size=64).astype(np.float32)
        answer = index.knn(hostile, k=1)
        assert answer.profile.path == "full-four-phase"
        index.close()


class TestPersistence:
    def test_open_returns_identical_answers(self, built_index, corpus):
        queries = make_random_walks(5, 64, seed=109)
        reopened = HerculesIndex.open(built_index.directory)
        try:
            assert reopened.num_series == built_index.num_series
            assert reopened.num_leaves == built_index.num_leaves
            for q in queries:
                a = built_index.knn(q, k=3)
                b = reopened.knn(q, k=3)
                np.testing.assert_allclose(a.distances, b.distances, atol=1e-9)
                np.testing.assert_array_equal(a.positions, b.positions)
        finally:
            reopened.close()

    def test_open_missing_directory(self, tmp_path):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            HerculesIndex.open(tmp_path / "nope")

    def test_closed_index_rejects_queries(self, corpus, tmp_path):
        config = HerculesConfig(
            leaf_capacity=100,
            sax_segments=8,
        )
        index = HerculesIndex.build(
            corpus[:200], config, directory=tmp_path / "idx"
        )
        index.close()
        with pytest.raises(IndexStateError):
            index.knn(corpus[0], k=1)
