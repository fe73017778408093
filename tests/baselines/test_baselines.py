"""Tests for the baseline methods: exactness, structure, and behaviour.

The paper's central exactness invariant — "all algorithms return the
same, exact results" (Section 1) — is asserted across every method,
including Hercules, in TestCrossMethodAgreement.
"""

import numpy as np
import pytest

from repro import HerculesConfig, HerculesIndex
from repro.baselines import (
    DSTreeConfig,
    DSTreeIndex,
    ParisConfig,
    ParisIndex,
    PScan,
    SerialScan,
    VAFileConfig,
    VAFileIndex,
)
from repro.errors import ConfigError
from repro.storage.dataset import Dataset

from ..conftest import make_random_walks


@pytest.fixture(scope="module")
def corpus():
    return make_random_walks(1200, 64, seed=120)


@pytest.fixture(scope="module")
def queries():
    return make_random_walks(6, 64, seed=121)


def brute_force(data, query, k):
    d = np.sqrt(
        ((data.astype(np.float64) - query.astype(np.float64)) ** 2).sum(axis=1)
    )
    return np.sort(d)[:k]


class TestDSTree:
    @pytest.fixture(scope="class")
    def index(self, corpus):
        idx = DSTreeIndex.build(corpus, DSTreeConfig(leaf_capacity=50))
        yield idx
        idx.close()

    def test_exact_answers(self, index, corpus, queries):
        for q in queries:
            answer = index.knn(q, k=5)
            np.testing.assert_allclose(
                answer.distances, brute_force(corpus, q, 5), atol=1e-6
            )

    def test_self_query(self, index, corpus):
        answer = index.knn(corpus[7], k=1)
        assert answer.distances[0] == pytest.approx(0.0, abs=1e-5)

    def test_leaf_capacity_respected(self, index):
        for leaf in index.root.iter_leaves_inorder():
            assert leaf.size <= index.config.leaf_capacity

    def test_internal_synopses_maintained_during_build(self, index, corpus):
        """Unlike Hercules, DSTree's root box is complete right after build."""
        from repro.distance.lower_bounds import MU_MAX, MU_MIN
        from repro.summarization.eapca import segment_stats

        means, _ = segment_stats(corpus, index.root.segmentation)
        np.testing.assert_allclose(
            index.root.synopsis[:, MU_MIN], means.min(axis=0), atol=1e-6
        )
        np.testing.assert_allclose(
            index.root.synopsis[:, MU_MAX], means.max(axis=0), atol=1e-6
        )

    def test_parallel_variant_is_exact(self, corpus, queries):
        idx = DSTreeIndex.build(
            corpus, DSTreeConfig(leaf_capacity=50, num_build_threads=3)
        )
        try:
            assert idx.num_series == corpus.shape[0]
            total = sum(l.size for l in idx.root.iter_leaves_inorder())
            assert total == corpus.shape[0]
            for q in queries[:3]:
                answer = idx.knn(q, k=3)
                np.testing.assert_allclose(
                    answer.distances, brute_force(corpus, q, 3), atol=1e-6
                )
        finally:
            idx.close()

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            DSTreeIndex.build(np.empty((0, 8), dtype=np.float32))


class TestParis:
    @pytest.fixture(scope="class")
    def index(self, corpus):
        return ParisIndex.build(
            corpus, ParisConfig(leaf_capacity=20, num_query_threads=2)
        )

    def test_exact_answers(self, index, corpus, queries):
        for q in queries:
            answer = index.knn(q, k=5)
            np.testing.assert_allclose(
                answer.distances, brute_force(corpus, q, 5), atol=1e-6
            )

    def test_single_thread_matches(self, corpus, queries):
        idx = ParisIndex.build(
            corpus, ParisConfig(leaf_capacity=20, num_query_threads=1)
        )
        ref = ParisIndex.build(
            corpus, ParisConfig(leaf_capacity=20, num_query_threads=3)
        )
        for q in queries[:3]:
            np.testing.assert_allclose(
                idx.knn(q, k=4).distances, ref.knn(q, k=4).distances, atol=1e-9
            )

    def test_words_match_dataset_order(self, index, corpus):
        from repro.summarization.paa import paa

        expected = index.sax_space.symbolize(paa(corpus, 16))
        np.testing.assert_array_equal(index.words, expected)

    def test_tree_partitions_all_series(self, index, corpus):
        seen = []
        for root in index._roots.values():
            stack = [root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    seen.extend(node.positions)
                else:
                    stack.extend((node.left, node.right))
        assert sorted(seen) == list(range(corpus.shape[0]))

    def test_sax_pruning_reported(self, index, queries):
        answer = index.knn(queries[0], k=1)
        assert answer.profile.sax_pruning is not None
        assert 0.0 <= answer.profile.sax_pruning <= 1.0

    def test_probe_falls_back_to_nearest_root(self, index, corpus):
        """A query whose cardinality-1 word has no subtree still seeds a
        finite BSF from the nearest existing root (and stays exact)."""
        rng = np.random.default_rng(7)
        hostile = rng.uniform(-30, 30, size=64).astype(np.float32)
        answer = index.knn(hostile, k=1)
        np.testing.assert_allclose(
            answer.distances, brute_force(corpus, hostile, 1), atol=1e-6
        )
        assert answer.profile.series_accessed >= 1  # probe happened


class TestVAFile:
    @pytest.fixture(scope="class")
    def index(self, corpus):
        return VAFileIndex.build(
            corpus, VAFileConfig(num_features=16, total_bits=64)
        )

    def test_exact_answers(self, index, corpus, queries):
        for q in queries:
            answer = index.knn(q, k=5)
            np.testing.assert_allclose(
                answer.distances, brute_force(corpus, q, 5), atol=1e-6
            )

    def test_cell_bounds_are_lower_bounds(self, index, corpus, queries):
        q = queries[0].astype(np.float64)
        bounds = index._cell_lower_bounds(index.basis.transform(q))
        true = np.sqrt(
            ((corpus.astype(np.float64) - q) ** 2).sum(axis=1)
        )
        assert np.all(bounds <= true + 1e-9)

    def test_pruning_is_effective_on_easy_queries(self, index, corpus):
        easy = corpus[3] + 0.01 * np.random.default_rng(0).standard_normal(64).astype(
            np.float32
        )
        answer = index.knn(easy, k=1)
        assert answer.profile.series_accessed < corpus.shape[0] / 2

    def test_bit_allocation_favors_high_variance_dimensions(self, corpus):
        from repro.baselines.vafile import _allocate_bits

        rng = np.random.default_rng(1)
        feats = np.column_stack(
            [rng.normal(0, 10.0, 500), rng.normal(0, 0.1, 500)]
        )
        bits = _allocate_bits(feats, 8)
        assert bits[0] > bits[1]
        assert bits.sum() == 8

    def test_rejects_more_features_than_length(self, corpus):
        with pytest.raises(ConfigError):
            VAFileIndex.build(corpus, VAFileConfig(num_features=100, total_bits=200))


class TestScans:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_pscan_exact(self, corpus, queries, threads):
        scan = PScan(corpus, num_threads=threads, chunk_size=300)
        for q in queries:
            answer = scan.knn(q, k=5)
            np.testing.assert_allclose(
                answer.distances, brute_force(corpus, q, 5), atol=1e-6
            )

    def test_serial_scan_exact(self, corpus, queries):
        scan = SerialScan(corpus, chunk_size=500)
        for q in queries:
            answer = scan.knn(q, k=3)
            np.testing.assert_allclose(
                answer.distances, brute_force(corpus, q, 3), atol=1e-6
            )

    def test_scans_access_everything(self, corpus, queries):
        scan = SerialScan(corpus)
        answer = scan.knn(queries[0], k=1)
        assert answer.profile.series_accessed == corpus.shape[0]

    def test_scan_counts_every_point_compared(self, corpus):
        # The screening kernel touches each point once, whatever the BSF:
        # even a self-query (bsf hits 0 in the first chunk) compares all.
        scan = SerialScan(corpus, chunk_size=200)
        profile = scan.knn(corpus[0], k=1).profile
        assert profile.points_compared == profile.points_total == corpus.size
        assert profile.distance_computations == corpus.shape[0]
        assert profile.abandoned_fraction == 0.0


class TestCrossMethodAgreement:
    """Every method returns identical exact distances (Section 1)."""

    def test_all_methods_agree(self, corpus, queries, tmp_path):
        hercules = HerculesIndex.build(
            corpus,
            HerculesConfig(
                leaf_capacity=50,
                db_size=128,
                l_max=5,
                sax_segments=8,
            ),
            directory=tmp_path / "hercules",
        )
        methods = [
            hercules,
            DSTreeIndex.build(corpus, DSTreeConfig(leaf_capacity=50)),
            ParisIndex.build(corpus, ParisConfig(leaf_capacity=20)),
            VAFileIndex.build(corpus),
            PScan(corpus, num_threads=2),
            SerialScan(corpus),
        ]
        try:
            for q in queries:
                reference = brute_force(corpus, q, 10)
                for method in methods:
                    answer = method.knn(q, k=10)
                    np.testing.assert_allclose(
                        answer.distances,
                        reference,
                        atol=1e-6,
                        err_msg=f"{method.__class__.__name__} diverged",
                    )
        finally:
            for method in methods:
                method.close()

    def test_on_disk_dataset_agreement(self, tmp_path):
        data = make_random_walks(400, 32, seed=122)
        dataset = Dataset.write(tmp_path / "data.bin", data)
        query = make_random_walks(1, 32, seed=123)[0]
        reference = brute_force(data, query, 5)
        methods = [
            ParisIndex.build(dataset, ParisConfig(leaf_capacity=10)),
            VAFileIndex.build(dataset, VAFileConfig(num_features=8, total_bits=32)),
            PScan(dataset, num_threads=2, chunk_size=64),
        ]
        for method in methods:
            np.testing.assert_allclose(
                method.knn(query, k=5).distances, reference, atol=1e-6
            )
        dataset.close()


class TestVAFileSaxContender:
    """The fair-contender mode: VA+file over Hercules' signature screen."""

    @pytest.fixture(scope="class")
    def sax_index(self, corpus):
        return VAFileIndex.build(
            corpus,
            VAFileConfig(num_features=16, filter_kind="sax", sax_bits=6),
        )

    def test_exact_answers(self, sax_index, corpus, queries):
        for q in queries:
            answer = sax_index.knn(q, k=5)
            np.testing.assert_allclose(
                answer.distances, brute_force(corpus, q, 5), atol=1e-6
            )

    def test_agrees_with_dft_filter(self, sax_index, corpus, queries):
        dft = VAFileIndex.build(
            corpus, VAFileConfig(num_features=16, total_bits=64)
        )
        for q in queries:
            np.testing.assert_allclose(
                sax_index.knn(q, k=10).distances,
                dft.knn(q, k=10).distances,
                atol=1e-6,
            )

    def test_profile_reports_the_screen(self, sax_index, corpus, queries):
        answer = sax_index.knn(queries[0], k=5)
        assert answer.profile.path == "vafile-sax-skipseq"
        assert answer.profile.prefilter_screened == corpus.shape[0]
        assert (
            answer.profile.prefilter_survivors
            == answer.profile.candidate_series
        )
        assert answer.profile.prefilter_pruned_fraction is not None

    def test_dft_mode_path_unchanged(self, corpus, queries):
        dft = VAFileIndex.build(
            corpus, VAFileConfig(num_features=16, total_bits=64)
        )
        answer = dft.knn(queries[0], k=5)
        assert answer.profile.path == "vafile-skipseq"
        assert answer.profile.prefilter_screened == 0

    def test_save_open_roundtrip(self, sax_index, corpus, queries, tmp_path):
        sax_index.save(tmp_path)
        reopened = VAFileIndex.open(tmp_path, corpus)
        assert reopened.signatures is not None
        np.testing.assert_array_equal(
            reopened.signatures.reduced, sax_index.signatures.reduced
        )
        for q in queries:
            ref = sax_index.knn(q, k=3)
            answer = reopened.knn(q, k=3)
            np.testing.assert_array_equal(answer.distances, ref.distances)
            np.testing.assert_array_equal(answer.positions, ref.positions)

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="filter_kind"):
            VAFileConfig(filter_kind="wavelet")
        with pytest.raises(ConfigError, match="sax_bits"):
            VAFileConfig(filter_kind="sax", sax_bits=0)
        with pytest.raises(ConfigError, match="sax_bits"):
            VAFileConfig(filter_kind="sax", sax_bits=9)
