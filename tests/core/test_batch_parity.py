"""Parity gates for the batched multi-query engine: answers never change.

``knn_batch`` must be value-identical, per query, to the serial
``knn`` loop it replaces — distances AND positions, bit for bit —
across every execution mode: exact and ε-approximate search, the
signature pre-filter on and off, plain and sharded indexes (thread and
process-pool scatter), and degenerate batches (singletons, duplicated
queries, identical-query batches).

Positions are LRD file positions, so every comparison queries the same
materialized index with only the execution strategy changing.
"""

import numpy as np
import pytest

from repro.core import (
    BatchAnswer,
    BatchStats,
    HerculesConfig,
    HerculesIndex,
    ShardedIndex,
)

from ..conftest import make_random_walks

_LENGTH = 64
_NUM_SERIES = 500


def _config(**overrides):
    base = dict(
        leaf_capacity=20,
        num_build_threads=1,
        flush_threshold=1,
        prefilter=True,
        prefilter_bits=5,
    )
    base.update(overrides)
    return HerculesConfig(**base)


def _make_queries(data, count, seed=3):
    """A mix of noisy copies, hard randoms, and exact duplicates."""
    rng = np.random.default_rng(seed)
    noisy = data[:count] + 0.3 * rng.standard_normal((count, _LENGTH))
    hard = rng.standard_normal((max(count // 3, 1), _LENGTH))
    copies = data[100 : 100 + max(count // 3, 1)]
    return np.vstack([noisy, hard, copies])[:count].astype(np.float32)


@pytest.fixture(scope="module")
def data():
    return make_random_walks(_NUM_SERIES, _LENGTH, seed=17)


@pytest.fixture(scope="module")
def queries(data):
    return _make_queries(data, 64)


@pytest.fixture(scope="module")
def index(data, tmp_path_factory):
    directory = tmp_path_factory.mktemp("batch-parity") / "index"
    built = HerculesIndex.build(data, _config(), directory=directory)
    yield built
    built.close()


@pytest.fixture(scope="module")
def wide_data():
    return make_random_walks(2000, _LENGTH, seed=19)


@pytest.fixture(scope="module")
def wide_index(wide_data, tmp_path_factory):
    directory = tmp_path_factory.mktemp("batch-parity-wide") / "index"
    built = HerculesIndex.build(wide_data, _config(), directory=directory)
    yield built
    built.close()


#: The work counters a drifted re-check cadence moves first: with ε > 0
#: the answers can still agree when these no longer do.
_WORK_COUNTERS = ("distance_computations", "points_compared", "series_accessed")


def _assert_batch_matches_serial(index, queries, k, config=None, counters=False):
    batch = index.knn_batch(queries, k=k, config=config)
    assert len(batch) == queries.shape[0]
    for qi, answer in enumerate(batch):
        serial = index.knn(queries[qi], k=k, config=config)
        np.testing.assert_array_equal(serial.distances, answer.distances)
        np.testing.assert_array_equal(serial.positions, answer.positions)
        if counters:
            for name in _WORK_COUNTERS:
                assert getattr(answer.profile, name) == getattr(serial.profile, name), (
                    f"query {qi} ({serial.profile.path}): {name}"
                )
    return batch


@pytest.fixture
def small_chunks(monkeypatch):
    """Refinement chunks of at most 32 rows — one to three of these
    20-row leaves — in both pipelines, so a batch walks hundreds of
    chunks: "leaves" and "series" users meet in one chunk, cuts fall
    mid-plan, and late chunks find every query pruned."""
    from repro.core import batch_query, query

    monkeypatch.setattr(query, "_CHUNK_ROWS", 32)
    monkeypatch.setattr(batch_query, "_CHUNK_ROWS", 32)


def _assert_read_once(index, queries, k, config, monkeypatch):
    """One ``knn_batch`` call reads whole leaf blocks, none of them
    twice, and counts loads and uses per leaf block, not per chunk."""
    from repro.storage.files import SeriesFile

    reads = []
    read_range = SeriesFile.read_range

    def recording(self, position, count, out=None):
        reads.extend(zip(np.atleast_1d(position).tolist(), np.atleast_1d(count).tolist()))
        return read_range(self, position, count, out=out)

    before = index.query_io.snapshot()
    with monkeypatch.context() as patch:
        patch.setattr(SeriesFile, "read_range", recording)
        batch = index.knn_batch(queries, k=k, config=config)
    stats = batch.stats
    bytes_read = (index.query_io.snapshot() - before).bytes_read

    times_read = np.zeros(index.num_series, dtype=np.int64)
    for position, count in reads:
        times_read[position : position + count] += 1
    assert times_read.max() == 1
    loaded = [
        leaf
        for leaf in index.leaves
        if times_read[leaf.file_position : leaf.file_position + leaf.size].any()
    ]
    assert sum(leaf.size for leaf in loaded) == times_read.sum()  # whole leaves
    assert stats.unique_leaf_reads == len(loaded) <= index.num_leaves
    assert bytes_read == times_read.sum() * index.series_length * 4
    # The per-query counters are per leaf block too: a load is the miss of
    # the one query it was made for, every other use of the leaf a hit.
    misses = sum(answer.profile.cache_misses for answer in batch)
    hits = sum(answer.profile.cache_hits for answer in batch)
    assert misses == stats.unique_leaf_reads
    assert hits + misses == stats.leaf_uses
    return stats


class TestPlainExactParity:
    @pytest.mark.parametrize("num_queries", [1, 2, 64])
    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_bit_for_bit(self, index, queries, num_queries, k):
        _assert_batch_matches_serial(index, queries[:num_queries], k)

    @pytest.mark.parametrize("k", [1, 10])
    def test_prefilter_off(self, index, queries, k):
        config = index.config.with_options(prefilter=False)
        batch = _assert_batch_matches_serial(
            index, queries[:16], k, config=config
        )
        for answer in batch:
            assert answer.profile.prefilter_screened == 0

    def test_batch_path_matches_serial_path(self, index, queries):
        """The access-path decision itself must replicate serial."""
        batch = index.knn_batch(queries[:16], k=5)
        for qi, answer in enumerate(batch):
            serial = index.knn(queries[qi], k=5)
            assert answer.profile.path == serial.profile.path


class TestEpsilonParity:
    """ε > 0 pruning depends on the BSF at each check: the batch engine
    must re-check at exactly the serial cadence (it calls the serial
    routine), which the work counters see before the answers do."""

    @pytest.mark.parametrize("prefilter", [True, False])
    @pytest.mark.parametrize("k", [1, 10])
    def test_bit_for_bit(self, index, queries, prefilter, k):
        config = index.config.with_options(
            epsilon=0.15, prefilter=prefilter, num_query_threads=1
        )
        _assert_batch_matches_serial(
            index, queries[:16], k, config=config, counters=True
        )

    def test_large_epsilon(self, index, queries):
        config = index.config.with_options(epsilon=1.0, num_query_threads=1)
        _assert_batch_matches_serial(
            index, queries[:8], k=5, config=config, counters=True
        )


class TestRefinementPaths:
    """The default L_max covers this whole small tree, so the queries
    above are answered by phase 1 alone; a short phase 1 sends them
    through the LB_SAX pass, phase 4 and the skip-sequential scans."""

    @staticmethod
    def _mixed(data, queries):
        hard = np.random.default_rng(8).standard_normal((6, _LENGTH))
        return np.vstack([queries[:6], hard, data[100:104]]).astype(np.float32)

    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("prefilter", [True, False])
    @pytest.mark.parametrize("epsilon", [0.0, 0.15])
    def test_bit_for_bit(self, index, data, queries, epsilon, prefilter, adaptive):
        config = index.config.with_options(
            l_max=2,
            num_query_threads=1,  # ε > 0 answers depend on check order
            epsilon=epsilon,
            prefilter=prefilter,
            adaptive_thresholds=adaptive,
        )
        mixed = self._mixed(data, queries)
        batch = _assert_batch_matches_serial(
            index, mixed, k=5, config=config, counters=epsilon > 0
        )
        paths = {answer.profile.path for answer in batch}
        assert "full-four-phase" in paths
        if adaptive:
            assert "eapca-skipseq" in paths
        for qi, answer in enumerate(batch):
            serial = index.knn(mixed[qi], k=5, config=config).profile
            assert answer.profile.path == serial.path
            assert answer.profile.candidate_series == serial.candidate_series
            assert answer.profile.prefilter_screened == serial.prefilter_screened
            assert answer.profile.prefilter_survivors == serial.prefilter_survivors

    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("prefilter", [True, False])
    def test_exact_small_chunks(
        self, index, data, queries, small_chunks, monkeypatch, prefilter, adaptive
    ):
        config = index.config.with_options(
            l_max=2, prefilter=prefilter, adaptive_thresholds=adaptive
        )
        mixed = self._mixed(data, queries)
        batch = _assert_batch_matches_serial(index, mixed, k=5, config=config)
        paths = {answer.profile.path for answer in batch}
        assert "full-four-phase" in paths
        if adaptive:
            assert "eapca-skipseq" in paths
        _assert_read_once(index, mixed, 5, config, monkeypatch)

    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("prefilter", [True, False])
    def test_exact_small_chunks_wide(
        self, wide_index, wide_data, small_chunks, monkeypatch, prefilter, adaptive
    ):
        """2 000 series in chunks of 32 rows: most chunks serve whole-leaf
        and per-row users together, and an easy batch leaves chunks in
        which every query is pruned (no kernel call)."""
        from repro.core import batch_query

        config = wide_index.config.with_options(
            l_max=2, prefilter=prefilter, adaptive_thresholds=adaptive
        )
        rng = np.random.default_rng(9)
        noisy = wide_data[:8] + 0.5 * rng.standard_normal((8, _LENGTH))
        mixed = np.vstack([noisy, rng.standard_normal((8, _LENGTH))]).astype(np.float32)
        easy = (wide_data[:2] + 0.3 * rng.standard_normal((2, _LENGTH))).astype(np.float32)

        chunks, calls = [], []
        cut, kernel = batch_query._chunk_cuts, batch_query.early_abandon_squared_multi

        def cutting(sizes):
            cuts = cut(sizes)
            chunks.append(len(cuts) - 1)
            return cuts

        def counting(queries, candidates, cutoffs, row_masks):
            whole = int(row_masks.all(axis=1).sum())
            calls.append(0 < whole < len(queries))
            return kernel(queries, candidates, cutoffs, row_masks=row_masks)

        monkeypatch.setattr(batch_query, "_chunk_cuts", cutting)
        monkeypatch.setattr(batch_query, "early_abandon_squared_multi", counting)

        batch = _assert_batch_matches_serial(wide_index, mixed, k=5, config=config)
        paths = {answer.profile.path for answer in batch}
        assert "full-four-phase" in paths
        assert chunks[0] > 60
        if adaptive:
            assert "eapca-skipseq" in paths
            assert sum(calls) > 60  # both kinds of user in one kernel call
        stats = _assert_read_once(wide_index, mixed, 5, config, monkeypatch)
        assert stats.leaf_share_factor > 1.0

        del chunks[:], calls[:]
        _assert_batch_matches_serial(wide_index, easy, k=5, config=config)
        assert 0 < len(calls) < chunks[0]
        _assert_read_once(wide_index, easy, 5, config, monkeypatch)

    def test_leaf_above_the_chunk_cap(self, index, data, queries, monkeypatch):
        """A leaf holding more rows than a chunk may is a chunk of its own
        and the shared buffer grows to take it."""
        from repro.core import batch_query, query

        monkeypatch.setattr(query, "_CHUNK_ROWS", 8)
        monkeypatch.setattr(batch_query, "_CHUNK_ROWS", 8)
        assert max(leaf.size for leaf in index.leaves) > 8
        config = index.config.with_options(l_max=2)
        mixed = self._mixed(data, queries)
        _assert_batch_matches_serial(index, mixed, k=5, config=config)
        _assert_read_once(index, mixed, 5, config, monkeypatch)

    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("prefilter", [True, False])
    def test_epsilon_counters_over_many_chunks(
        self, wide_index, wide_data, prefilter, adaptive
    ):
        """On 2 000 series a skip-sequential scan covers runs of many
        20-row leaves in several refinement chunks and phase 4 several
        chunks of SCList: a batch cadence one re-check off the serial one
        shows in the work counters of most of these queries."""
        config = wide_index.config.with_options(
            l_max=2,
            num_query_threads=1,
            epsilon=0.15,
            prefilter=prefilter,
            adaptive_thresholds=adaptive,
        )
        rng = np.random.default_rng(9)
        noisy = wide_data[:8] + 0.5 * rng.standard_normal((8, _LENGTH))
        hard = rng.standard_normal((8, _LENGTH))
        mixed = np.vstack([noisy, hard]).astype(np.float32)
        batch = _assert_batch_matches_serial(
            wide_index, mixed, k=5, config=config, counters=True
        )
        paths = {answer.profile.path for answer in batch}
        assert "full-four-phase" in paths
        if adaptive:
            assert "eapca-skipseq" in paths
        # The fixture is only worth its build time if scans really span
        # several chunks (256 rows each).
        assert max(a.profile.distance_computations for a in batch) > 4 * 256


class TestDegenerateBatches:
    def test_singleton_batch(self, index, queries):
        _assert_batch_matches_serial(index, queries[:1], k=5)

    def test_duplicate_queries(self, index, queries):
        batch_queries = np.vstack([queries[:4], queries[:4], queries[:4]])
        _assert_batch_matches_serial(index, batch_queries, k=5)

    def test_identical_query_batch(self, index, queries):
        batch_queries = np.repeat(queries[:1], 8, axis=0)
        batch = _assert_batch_matches_serial(index, batch_queries, k=5)
        first = batch[0]
        for answer in batch:
            np.testing.assert_array_equal(first.distances, answer.distances)
            np.testing.assert_array_equal(first.positions, answer.positions)

    def test_indexed_series_as_queries(self, index, data):
        """Zero-distance self matches survive batching."""
        batch = _assert_batch_matches_serial(
            index, data[200:208].astype(np.float32), k=1
        )
        for answer in batch:
            assert answer.distances[0] == 0.0

    def test_empty_batch(self, index):
        batch = index.knn_batch(np.empty((0, _LENGTH), dtype=np.float32))
        assert len(batch) == 0
        assert isinstance(batch, BatchAnswer)

    def test_rejects_1d_input(self, index, queries):
        with pytest.raises(ValueError, match="2-D|matrix"):
            index.knn_batch(queries[0])


class TestBatchSurface:
    def test_list_compatibility(self, index, queries):
        batch = index.knn_batch(queries[:4], k=3)
        assert len(batch) == 4
        assert list(iter(batch))[2] is batch[2]

    def test_stats_accounting(self, index, queries):
        batch = index.knn_batch(queries[:32], k=5)
        stats = batch.stats
        assert isinstance(stats, BatchStats)
        assert stats.num_queries == 32
        assert stats.unique_leaf_reads > 0
        # Every load is itself a use, so the share factor is >= 1; with
        # 32 queries over one small index, leaves must actually be
        # shared.
        assert stats.leaf_uses >= stats.unique_leaf_reads
        assert stats.leaf_share_factor > 1.0
        assert stats.total_seconds > 0.0

    def test_shared_reads_beat_serial_reads(self, index, queries):
        """The batch must physically read fewer blocks than Q serial
        runs touch in total (that is the point of the engine)."""
        batch = index.knn_batch(queries[:32], k=5)
        assert batch.stats.unique_leaf_reads < batch.stats.leaf_uses

    def test_result_length_mismatch_rejected(self, index, queries):
        from repro.core import ResultSet

        with pytest.raises(ValueError, match="result sets"):
            index.knn_batch(queries[:4], k=3, results=[ResultSet(3)])


class TestShardedParity:
    """Sharded comparisons run exact mode only: even the *serial*
    sharded path is nondeterministic under ε (racy shared BSF)."""

    @pytest.fixture(scope="class", params=[2, 4])
    def sharded(self, data, tmp_path_factory, request):
        directory = tmp_path_factory.mktemp(
            f"batch-shards-{request.param}"
        ) / "index"
        built = ShardedIndex.build(
            data,
            _config(num_shards=request.param, shard_workers=0),
            directory=directory,
        )
        yield built
        built.close()

    @pytest.mark.parametrize("num_queries", [2, 16])
    @pytest.mark.parametrize("k", [1, 10])
    def test_threads_bit_for_bit(self, sharded, queries, num_queries, k):
        _assert_batch_matches_serial(sharded, queries[:num_queries], k)

    def test_threads_duplicate_queries(self, sharded, queries):
        batch_queries = np.repeat(queries[:2], 4, axis=0)
        _assert_batch_matches_serial(sharded, batch_queries, k=5)

    def test_stats_aggregate_across_shards(self, sharded, queries):
        batch = sharded.knn_batch(queries[:16], k=5)
        assert batch.stats.num_queries == 16
        assert batch.stats.unique_leaf_reads > 0
        assert batch.stats.leaf_share_factor > 1.0

    def test_single_shard_is_plain_engine(self, data, tmp_path, queries):
        built = ShardedIndex.build(
            data, _config(num_shards=1), directory=tmp_path / "one"
        )
        try:
            assert isinstance(built, HerculesIndex)
            _assert_batch_matches_serial(built, queries[:8], k=5)
        finally:
            built.close()


class TestPoolParity:
    def test_pool_bit_for_bit(self, data, queries, tmp_path):
        from repro.core import open_index

        directory = tmp_path / "pooled"
        built = ShardedIndex.build(
            data,
            _config(num_shards=2, shard_workers=0),
            directory=directory,
        )
        serial = [built.knn(q, k=5) for q in queries[:12]]
        built.close()
        pooled = open_index(directory, workers=2)
        try:
            batch = pooled.knn_batch(queries[:12], k=5)
            for qi, answer in enumerate(batch):
                np.testing.assert_array_equal(
                    serial[qi].distances, answer.distances
                )
                np.testing.assert_array_equal(
                    serial[qi].positions, answer.positions
                )
        finally:
            pooled.close()
