"""Shard-parallel engine: partitioning, parity with a single index, layout."""

import multiprocessing

import numpy as np
import pytest

from repro import obs
from repro.core import (
    HerculesConfig,
    HerculesIndex,
    LinkedResultSet,
    QueryAnswer,
    ResultSet,
    ShardedIndex,
    open_index,
    partition_rows,
)
from repro.core.shard_worker import ProcessBsfVector
from repro.errors import ConfigError, IndexStateError
from repro.obs import MetricsRegistry
from repro.storage import manifest as manifest_mod

from ..conftest import make_random_walks


def _config(**overrides):
    base = dict(leaf_capacity=20)
    base.update(overrides)
    return HerculesConfig(**base)


@pytest.fixture(scope="module")
def data():
    return make_random_walks(240, 32, seed=11)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(5)
    noise = 0.05 * rng.standard_normal((4, 32))
    return (data[:4] + noise).astype(np.float32)


@pytest.fixture(scope="module")
def single(data, tmp_path_factory):
    directory = tmp_path_factory.mktemp("single") / "index"
    index = HerculesIndex.build(data, _config(), directory=directory)
    yield index
    index.close()


@pytest.fixture(scope="module", params=[2, 4], ids=["shards2", "shards4"])
def sharded(request, data, tmp_path_factory):
    """Built and served by one worker: every shard in order."""
    directory = tmp_path_factory.mktemp(f"sharded{request.param}") / "index"
    index = ShardedIndex.build(
        data,
        _config(num_shards=request.param, shard_workers=1),
        directory=directory,
    )
    yield index
    index.close()


def _new_children(before):
    """Live child processes started since ``before`` was taken."""
    return set(multiprocessing.active_children()) - before


def _link():
    """One cell of a process-shared BSF vector: a fresh +inf bound."""
    return ProcessBsfVector().cell(0)


class TestPartitionRows:
    def test_balanced_and_contiguous(self):
        ranges = partition_rows(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_exact_division(self):
        assert partition_rows(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_single_shard_is_whole_range(self):
        assert partition_rows(100, 1) == [(0, 100)]

    def test_sizes_differ_by_at_most_one(self):
        sizes = [stop - start for start, stop in partition_rows(1003, 7)]
        assert sum(sizes) == 1003
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigError, match="num_shards"):
            partition_rows(10, 0)

    def test_rejects_more_shards_than_rows(self):
        with pytest.raises(ConfigError, match="at least one series"):
            partition_rows(3, 4)


class TestLinkedResultSet:
    def test_local_improvement_published_immediately(self):
        link = _link()
        results = LinkedResultSet(1, link)
        results.update_squared(4.0, 0)
        assert link.get() == 4.0
        results.update_squared(1.0, 1)
        assert link.get() == 1.0

    def test_reads_return_min_of_local_and_link(self):
        link = _link()
        link.publish(4.0)
        results = LinkedResultSet(1, link)  # snapshots the link at creation
        assert results.bsf_squared == 4.0
        results.update_squared(9.0, 0)  # local k-th best is now 9
        assert results.bsf_squared == 4.0  # link is tighter

    def test_refresh_is_explicit(self):
        link = _link()
        results = LinkedResultSet(1, link)
        link.publish(2.0)  # published after the creation snapshot
        # Reads never touch the link (it sits behind a lock) ...
        assert all(results.bsf_squared == np.inf for _ in range(100))
        results.refresh()  # ... refinement's chunk boundary does.
        assert results.bsf_squared == 2.0

    def test_plain_result_set_refresh_is_a_noop(self):
        results = ResultSet(1)
        results.update_squared(4.0, 0)
        results.refresh()
        assert results.bsf_squared == 4.0

    def test_bound_published_between_chunks_cuts_the_next_chunk(
        self, tmp_path, monkeypatch
    ):
        """Another shard's bound that lands on the link while chunk i
        refines is chunk i + 1's cutoff, however few times refinement
        reads the bound.  k exceeds the dataset, so the local k-th best
        stays inf and every cutoff seen is the link's."""
        from repro.core import batch_query, query as query_module

        index = HerculesIndex.build(
            make_random_walks(900, 32, seed=13), _config(), directory=tmp_path / "index"
        )
        link = _link()
        results = LinkedResultSet(index.num_series + 1, link)
        kernel = query_module.early_abandon_squared
        cutoffs, published = [], []

        def publishing_kernel(query, data, cutoff_squared, norms=None):
            cutoffs.append(cutoff_squared)
            published.append(min(cutoff_squared, 1e9) * 0.999)
            link.publish(published[-1])  # "another shard" got closer
            return kernel(query, data, cutoff_squared, norms=norms)

        monkeypatch.setattr(query_module, "early_abandon_squared", publishing_kernel)
        # 900 series fit one default chunk; the test is about chunk boundaries.
        monkeypatch.setattr(query_module, "_CHUNK_ROWS", 256)
        query = np.random.default_rng(12).standard_normal(32).astype(np.float32)
        config = index.config.with_options(l_max=1, eapca_th=1.0)
        try:
            answer = batch_query.exact_knn_batch(
                query[None], results.k, config, index._table, index._lrd,
                index.signatures, index.num_series, index._norms, results=[results],
            )[0]
        finally:
            index.close()
        assert answer.profile.path == "eapca-skipseq"
        assert len(cutoffs) >= 4, "the scan must span several chunks"
        assert cutoffs[0] == np.inf
        assert cutoffs[1:] == published[:-1]

    def test_batch_updates_publish(self):
        link = _link()
        results = LinkedResultSet(2, link)
        results.update_batch_squared(
            np.array([9.0, 4.0, 16.0]), np.array([0, 1, 2])
        )
        assert link.get() == 9.0  # k-th (2nd) best of {4, 9, 16}


class TestExactParity:
    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_value_identical_to_single_index(self, single, sharded, queries, k):
        for query in queries:
            ref = single.knn(query, k=k)
            answer = sharded.knn(query, k=k)
            np.testing.assert_array_equal(answer.distances, ref.distances)

    def test_positions_resolve_to_true_neighbors(self, sharded, queries):
        # Positions are global (shard row_base + local storage position):
        # fetching each one back must reproduce the reported distance.
        query = queries[0]
        answer = sharded.knn(query, k=5)
        for distance, position in zip(answer.distances, answer.positions):
            actual = np.linalg.norm(query - sharded.get_series(position))
            np.testing.assert_allclose(actual, distance, rtol=1e-5)

    def test_answer_carries_per_shard_breakdown(self, sharded, queries):
        answer = sharded.knn(queries[0], k=3)
        assert isinstance(answer, QueryAnswer)
        assert answer.profile.path == "sharded"
        assert len(answer.shard_answers) == sharded.num_shards
        assert [sid for sid, _ in answer.shard_answers] == list(
            range(sharded.num_shards)
        )

    def test_batch_matches_single_queries(self, sharded, queries):
        batch = sharded.knn_batch(queries, k=2)
        assert len(batch) == len(queries)
        for query, answer in zip(queries, batch):
            one = sharded.knn(query, k=2)
            np.testing.assert_array_equal(answer.distances, one.distances)


class TestApproximateParity:
    def test_exhaustive_l_max_matches_exact(self, single, sharded, queries):
        # With l_max >= the leaf count the best-first probe runs to
        # pruning exhaustion, so both paths must produce the exact answer.
        l_max = single.num_leaves
        for query in queries:
            ref = single.knn(query, k=10)
            answer = sharded.knn_approx(query, k=10, l_max=l_max)
            np.testing.assert_array_equal(answer.distances, ref.distances)

    def test_small_l_max_is_at_least_as_good(self, single, sharded, queries):
        # N shards probe N * l_max leaves total: never a worse k-th best.
        query = queries[1]
        ref = single.knn_approx(query, k=5, l_max=2)
        answer = sharded.knn_approx(query, k=5, l_max=2)
        assert answer.distances[-1] <= ref.distances[-1] + 1e-6


class TestWorkerCounts:
    """A one-worker pool, a two-worker pool and the plain index agree."""

    def test_every_call_agrees_across_worker_counts(self, single, sharded, queries):
        l_max = single.num_leaves
        with ShardedIndex.open(sharded.directory, workers=2) as two:
            for index in (sharded, two):
                batch = index.knn_batch(queries, k=5)
                for query, from_batch in zip(queries, batch):
                    ref = single.knn(query, k=5)
                    np.testing.assert_array_equal(from_batch.distances, ref.distances)
                    answer = index.knn(query, k=5)
                    np.testing.assert_array_equal(answer.distances, ref.distances)
                    approx = index.knn_approx(query, k=5, l_max=l_max)
                    np.testing.assert_array_equal(approx.distances, ref.distances)


class TestProcessWorkers:
    def test_process_build_matches_single_index(
        self, single, data, queries, tmp_path
    ):
        index = ShardedIndex.build(
            data,
            _config(num_shards=2, shard_workers=2),
            directory=tmp_path / "proc",
        )
        try:
            for query in queries:
                ref = single.knn(query, k=5)
                answer = index.knn(query, k=5)
                np.testing.assert_array_equal(answer.distances, ref.distances)
        finally:
            index.close()

    def test_worker_metrics_merge_home(self, data, tmp_path):
        index = ShardedIndex.build(
            data,
            _config(num_shards=2, shard_workers=2),
            directory=tmp_path / "metrics",
        )
        try:
            registry = MetricsRegistry()
            index.merge_worker_metrics(registry)
            summary = registry.summary()
            total = sum(
                summary["counters"][f"shard.{i}.build.num_series"]
                for i in range(2)
            )
            assert total == data.shape[0]
        finally:
            index.close()

    def test_query_pool_matches_thread_path(self, sharded, queries):
        # `sharded` is served by one worker; two must give the same answers.
        pooled = ShardedIndex.open(sharded.directory, workers=2)
        try:
            for query in queries:
                ref = sharded.knn(query, k=10)
                answer = pooled.knn(query, k=10)
                np.testing.assert_array_equal(answer.distances, ref.distances)
                np.testing.assert_array_equal(answer.positions, ref.positions)
        finally:
            pooled.close()

    def test_query_pool_approximate(self, sharded, queries):
        pooled = ShardedIndex.open(sharded.directory, workers=2)
        try:
            ref = sharded.knn_approx(queries[0], k=3, l_max=4)
            answer = pooled.knn_approx(queries[0], k=3, l_max=4)
            np.testing.assert_array_equal(answer.distances, ref.distances)
        finally:
            pooled.close()


def _shard_counters(answer):
    return [
        (
            sid,
            part.profile.path,
            part.profile.approx_leaves,
            part.profile.series_accessed,
            part.profile.distance_computations,
        )
        for sid, part in answer.shard_answers
    ]


class TestInlineScatter:
    """A one-worker pool answers every shard in order on one process,
    each starting from the bounds the shards before it found: per-shard
    work is a function of the inputs alone."""

    @pytest.fixture(scope="class")
    def three(self, data, tmp_path_factory):
        directory = tmp_path_factory.mktemp("one-worker") / "index"
        index = ShardedIndex.build(
            data, _config(num_shards=3, shard_workers=1), directory=directory
        )
        index.close()
        return directory

    @pytest.fixture(scope="class")
    def noisy(self, data):
        rng = np.random.default_rng(8)
        noise = rng.standard_normal((6, data.shape[1]))
        return (data[10:16] + noise).astype(np.float32)

    def _run(self, directory, noisy):
        with ShardedIndex.open(directory, workers=1) as index:
            serial = [index.knn(query, k=5) for query in noisy]
            batch = list(index.knn_batch(noisy, k=5))
        return [_shard_counters(answer) for answer in serial + batch]

    def test_per_shard_counters_are_deterministic(self, three, noisy):
        first = self._run(three, noisy)
        assert first == self._run(three, noisy)
        assert all([sid for sid, *_ in row] == [0, 1, 2] for row in first)

    def test_one_coordinator_span_per_scatter(self, three, noisy):
        trace = obs.Trace(name="pooled")
        with ShardedIndex.open(three, workers=1) as index:
            with obs.use_trace(trace):
                index.knn(noisy[0], k=5)
                index.knn_batch(noisy, k=5)
        spans = trace.find("query.sharded")
        assert [s.attributes["mode"] for s in spans] == ["knn", "knn_batch"]
        assert [s.attributes["queries"] for s in spans] == [1, len(noisy)]
        for span in spans:
            assert span.attributes["shards"] == 3
            assert span.attributes["k"] == 5


class TestLayout:
    def test_single_shard_delegates_to_plain_layout(self, data, tmp_path):
        plain_dir = tmp_path / "plain"
        delegated_dir = tmp_path / "delegated"
        plain = HerculesIndex.build(data, _config(), directory=plain_dir)
        plain.close()
        delegated = ShardedIndex.build(
            data, _config(num_shards=1), directory=delegated_dir
        )
        assert isinstance(delegated, HerculesIndex)
        delegated.close()
        assert not (delegated_dir / manifest_mod.SHARDS_FILENAME).exists()
        for name in ("lrd.bin", "lsd.bin", "norms.bin", "htree.bin"):
            assert (
                (delegated_dir / name).read_bytes()
                == (plain_dir / name).read_bytes()
            ), f"{name} differs between --shards 1 and the classic build"

    def test_sharded_directory_shape(self, sharded):
        directory = sharded.directory
        assert (directory / manifest_mod.SHARDS_FILENAME).exists()
        assert not (directory / manifest_mod.MANIFEST_FILENAME).exists()
        for shard_id in range(sharded.num_shards):
            shard_dir = directory / manifest_mod.shard_dirname(shard_id)
            assert (shard_dir / manifest_mod.MANIFEST_FILENAME).exists()
            assert (shard_dir / "lrd.bin").exists()

    def test_open_index_dispatches_on_layout(self, sharded, single):
        via_sharded = open_index(sharded.directory)
        assert isinstance(via_sharded, ShardedIndex)
        via_sharded.close()
        via_plain = open_index(single.directory)
        assert isinstance(via_plain, HerculesIndex)
        via_plain.close()

    def test_rebuild_bumps_generation_and_prunes_shards(self, data, tmp_path):
        directory = tmp_path / "regen"
        first = ShardedIndex.build(
            data, _config(num_shards=4, shard_workers=1), directory=directory
        )
        assert first.generation == 1
        first.close()
        second = ShardedIndex.build(
            data, _config(num_shards=2, shard_workers=1), directory=directory
        )
        try:
            assert second.generation == 2
            assert not (directory / manifest_mod.shard_dirname(2)).exists()
            assert not (directory / manifest_mod.shard_dirname(3)).exists()
        finally:
            second.close()

    def test_rejects_more_shards_than_series(self, tmp_path):
        tiny = make_random_walks(3, 32, seed=1)
        with pytest.raises(ConfigError, match="shards"):
            ShardedIndex.build(
                tiny,
                _config(num_shards=4, shard_workers=1),
                directory=tmp_path / "tiny",
            )


class TestGlobalPositions:
    def test_answers_span_multiple_shards(self, sharded, data, queries):
        answer = sharded.knn(queries[0], k=100)
        assert (answer.positions >= 0).all()
        assert (answer.positions < data.shape[0]).all()
        # With k approaching half the dataset, every shard contributes.
        assert (answer.positions >= sharded.row_bases[-1]).any()
        assert (answer.positions < sharded.row_bases[1]).any()

    def test_get_series_rejects_out_of_range(self, sharded, data):
        with pytest.raises(ValueError, match="outside"):
            sharded.get_series(data.shape[0])
        with pytest.raises(ValueError, match="outside"):
            sharded.get_series(-1)

    def test_row_bases_are_contiguous(self, sharded, data):
        sizes = [shard.num_series for shard in sharded.shards]
        assert sum(sizes) == data.shape[0]
        expected = 0
        for base, size in zip(sharded.row_bases, sizes):
            assert base == expected
            expected += size


class TestObservabilityHooks:
    def test_per_shard_cache_metrics(self, sharded, queries):
        """The leaf caches live in the pool workers; their hits and
        misses reach the coordinator through each answer's profile."""
        with ShardedIndex.open(
            sharded.directory, cache_bytes=1 << 20, workers=2
        ) as index:
            assert all(shard.leaf_cache is None for shard in index.shards)
            first = index.knn(queries[0], k=5).profile
            again = index.knn(queries[0], k=5).profile
        assert first.cache_hits + first.cache_misses > 0
        assert again.cache_hits > 0

    def test_record_answer(self, sharded, queries):
        registry = MetricsRegistry()
        answer = sharded.knn(queries[0], k=3)
        obs.record_answer(registry, answer, num_series=sharded.num_series)
        counters = registry.summary()["counters"]
        assert counters["query.count"] == 1
        assert counters["query.path.sharded"] == 1
        for shard_id in range(sharded.num_shards):
            assert counters[f"shard.{shard_id}.query.count"] == 1

    def test_merged_profile_aggregates_work(self, sharded, queries):
        answer = sharded.knn(queries[0], k=3)
        per_shard = [a.profile for _, a in answer.shard_answers]
        merged = answer.profile
        assert merged.distance_computations == sum(
            p.distance_computations for p in per_shard
        )
        assert merged.series_accessed == sum(
            p.series_accessed for p in per_shard
        )
        assert 0.0 <= merged.eapca_pruning <= 1.0


class TestLifecycle:
    def test_workers_run_only_between_start_and_close(self, data, queries, tmp_path):
        """Build workers are reaped before build returns; the built
        index starts its query pool at the first query, an opened one at
        open, and close reaps it."""
        before = set(multiprocessing.active_children())
        config = _config(num_shards=2, shard_workers=2)
        index = ShardedIndex.build(data, config, directory=tmp_path / "idx")
        assert not _new_children(before)
        index.knn(queries[0], k=1)
        assert len(_new_children(before)) == 2
        index.close()
        assert not _new_children(before)
        ShardedIndex.build(data, config, directory=tmp_path / "idx").close()
        assert not _new_children(before)
        index = ShardedIndex.open(tmp_path / "idx", workers=2)
        assert len(_new_children(before)) == 2
        index.close()
        assert not _new_children(before)

    def test_failed_start_at_the_first_query_leaks_no_worker(
        self, data, queries, tmp_path
    ):
        from repro.errors import ShardError
        from repro.storage import faults

        before = set(multiprocessing.active_children())
        config = _config(num_shards=2, shard_workers=2)
        with ShardedIndex.build(data, config, directory=tmp_path / "idx") as index:
            plan = faults.FaultPlan(op="read", at=1, mode="kill")
            with faults.ship_plans({1: plan}), pytest.raises(ShardError):
                index.knn(queries[0], k=1)
            assert not _new_children(before)
            # The next query starts a fresh pool.
            assert len(index.knn(queries[0], k=1).distances) == 1
        assert not _new_children(before)

    def test_zero_workers_is_an_error(self, sharded):
        with pytest.raises(ValueError, match="shard_workers must be >= 1"):
            _config(num_shards=2, shard_workers=0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ShardedIndex.open(sharded.directory, workers=0)

    def test_closed_index_refuses_queries(self, data, queries, tmp_path):
        index = ShardedIndex.build(
            data,
            _config(num_shards=2, shard_workers=1),
            directory=tmp_path / "closed",
        )
        index.close()
        index.close()  # idempotent
        with pytest.raises(IndexStateError, match="closed"):
            index.knn(queries[0], k=1)

    def test_context_manager_and_repr(self, data, tmp_path):
        with ShardedIndex.build(
            data,
            _config(num_shards=2, shard_workers=1),
            directory=tmp_path / "ctx",
        ) as index:
            assert "2 shards" in repr(index)
            assert index.num_series == data.shape[0]
