"""Query retry + graceful degradation semantics.

Most shard failures are simulated in-process, where the scatter answers
shard after shard on the calling thread, by patching the call it makes on
individual shards (``_search``, the one pipeline call serving ``knn``,
``knn_batch`` and ``knn_approx``) — the degradation *policy* (retry accounting,
partial-results gating, coverage arithmetic, metrics visibility) is
independent of how a shard fails.  Deadlines and ``shard_timeout`` are
enforced preemptively only by the worker pool, so :class:`TestDeadline`
stalls a real pool worker with a shipped fault plan; the cross-process
chaos tests exercise real storage faults.
"""

import time

import numpy as np
import pytest

from repro.core import HerculesConfig, ShardedIndex, record_sharded_profile
from repro.errors import ShardError, ShardTimeoutError, StorageError
from repro.obs import MetricsRegistry
from repro.storage import faults

from ..conftest import make_random_walks

N_ROWS = 240
LENGTH = 32
N_SHARDS = 3


def _config(**overrides):
    base = dict(
        leaf_capacity=20,
        num_build_threads=1,
        flush_threshold=1,
        num_shards=N_SHARDS,
        shard_workers=0,
        shard_retry_attempts=1,
        shard_retry_backoff=0.001,
    )
    base.update(overrides)
    return HerculesConfig(**base)


@pytest.fixture(scope="module")
def data():
    return make_random_walks(N_ROWS, LENGTH, seed=11)


@pytest.fixture(scope="module")
def query(data):
    rng = np.random.default_rng(5)
    return (data[7] + 0.05 * rng.standard_normal(LENGTH)).astype(np.float32)


@pytest.fixture()
def index(data, tmp_path):
    idx = ShardedIndex.build(data, _config(), directory=tmp_path / "idx")
    yield idx
    idx.close()


def _fail_shard(index, shard_id, exc=None):
    """Make one shard raise on every search attempt."""
    exc = exc if exc is not None else StorageError("simulated shard fault")

    def raise_fault(*args, **kwargs):
        raise exc

    index.shards[shard_id]._search = raise_fault


def _shard_rows(index, shard_id):
    record = index.manifest.shards[shard_id]
    return record.row_base, record.row_base + record.num_series


def brute_force(data, query, k, exclude=()):
    """Exact sorted top-k distances outside the excluded row ranges.

    Answer *positions* are physical LRDFile positions (shard ``row_base``
    + in-shard layout order), not input row indices, so correctness is
    asserted on distances; each shard holds a contiguous input row range,
    which is what ``exclude`` masks.
    """
    d = np.sqrt(
        ((data.astype(np.float64) - query.astype(np.float64)) ** 2).sum(axis=1)
    )
    for start, stop in exclude:
        d[start:stop] = np.inf
    return np.sort(d)[:k]


class TestExactModeRefusesSilentDegradation:
    def test_failed_shard_raises_shard_error_naming_it(self, index, query):
        _fail_shard(index, 1)
        with pytest.raises(ShardError, match=r"shard\(s\) \[1\]"):
            index.knn(query, k=5)

    def test_error_suggests_partial_results(self, index, query):
        _fail_shard(index, 2)
        with pytest.raises(ShardError, match="partial_results"):
            index.knn(query, k=5)

    def test_config_partial_results_field_also_gates(self, index, query):
        _fail_shard(index, 0)
        config = index.config.with_options(partial_results=True)
        answer = index.knn(query, k=5, config=config)
        assert answer.degraded

    def test_bad_arguments_are_not_degradation(self, index, query):
        # A non-storage fault propagates immediately, never retried
        # or dropped — it is a caller bug, not a shard failure.
        _fail_shard(index, 1, exc=ValueError("bad query"))
        with pytest.raises(ValueError, match="bad query"):
            index.knn(query, k=5, partial_results=True)
        # So is k = 0 on both scatter paths and both calls: a pool
        # worker ships the error home rather than a shard fault.
        for workers in (None, 2):
            with ShardedIndex.open(index.directory, workers=workers) as fresh:
                with pytest.raises(ValueError, match="k must be"):
                    fresh.knn(query, k=0, partial_results=True)
                with pytest.raises(ValueError, match="k must be"):
                    fresh.knn_batch(query[None], k=0, partial_results=True)
                assert not fresh.knn(query, k=5).degraded


class TestPartialResults:
    def test_degraded_answer_flags_and_coverage(self, index, query, data):
        _fail_shard(index, 1)
        answer = index.knn(query, k=5, partial_results=True)
        assert answer.degraded
        start, stop = _shard_rows(index, 1)
        expected_coverage = (N_ROWS - (stop - start)) / N_ROWS
        assert answer.coverage == pytest.approx(expected_coverage)
        assert [sid for sid, _ in answer.shard_errors] == [1]
        assert "simulated shard fault" in answer.shard_errors[0][1]

    def test_degraded_answer_is_exact_over_surviving_rows(
        self, index, query, data
    ):
        _fail_shard(index, 1)
        k = 7
        answer = index.knn(query, k=k, partial_results=True)
        expected_d = brute_force(
            data, query, k, exclude=[_shard_rows(index, 1)]
        )
        np.testing.assert_allclose(
            answer.distances, expected_d, rtol=1e-5, atol=1e-5
        )
        # No reported position may fall inside the dropped shard's
        # global position range, and each must hold the series whose
        # distance was reported.
        start, stop = _shard_rows(index, 1)
        for position, distance in zip(answer.positions, answer.distances):
            assert not start <= position < stop
            series = index.get_series(int(position))
            actual = np.sqrt(
                ((series.astype(np.float64) - query) ** 2).sum()
            )
            assert actual == pytest.approx(distance, rel=1e-5)

    def test_degraded_equals_fault_free_restricted_to_survivors(
        self, index, query, data
    ):
        k = 7
        fault_free = index.knn(query, k=N_ROWS // 2)
        _fail_shard(index, 2)
        degraded = index.knn(query, k=k, partial_results=True)
        start, stop = _shard_rows(index, 2)
        keep = (fault_free.positions < start) | (fault_free.positions >= stop)
        restricted = fault_free.positions[keep][:k]
        np.testing.assert_array_equal(degraded.positions, restricted)

    def test_healthy_query_is_not_degraded(self, index, query):
        answer = index.knn(query, k=5, partial_results=True)
        assert not answer.degraded
        assert answer.coverage == 1.0
        assert answer.shard_errors == ()
        assert answer.retries == 0

    def test_every_shard_failing_still_raises(self, index, query):
        for shard_id in range(N_SHARDS):
            _fail_shard(index, shard_id)
        with pytest.raises(ShardError, match="every shard failed"):
            index.knn(query, k=5, partial_results=True)

    def test_approx_mode_degrades_too(self, index, query):
        _fail_shard(index, 0)
        index.config = index.config.with_options(partial_results=True)
        answer = index.knn_approx(query, k=3)
        assert answer.degraded
        assert answer.coverage < 1.0


class TestRetries:
    def test_transient_fault_recovers_without_degradation(
        self, index, query, data
    ):
        fault_free = index.knn(query, k=5)
        shard = index.shards[1]
        real_knn = shard._search
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise StorageError("transient blip")
            return real_knn(*args, **kwargs)

        shard._search = flaky
        config = index.config.with_options(shard_retry_attempts=3)
        answer = index.knn(query, k=5, config=config)
        assert not answer.degraded
        assert answer.retries == 1
        assert calls["n"] == 2
        np.testing.assert_array_equal(answer.positions, fault_free.positions)
        np.testing.assert_allclose(
            answer.distances, fault_free.distances, rtol=1e-6
        )

    def test_retries_exhaust_then_degrade(self, index, query):
        _fail_shard(index, 1)
        config = index.config.with_options(shard_retry_attempts=3)
        answer = index.knn(query, k=5, config=config, partial_results=True)
        assert answer.degraded
        assert answer.retries == 2  # attempts 1→2 and 2→3


def _stall_plan(seconds, fence=None):
    """Stall a pool worker's first query read (two reads open a shard)."""
    return faults.FaultPlan(
        op="read", at=3, mode="stall", stall_seconds=seconds, fence=fence
    )


class TestDeadline:
    """The pool enforces the deadline and ``shard_timeout`` preemptively:
    a stalled worker is killed and restarted.  One worker per shard, so
    a stall in shard 2's worker holds up no other shard."""

    def _pool(self, index, plan):
        with faults.ship_plans({2: plan}):
            return ShardedIndex.open(index.directory, workers=N_SHARDS)

    def test_slow_shard_is_abandoned_at_the_deadline(self, index, query):
        pooled = self._pool(index, _stall_plan(5.0))
        try:
            config = pooled.config.with_options(query_deadline=0.3)
            started = time.monotonic()
            answer = pooled.knn(
                query, k=5, config=config, partial_results=True
            )
            assert time.monotonic() - started < 4.0
            assert answer.degraded
            assert [sid for sid, _ in answer.shard_errors] == [2]
            assert "timeout" in answer.shard_errors[0][1]
        finally:
            pooled.close()

    def test_timeout_without_partial_raises_timeout_error(self, index, query):
        pooled = self._pool(index, _stall_plan(5.0))
        try:
            config = pooled.config.with_options(query_deadline=0.3)
            started = time.monotonic()
            with pytest.raises(ShardTimeoutError, match=r"shard\(s\) \[2\]"):
                pooled.knn(query, k=5, config=config)
            assert time.monotonic() - started < 4.0
        finally:
            pooled.close()

    def test_stalled_worker_is_restarted_and_retried(
        self, index, query, tmp_path
    ):
        fault_free = index.knn(query, k=5)
        fence = tmp_path / "stall-fence"
        pooled = self._pool(index, _stall_plan(3.0, fence=str(fence)))
        try:
            config = pooled.config.with_options(
                shard_timeout=1.0, shard_retry_attempts=2
            )
            answer = pooled.knn(query, k=5, config=config)
            assert fence.exists()
            assert pooled._pool.worker_restarts == 1
            assert answer.retries == 1
            assert not answer.degraded
            np.testing.assert_array_equal(
                answer.positions, fault_free.positions
            )
            np.testing.assert_array_equal(
                answer.distances, fault_free.distances
            )
        finally:
            pooled.close()

    def test_in_process_shards_past_the_deadline_never_start(
        self, index, query
    ):
        # In-process, a running shard is never interrupted: shard 0
        # overruns the deadline but answers, and the loop starts no
        # shard after it.
        real_search = index.shards[0]._search

        def slow(*args, **kwargs):
            time.sleep(0.4)
            return real_search(*args, **kwargs)

        index.shards[0]._search = slow
        _fail_shard(index, 1, exc=AssertionError("shard 1 started"))
        _fail_shard(index, 2, exc=AssertionError("shard 2 started"))
        config = index.config.with_options(query_deadline=0.2)
        answer = index.knn(query, k=5, config=config, partial_results=True)
        assert answer.degraded
        assert [sid for sid, _ in answer.shard_errors] == [1, 2]
        for sid, reason in answer.shard_errors:
            assert f"shard {sid} ran past the 0.20s query deadline" in reason
        start, stop = _shard_rows(index, 0)
        assert answer.coverage == pytest.approx((stop - start) / N_ROWS)
        with pytest.raises(ShardTimeoutError, match=r"shard\(s\) \[1, 2\]"):
            index.knn(query, k=5, config=config)


class TestMetricsVisibility:
    def test_degradation_reaches_the_registry(self, index, query):
        _fail_shard(index, 1)
        registry = MetricsRegistry()
        answer = index.knn(query, k=5, partial_results=True)
        record_sharded_profile(registry, answer, num_series=index.num_series)
        summary = registry.summary()
        assert summary["counters"]["query.degraded"] == 1
        assert summary["counters"]["shard.dropped"] == 1
        coverage = summary["histograms"]["query.coverage"]
        assert coverage["count"] == 1
        assert coverage["max"] < 1.0

    def test_retries_reach_the_registry(self, index, query):
        shard = index.shards[0]
        real_knn = shard._search
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise StorageError("transient blip")
            return real_knn(*args, **kwargs)

        shard._search = flaky
        config = index.config.with_options(shard_retry_attempts=2)
        registry = MetricsRegistry()
        answer = index.knn(query, k=5, config=config)
        record_sharded_profile(registry, answer, num_series=index.num_series)
        summary = registry.summary()
        assert summary["counters"]["shard.retries"] == 1
        assert "query.degraded" not in summary["counters"]

    def test_healthy_query_records_full_coverage(self, index, query):
        registry = MetricsRegistry()
        answer = index.knn(query, k=5)
        record_sharded_profile(registry, answer, num_series=index.num_series)
        summary = registry.summary()
        coverage = summary["histograms"]["query.coverage"]
        assert coverage["min"] == 1.0

    def test_workload_summary_mentions_resilience(self, index, query):
        from repro.obs import explain_workload_summary

        _fail_shard(index, 2)
        registry = MetricsRegistry()
        answer = index.knn(query, k=5, partial_results=True)
        record_sharded_profile(registry, answer, num_series=index.num_series)
        text = explain_workload_summary(registry)
        assert "resilience:" in text
        assert "1 degraded answers" in text
