"""Query re-send + graceful degradation semantics.

Shard failures are real storage faults in the pool workers, injected by
fault plans shipped to the workers as ``open`` starts them.  Each shard
has its own worker, so a plan keyed by a shard id breaks exactly that
shard.  A failed shard is re-sent once; the degradation *policy*
(re-send accounting, partial-results gating, coverage arithmetic,
metrics visibility) is independent of how a shard fails.
"""

import contextlib
import dataclasses
import multiprocessing
import time

import numpy as np
import pytest

from repro import obs
from repro.core import HerculesConfig, ShardedIndex
from repro.errors import ConfigError, ShardError, ShardTimeoutError
from repro.obs import MetricsRegistry
from repro.storage import faults

from ..conftest import make_random_walks

N_ROWS = 240
LENGTH = 32
N_SHARDS = 3


def _config(**overrides):
    base = dict(
        leaf_capacity=20,
        num_shards=N_SHARDS,
        shard_workers=N_SHARDS,
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


@pytest.fixture(scope="module")
def directory(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("degradation") / "idx"
    ShardedIndex.build(data, _config(), directory=path).close()
    return path


@contextlib.contextmanager
def _served(directory, plans=None):
    """The index opened with one worker per shard, ``plans`` shipped to
    the workers it starts."""
    with faults.ship_plans(plans or {}):
        index = ShardedIndex.open(directory, workers=N_SHARDS)
    try:
        yield index
    finally:
        index.close()


@pytest.fixture()
def index(directory):
    with _served(directory) as idx:
        yield idx


#: Opening a shard reads twice; a worker's first query read is the third.
FIRST_QUERY_READ = 3


def _broken(directory, *shard_ids, once=False):
    """The index served with the listed shards' query reads failing.  By
    default every read fails, outlasting the file layer's own retries, so
    the attempt and its re-send fail; ``once`` crashes only the first
    query read, so the shard's re-send succeeds."""
    if once:
        plan = faults.FaultPlan(op="read", at=FIRST_QUERY_READ, mode="crash")
    else:
        plan = faults.FaultPlan(
            op="read", at=FIRST_QUERY_READ, mode="transient", failures=10**6
        )
    return _served(directory, {shard_id: plan for shard_id in shard_ids})


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
    def test_failed_shard_raises_shard_error_naming_it(self, directory, query):
        with _broken(directory, 1) as index:
            with pytest.raises(ShardError, match=r"shard\(s\) \[1\]"):
                index.knn(query, k=5)

    def test_error_suggests_partial_results(self, directory, query):
        with _broken(directory, 2) as index:
            with pytest.raises(ShardError, match="partial_results"):
                index.knn(query, k=5)

    def test_config_partial_results_field_also_gates(self, directory, query):
        with _broken(directory, 0) as index:
            config = index.config.with_options(partial_results=True)
            answer = index.knn(query, k=5, config=config)
        assert answer.degraded

    def test_bad_arguments_are_not_degradation(self, index, query):
        # A non-storage fault propagates immediately, never retried
        # or dropped — it is a caller bug, not a shard failure.  This
        # config skips validation, so only the workers see that it is bad.
        bad = dataclasses.replace(index.config)
        object.__setattr__(bad, "l_max", 0)
        with pytest.raises(ConfigError, match="l_max must be"):
            index.knn(query, k=5, config=bad, partial_results=True)
        assert not index.knn(query, k=5).degraded
        # So is k = 0, at any worker count and on both calls.
        for workers in (1, N_SHARDS):
            with ShardedIndex.open(index.directory, workers=workers) as fresh:
                with pytest.raises(ValueError, match="k must be"):
                    fresh.knn(query, k=0, partial_results=True)
                with pytest.raises(ValueError, match="k must be"):
                    fresh.knn_batch(query[None], k=0, partial_results=True)
                assert not fresh.knn(query, k=5).degraded


class TestPartialResults:
    def test_degraded_answer_flags_and_coverage(self, directory, query, data):
        with _broken(directory, 1) as index:
            answer = index.knn(query, k=5, partial_results=True)
            start, stop = _shard_rows(index, 1)
        assert answer.degraded
        expected_coverage = (N_ROWS - (stop - start)) / N_ROWS
        assert answer.coverage == pytest.approx(expected_coverage)
        assert [sid for sid, _ in answer.shard_errors] == [1]
        assert "injected transient read error" in answer.shard_errors[0][1]

    def test_degraded_answer_is_exact_over_surviving_rows(
        self, directory, query, data
    ):
        k = 7
        with _broken(directory, 1) as index:
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
        with _broken(index.directory, 2) as broken:
            degraded = broken.knn(query, k=k, partial_results=True)
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

    def test_every_shard_failing_still_raises(self, directory, query):
        with _broken(directory, *range(N_SHARDS)) as index:
            with pytest.raises(ShardError, match="every shard failed"):
                index.knn(query, k=5, partial_results=True)

    def test_approx_mode_degrades_too(self, directory, query):
        with _broken(directory, 0) as index:
            index.config = index.config.with_options(partial_results=True)
            answer = index.knn_approx(query, k=3)
        assert answer.degraded
        assert answer.coverage < 1.0


class TestRetries:
    def test_transient_fault_recovers_without_degradation(
        self, index, query, data
    ):
        fault_free = index.knn(query, k=5)
        with _broken(index.directory, 1, once=True) as broken:
            answer = broken.knn(query, k=5)
        assert not answer.degraded
        assert answer.retries == 1  # two attempts: the failed one and its re-send
        np.testing.assert_array_equal(answer.positions, fault_free.positions)
        np.testing.assert_allclose(
            answer.distances, fault_free.distances, rtol=1e-6
        )

    def test_retries_exhaust_then_degrade(self, directory, query):
        with _broken(directory, 1) as index:
            answer = index.knn(query, k=5, partial_results=True)
        assert answer.degraded
        assert answer.retries == 1  # one re-send, then the shard is dropped


def _stall_plan(seconds, fence=None):
    """Stall a pool worker's first query read."""
    return faults.FaultPlan(
        op="read", at=FIRST_QUERY_READ, mode="stall", stall_seconds=seconds,
        fence=fence,
    )


class TestDeadline:
    """The pool enforces ``shard_timeout`` preemptively: a stalled worker
    is killed and restarted, and its shard re-sent once.  One worker per
    shard, so a stall in shard 2's worker holds up no other shard.  The
    stall plan stays shipped across the call, so the restarted worker
    stalls on the re-sent task too."""

    def test_slow_shard_is_abandoned_at_the_deadline(self, directory, query):
        plans = {2: _stall_plan(5.0)}
        with _served(directory, plans) as pooled, faults.ship_plans(plans):
            config = pooled.config.with_options(shard_timeout=0.3)
            started = time.monotonic()
            answer = pooled.knn(
                query, k=5, config=config, partial_results=True
            )
            assert time.monotonic() - started < 4.0
        assert answer.degraded
        assert [sid for sid, _ in answer.shard_errors] == [2]
        assert "timeout" in answer.shard_errors[0][1]

    def test_timeout_without_partial_raises_timeout_error(self, directory, query):
        plans = {2: _stall_plan(5.0)}
        with _served(directory, plans) as pooled, faults.ship_plans(plans):
            config = pooled.config.with_options(shard_timeout=0.3)
            started = time.monotonic()
            with pytest.raises(ShardTimeoutError, match=r"shard\(s\) \[2\]"):
                pooled.knn(query, k=5, config=config)
            assert time.monotonic() - started < 4.0

    def test_stalled_worker_is_restarted_and_retried(
        self, index, query, tmp_path
    ):
        fault_free = index.knn(query, k=5)
        fence = tmp_path / "stall-fence"
        plans = {2: _stall_plan(3.0, fence=str(fence))}
        with _served(index.directory, plans) as pooled:
            config = pooled.config.with_options(shard_timeout=1.0)
            answer = pooled.knn(query, k=5, config=config)
            assert fence.exists()
            assert pooled._pool.worker_restarts == 1
        assert answer.retries == 1
        assert not answer.degraded
        np.testing.assert_array_equal(answer.positions, fault_free.positions)
        np.testing.assert_array_equal(answer.distances, fault_free.distances)

    @pytest.mark.parametrize("partial", [True, False])
    def test_hung_replacement_costs_one_more_timeout(self, directory, query, partial):
        """A replacement worker that hangs while re-opening its shards is
        bounded by the call's ``shard_timeout``, not by the hang: worker 0
        dies between calls, and the call's restart of it stalls 5 s on
        its first read (opening shard 0).  The call ends flagged, or in
        a named error, well within 2 × ``shard_timeout`` plus a restart."""
        stall = {0: faults.FaultPlan(op="read", at=1, mode="stall", stall_seconds=5.0)}
        with _served(directory) as pooled:
            pooled._pool.stop(0)
            config = pooled.config.with_options(shard_timeout=0.5)
            with faults.ship_plans(stall):
                started = time.monotonic()
                if partial:
                    answer = pooled.knn(query, k=5, config=config, partial_results=True)
                else:
                    with pytest.raises(ShardTimeoutError, match=r"shard\(s\) \[0\]"):
                        pooled.knn(query, k=5, config=config)
                elapsed = time.monotonic() - started
            assert elapsed < 2.5
        if partial:
            assert answer.degraded
            assert [sid for sid, _ in answer.shard_errors] == [0]
            assert "not ready within its 0.5s start timeout" in answer.shard_errors[0][1]


class TestPoolStartFailure:
    def test_failed_pool_start_leaks_nothing(self, directory, monkeypatch):
        """A worker killed while opening its shards fails the open, and
        neither its sibling workers nor the coordinator's shards outlive
        the failure."""
        from repro.core import HerculesIndex

        opened = []
        real_open = HerculesIndex.open.__func__

        def recording_open(cls, *args, **kwargs):
            shard = real_open(cls, *args, **kwargs)
            opened.append(shard)
            return shard

        monkeypatch.setattr(HerculesIndex, "open", classmethod(recording_open))
        before = set(multiprocessing.active_children())
        plan = faults.FaultPlan(op="read", at=1, mode="kill")
        with pytest.raises(ShardError):
            with _served(directory, {1: plan}):
                pass
        assert set(multiprocessing.active_children()) <= before
        assert len(opened) == N_SHARDS
        assert all(shard._closed for shard in opened)


class TestMetricsVisibility:
    def test_degradation_reaches_the_registry(self, directory, query):
        registry = MetricsRegistry()
        with _broken(directory, 1) as index:
            answer = index.knn(query, k=5, partial_results=True)
        obs.record_answer(registry, answer, num_series=N_ROWS)
        summary = registry.summary()
        assert summary["counters"]["query.degraded"] == 1
        assert summary["counters"]["shard.dropped"] == 1
        coverage = summary["histograms"]["query.coverage"]
        assert coverage["count"] == 1
        assert coverage["max"] < 1.0

    def test_retries_reach_the_registry(self, directory, query):
        registry = MetricsRegistry()
        with _broken(directory, 0, once=True) as index:
            answer = index.knn(query, k=5)
        obs.record_answer(registry, answer, num_series=N_ROWS)
        summary = registry.summary()
        assert summary["counters"]["shard.retries"] == 1
        assert "query.degraded" not in summary["counters"]

    def test_healthy_query_records_full_coverage(self, index, query):
        registry = MetricsRegistry()
        answer = index.knn(query, k=5)
        obs.record_answer(registry, answer, num_series=index.num_series)
        summary = registry.summary()
        coverage = summary["histograms"]["query.coverage"]
        assert coverage["min"] == 1.0

    def test_workload_summary_mentions_resilience(self, directory, query):
        from repro.obs import explain_workload_summary

        registry = MetricsRegistry()
        with _broken(directory, 2) as index:
            answer = index.knn(query, k=5, partial_results=True)
        obs.record_answer(registry, answer, num_series=N_ROWS)
        text = explain_workload_summary(registry)
        assert "resilience:" in text
        assert "1 degraded answers" in text
