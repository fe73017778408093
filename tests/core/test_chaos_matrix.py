"""Cross-process chaos matrix: faults shipped into real shard workers.

Every scenario asserts one of the two acceptable outcomes — *full
recovery with value-identical answers* or a *correctly-flagged degraded
answer* — never a silently wrong one.  Fault plans travel into worker
processes through the :data:`repro.storage.faults.PLANS_ENV` channel;
``fence`` latches make kill faults fire exactly once machine-wide so the
supervisor's retry succeeds.
"""

import logging
import os

import numpy as np
import pytest

from repro.core import HerculesConfig, ShardedIndex
from repro.errors import ShardError
from repro.storage import faults

from ..conftest import make_random_walks

N_ROWS = 180
LENGTH = 16
N_SHARDS = 2


def _config(**overrides):
    base = dict(
        leaf_capacity=20,
        num_build_threads=1,
        flush_threshold=1,
        num_shards=N_SHARDS,
        shard_workers=2,
        shard_retry_attempts=2,
        shard_retry_backoff=0.001,
        build_join_timeout=5.0,
        query_join_timeout=5.0,
    )
    base.update(overrides)
    return HerculesConfig(**base)


@pytest.fixture(scope="module")
def data():
    return make_random_walks(N_ROWS, LENGTH, seed=21)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(9)
    noise = 0.05 * rng.standard_normal((3, LENGTH))
    return (data[:3] + noise).astype(np.float32)


@pytest.fixture(scope="module")
def fault_free(data, queries, tmp_path_factory):
    """The reference build + answers no chaos scenario may contradict."""
    directory = tmp_path_factory.mktemp("reference") / "idx"
    index = ShardedIndex.build(data, _config(), directory=directory)
    answers = [index.knn(q, k=5) for q in queries]
    index.close()
    return directory, answers


def _assert_identical_answers(actual, expected):
    np.testing.assert_array_equal(actual.positions, expected.positions)
    np.testing.assert_allclose(
        actual.distances, expected.distances, rtol=1e-6, atol=1e-6
    )


class TestBuildChaos:
    def test_killed_worker_recovers_to_identical_tree(
        self, data, queries, fault_free, tmp_path
    ):
        """An OOM-shaped kill mid-build is absorbed: the supervisor wipes
        and requeues the dead worker's shard, and the finished index is
        value-identical to the fault-free one."""
        _, expected_answers = fault_free
        fence = tmp_path / "kill-once"
        plan = faults.FaultPlan(
            op="write", at=3, mode="kill", fence=str(fence)
        )
        with faults.ship_plans({0: plan}):
            index = ShardedIndex.build(
                data,
                _config(max_worker_restarts=2),
                directory=tmp_path / "idx",
            )
        assert fence.exists(), "the kill plan never fired"
        assert index.build_report.worker_restarts >= 1
        assert index.build_report.requeued_tasks >= 1
        for query, expected in zip(queries, expected_answers):
            _assert_identical_answers(index.knn(query, k=5), expected)
        index.close()

    def test_kill_without_restart_budget_fails_loudly(self, data, tmp_path):
        # No fence: the kill re-fires in every worker incarnation, so
        # with a zero restart budget every worker dies and the
        # supervisor must give up loudly.
        plan = faults.FaultPlan(op="write", at=3, mode="kill")
        with faults.ship_plans({"*": plan}):
            with pytest.raises(ShardError):
                ShardedIndex.build(
                    data,
                    _config(max_worker_restarts=0),
                    directory=tmp_path / "idx",
                )

    def test_transient_write_faults_are_absorbed_in_workers(
        self, data, queries, fault_free, tmp_path
    ):
        """A shard whose build crashes once (in-worker error reply) is
        retried from clean ground and ends value-identical."""
        _, expected_answers = fault_free
        fence = tmp_path / "crash-once"
        plan = faults.FaultPlan(
            op="write", at=5, mode="crash", fence=str(fence)
        )
        with faults.ship_plans({1: plan}):
            index = ShardedIndex.build(
                data, _config(), directory=tmp_path / "idx"
            )
        assert fence.exists()
        assert index.build_report.task_retries >= 1
        for query, expected in zip(queries, expected_answers):
            _assert_identical_answers(index.knn(query, k=5), expected)
        index.close()


class TestQueryChaos:
    def test_transient_reads_during_worker_life_recover_identically(
        self, queries, fault_free
    ):
        """Flaky reads inside a query worker are retried by the file
        layer; answers stay value-identical and undegraded."""
        directory, expected_answers = fault_free
        plan = faults.FaultPlan(op="read", at=1, mode="transient", failures=2)
        with faults.ship_plans({"*": plan}):
            index = ShardedIndex.open(directory, workers=2)
        try:
            for query, expected in zip(queries, expected_answers):
                answer = index.knn(query, k=5)
                assert not answer.degraded
                _assert_identical_answers(answer, expected)
        finally:
            index.close()

    def test_dead_query_worker_is_restarted_transparently(
        self, queries, fault_free
    ):
        directory, expected_answers = fault_free
        index = ShardedIndex.open(directory, workers=2)
        try:
            pool = index._pool
            pool._procs[0].kill()
            pool._procs[0].join(timeout=5.0)
            answer = index.knn(queries[0], k=5)
            assert not answer.degraded
            assert pool.worker_restarts == 1
            _assert_identical_answers(answer, expected_answers[0])
        finally:
            index.close()

    def test_failed_shard_degrades_pool_answers_with_coverage(
        self, data, queries, tmp_path
    ):
        """Corrupting one shard's data file under a live pool degrades
        (under --partial-results) with coverage equal to the surviving
        row fraction, and the surviving results are exact."""
        directory = tmp_path / "idx"
        index = ShardedIndex.build(data, _config(), directory=directory)
        index.close()
        index = ShardedIndex.open(directory, workers=2)
        try:
            reference = [index.knn(q, k=5) for q in queries]
            # Truncate shard 1's raw-data file behind the running pool.
            victim = directory / "shard-0001" / "lrd.bin"
            os.truncate(victim, 64)
            record = index.manifest.shards[1]
            start = record.row_base
            stop = record.row_base + record.num_series
            for query, expected in zip(queries, reference):
                answer = index.knn(query, k=5, partial_results=True)
                assert answer.degraded
                assert answer.coverage == pytest.approx(
                    (N_ROWS - record.num_series) / N_ROWS
                )
                assert [sid for sid, _ in answer.shard_errors] == [1]
                # Exactly the fault-free results restricted to survivors.
                keep = (expected.positions < start) | (
                    expected.positions >= stop
                )
                kept = expected.positions[keep]
                np.testing.assert_array_equal(
                    answer.positions[: len(kept)], kept
                )
            # Exact mode without --partial-results refuses, naming it.
            with pytest.raises(ShardError, match=r"shard\(s\) \[1\]"):
                index.knn(queries[0], k=5)
        finally:
            index.close()


@pytest.fixture()
def restore_repro_logging():
    """Undo `main()`'s configure_logging: it binds a handler to the
    captured stderr and stops propagation, which would break caplog
    (and close-stream logging) in every later test."""
    logger = logging.getLogger("repro")
    handlers = list(logger.handlers)
    propagate = logger.propagate
    level = logger.level
    yield
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    for handler in handlers:
        logger.addHandler(handler)
    logger.propagate = propagate
    logger.setLevel(level)


class TestVerifyIndexDegradedCoverage:
    def test_verify_index_reports_partial_coverage(
        self, data, tmp_path, capsys, restore_repro_logging
    ):
        from repro.cli import main

        directory = tmp_path / "idx"
        index = ShardedIndex.build(
            data, _config(shard_workers=0), directory=directory
        )
        index.close()
        os.truncate(directory / "shard-0001" / "lrd.bin", 64)
        rc = main(["verify-index", str(directory)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "a --partial-results query would cover" in out
        assert "(1/2 shards healthy)" in out
