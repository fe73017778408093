"""Build-worker supervision: dead workers, stalls, malformed replies.

The scripted workers here are top-level functions (picklable under any
start method) with the signature of :func:`run_worker` that misbehave
in one specific way — die on receiving a task, hang forever, answer out
of protocol, or fail once — injected into
:func:`build_shards_in_processes` through its ``worker_main`` hook.
One-shot misbehaviour is latched through an ``O_EXCL`` file named in the
environment, so the respawned replacement behaves normally and the test
asserts *recovery*, not just failure.
"""

import contextlib
import os
import time

import pytest

from repro.core import HerculesConfig, HerculesIndex, partition_rows
from repro.core.shard_worker import (
    BuildOutcome,
    build_shards_in_processes,
    mp_context,
    reap_processes,
    run_worker,
)
from repro.errors import ShardError, WorkerSupervisionError

from ..conftest import make_random_walks, quick_shard_timings

LATCH_ENV = "REPRO_TEST_SUPERVISION_LATCH"


def _claim_latch() -> bool:
    """True exactly once per latch file across every process."""
    try:
        fd = os.open(os.environ[LATCH_ENV], os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _die_once_worker(conn, *args) -> None:
    """Takes a task, works on it a moment, then dies — but only the
    first worker to run."""
    if _claim_latch():
        conn.send(("ready", os.getpid()))
        conn.recv()
        time.sleep(0.5)
        os._exit(3)
    run_worker(conn, *args)


def _die_on_first_task_worker(conn, *args) -> None:
    """Dies the moment its first task arrives, before any reply — but
    only the first worker to run."""
    if _claim_latch():
        conn.send(("ready", os.getpid()))
        conn.recv()
        os._exit(3)
    run_worker(conn, *args)


def _die_always_worker(conn, *args) -> None:
    """Every incarnation takes a task and dies."""
    conn.send(("ready", os.getpid()))
    conn.recv()
    time.sleep(0.3)
    os._exit(5)


def _hang_worker(conn, *args) -> None:
    """Starts, then never replies: pure stall."""
    conn.send(("ready", os.getpid()))
    time.sleep(600)


def _malformed_worker(conn, *args) -> None:
    """Replies out of protocol."""
    conn.send(("ready", os.getpid()))
    conn.recv()
    conn.send("scrambled nonsense")
    time.sleep(600)


@contextlib.contextmanager
def _failing_handler(make_handler, handler_args, once):
    """The real build handler, except that tasks report a scripted
    failure — only the first task anywhere when ``once``."""
    with make_handler(*handler_args) as handle:

        def scripted(shard_id, *task):
            if not once or _claim_latch():
                return ("error", shard_id, "scripted failure")
            return handle(shard_id, *task)

        yield scripted


def _error_once_worker(conn, make_handler, handler_args) -> None:
    """Reports one scripted in-worker build failure, then behaves."""
    run_worker(conn, _failing_handler, (make_handler, handler_args, True))


def _error_always_worker(conn, make_handler, handler_args) -> None:
    """Reports every task as failed, forever."""
    run_worker(conn, _failing_handler, (make_handler, handler_args, False))


def _config(**overrides):
    base = dict(leaf_capacity=20)
    base.update(overrides)
    return HerculesConfig(**base)


@pytest.fixture(scope="module", autouse=True)
def _quick_timings():
    with quick_shard_timings(stall_timeout=60.0, join_timeout=5.0):
        yield


@pytest.fixture()
def latch(tmp_path, monkeypatch):
    path = tmp_path / "latch"
    monkeypatch.setenv(LATCH_ENV, str(path))
    return path


def _run(tmp_path, worker_main, config, num_shards=3, rows=90):
    data = make_random_walks(rows, 16, seed=3)
    ranges = partition_rows(rows, num_shards)
    shard_dirs = [tmp_path / f"shard-{i:04d}" for i in range(num_shards)]
    replies, supervision = build_shards_in_processes(
        data, ranges, shard_dirs, config, workers=2,
        trace_enabled=False, worker_main=worker_main,
    )
    return data, ranges, shard_dirs, replies, supervision


class TestDeadWorkerRecovery:
    def test_requeues_and_respawns_after_worker_death(self, tmp_path, latch, monkeypatch):
        notes = []
        monkeypatch.setattr(BuildOutcome, "note", lambda outcome, message: notes.append(message))
        data, ranges, shard_dirs, replies, supervision = _run(
            tmp_path, _die_once_worker, _config()
        )
        assert supervision.worker_restarts == 1
        assert supervision.requeued_tasks >= 1
        assert any("re-sent" in message for message in notes)
        assert sorted(replies) == [0, 1, 2]
        # The requeued shard rebuilt from clean ground into a valid index.
        for (start, stop), shard_dir in zip(ranges, shard_dirs):
            with HerculesIndex.open(shard_dir) as shard:
                assert shard.num_series == stop - start
                answer = shard.knn(data[start], k=1)
                assert answer.distances[0] == pytest.approx(0.0, abs=1e-5)

    def test_death_on_first_task_loses_no_shard(self, tmp_path, latch):
        started = time.monotonic()
        _, _, _, replies, supervision = _run(
            tmp_path,
            _die_on_first_task_worker,
            _config(),
        )
        assert sorted(replies) == [0, 1, 2]
        assert supervision.worker_restarts == 1
        assert supervision.requeued_tasks == 1
        assert time.monotonic() - started < 10.0

    def test_a_shard_that_fails_twice_fails_loudly(self, tmp_path):
        with pytest.raises(WorkerSupervisionError, match="died twice"):
            _run(tmp_path, _die_always_worker, _config())


class TestStallDetection:
    def test_stalled_build_hits_watchdog(self, tmp_path):
        with quick_shard_timings(stall_timeout=0.5):
            with pytest.raises(WorkerSupervisionError, match="stalled"):
                _run(tmp_path, _hang_worker, _config())


class TestProtocolValidation:
    def test_malformed_reply_raises_shard_error(self, tmp_path):
        with pytest.raises(ShardError, match="malformed reply"):
            _run(tmp_path, _malformed_worker, _config())


class TestInWorkerErrors:
    def test_error_reply_is_retried_then_succeeds(self, tmp_path, latch):
        data, ranges, shard_dirs, replies, supervision = _run(
            tmp_path, _error_once_worker, _config()
        )
        assert supervision.task_retries == 1
        assert supervision.worker_restarts == 0
        assert sorted(replies) == [0, 1, 2]

    def test_error_reply_exhausts_attempts(self, tmp_path):
        with pytest.raises(ShardError, match="after 2 attempts"):
            _run(tmp_path, _error_always_worker, _config())


class TestReapEscalation:
    def test_reap_escalates_stuck_process(self):
        ctx = mp_context()
        proc = ctx.Process(target=time.sleep, args=(600,), daemon=True)
        proc.start()
        escalated = reap_processes([proc], timeout=0.2, label="test")
        assert escalated == 1
        assert not proc.is_alive()

    def test_reap_leaves_prompt_exits_alone(self):
        ctx = mp_context()
        proc = ctx.Process(target=time.sleep, args=(0.01,), daemon=True)
        proc.start()
        escalated = reap_processes([proc], timeout=5.0, label="test")
        assert escalated == 0
        assert not proc.is_alive()


class TestSupervisionSurfacing:
    def test_restart_counts_reach_build_report_and_metrics(
        self, tmp_path, latch
    ):
        from repro import obs
        from repro.core import ShardedIndex

        data = make_random_walks(90, 16, seed=3)
        import repro.core.shard_worker as sw

        original = sw.build_shards_in_processes

        def with_scripted_worker(*args, **kwargs):
            kwargs["worker_main"] = _die_once_worker
            return original(*args, **kwargs)

        import unittest.mock as mock

        with mock.patch.object(
            sw, "build_shards_in_processes", with_scripted_worker
        ), mock.patch(
            "repro.core.sharding.build_shards_in_processes",
            with_scripted_worker,
        ):
            index = ShardedIndex.build(
                data,
                _config(num_shards=3, shard_workers=2),
                directory=tmp_path / "idx",
            )
        report = index.build_report
        assert report.worker_restarts == 1
        assert report.requeued_tasks >= 1
        registry = obs.MetricsRegistry()
        obs.record_build(registry, report)
        summary = registry.summary()
        assert summary["counters"]["build.worker_restarts"] == 1
        assert summary["counters"]["build.requeued_tasks"] >= 1
        index.close()
