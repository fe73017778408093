"""Telemetry across process boundaries, including killed workers.

Two layers:

* direct — windowed instruments observed in worker processes (one of
  which is OOM-killed right after exporting, then "respawned" under a
  fresh pid) merge into summaries value-identical to the same
  observations made by threads of one process;
* integrated — a 2-shard chaos build under an active hub: the kill
  fires inside a real shard worker, the supervisor respawns it, and the
  coordinator's journal/registry carry the whole story, which the
  monitor can render from a flushed spool.
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.core import HerculesConfig, ShardedIndex
from repro.core.shard_worker import mp_context, reap_processes
from repro.storage import faults

from ..conftest import make_random_walks, quick_shard_timings

_BASE_TS = 2_000_000.0
_GEOMETRY = dict(window_seconds=30.0, num_buckets=6)


class _FixedClock:
    """Picklable frozen clock shared by every process in a test."""

    def __init__(self, now=_BASE_TS):
        self.now = float(now)

    def __call__(self):
        return self.now


def _windowed_worker(queue, values, die_after_export):
    """Observe ``values`` into fresh windowed instruments and export.

    With ``die_after_export`` the process then dies the way an OOM kill
    would (``os._exit``) — the exported state on the queue is all that
    survives, exactly like a killed shard worker whose last reply made
    it home.
    """
    clock = _FixedClock()
    hist = obs.WindowedHistogram(clock=clock, **_GEOMETRY)
    counter = obs.WindowedCounter(clock=clock, **_GEOMETRY)
    for v in values:
        hist.observe(v)
        counter.inc()
    queue.put({
        "pid": os.getpid(),
        "hist": hist.export_state(),
        "counter": counter.export_state(),
    })
    if die_after_export:
        queue.close()
        queue.join_thread()  # flush the feeder before dying
        os._exit(faults.KILL_EXIT_CODE)


class TestKilledWorkerWindowedMerge:
    def test_threads_and_respawned_processes_are_value_identical(self):
        """The acceptance criterion: the same observations produce
        value-identical rolling percentiles whether they came from
        threads of one process or from a killed-then-respawned pair of
        worker processes whose states were merged."""
        values = [float(v) for v in
                  np.random.default_rng(17).normal(0.1, 0.02, size=120)]
        first, second = values[:60], values[60:]

        ctx = mp_context()
        queue = ctx.Queue()
        killed = ctx.Process(
            target=_windowed_worker, args=(queue, first, True)
        )
        killed.start()
        state_a = queue.get(timeout=30)
        killed.join(timeout=30)
        assert killed.exitcode == faults.KILL_EXIT_CODE

        respawned = ctx.Process(
            target=_windowed_worker, args=(queue, second, False)
        )
        respawned.start()
        state_b = queue.get(timeout=30)
        reap_processes([respawned], timeout=30, label="respawned")
        assert state_b["pid"] != state_a["pid"], "respawn means a fresh pid"

        clock = _FixedClock()
        merged_hist = obs.WindowedHistogram(clock=clock, **_GEOMETRY)
        merged_hist.merge_state(state_a["hist"])
        merged_hist.merge_state(state_b["hist"])
        merged_counter = obs.WindowedCounter(clock=clock, **_GEOMETRY)
        merged_counter.merge_state(state_a["counter"])
        merged_counter.merge_state(state_b["counter"])

        # Thread-side reference: both halves into one shared instrument.
        import threading

        shared_hist = obs.WindowedHistogram(clock=clock, **_GEOMETRY)
        shared_counter = obs.WindowedCounter(clock=clock, **_GEOMETRY)

        def hammer(chunk):
            for v in chunk:
                shared_hist.observe(v)
                shared_counter.inc()

        threads = [threading.Thread(target=hammer, args=(c,))
                   for c in (first, second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert merged_hist.summary() == shared_hist.summary()
        assert merged_counter.summary() == shared_counter.summary()


N_ROWS = 150
LENGTH = 16


def _config(**overrides):
    base = dict(
        leaf_capacity=20,
        num_shards=2,
        shard_workers=2,
    )
    base.update(overrides)
    return HerculesConfig(**base)


@pytest.fixture(scope="module", autouse=True)
def _quick_join():
    with quick_shard_timings(join_timeout=5.0):
        yield


class TestChaosBuildTelemetry:
    def test_killed_build_worker_story_lands_in_the_hub(self, tmp_path):
        """One kill mid-build: the coordinator hub ends up holding the
        worker_restart event, the (re-run) worker's own build_phase
        events tagged with shard provenance, merged worker metrics, and
        a spool the monitor renders."""
        data = make_random_walks(N_ROWS, LENGTH, seed=23)
        hub = obs.TelemetryHub()
        fence = tmp_path / "kill-once"
        plan = faults.FaultPlan(
            op="write", at=3, mode="kill", fence=str(fence)
        )
        with faults.ship_plans({0: plan}), obs.use_hub(hub):
            index = ShardedIndex.build(
                data,
                _config(),
                directory=tmp_path / "idx",
            )
            try:
                answer = index.knn(data[0], k=3)
            finally:
                index.close()
        assert fence.exists(), "the kill plan never fired"
        assert len(answer.positions) == 3

        events = hub.journal.events()
        by_type = {}
        for event in events:
            by_type.setdefault(event.type, []).append(event)

        restarts = by_type.get("worker_restart", [])
        assert restarts, "the supervisor must journal the respawn"
        assert restarts[0].attrs["kind"] == "build"
        assert restarts[0].attrs["dead_pid"] != restarts[0].attrs["new_pid"]
        assert restarts[0].pid == os.getpid(), "emitted coordinator-side"

        phases = by_type.get("build_phase", [])
        worker_phases = [e for e in phases if "shard" in e.attrs]
        assert worker_phases, "worker journals must merge home"
        assert {e.attrs["shard"] for e in worker_phases} == {0, 1}
        assert all(e.pid != os.getpid() for e in worker_phases), (
            "merged events keep the worker's pid"
        )
        coordinator_phases = [
            e for e in phases if e.attrs.get("phase") == "sharded_build"
        ]
        assert len(coordinator_phases) == 1
        assert coordinator_phases[0].attrs["worker_restarts"] >= 1

        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) == list(range(len(events)))

        # Worker registries merge under shard.<i>.* and the query the
        # coordinator answered landed in the windowed instruments.
        index_registry = hub.registry
        assert index_registry.summary()["windowed_histograms"][
            "query.latency_seconds"]["total_count"] == 1

        spool = tmp_path / "spool"
        sink = obs.TelemetrySink(
            spool, hub.registry, journal=hub.journal, slo=hub.slo
        )
        sink.flush()
        obs.parse_openmetrics((spool / "metrics.prom").read_text())
        text = obs.render_dashboard(spool, event_tail=50)
        assert "worker_restart" in text
        assert "restarts=" in text

    def test_pool_restart_event_has_the_build_restart_shape(self, tmp_path):
        """Build and query restarts come from one supervisor, so their
        journalled worker_restart events carry one attribute set."""
        data = make_random_walks(N_ROWS, LENGTH, seed=31)
        hub = obs.TelemetryHub()
        plan = faults.FaultPlan(
            op="write", at=3, mode="kill", fence=str(tmp_path / "kill-once")
        )
        with obs.use_hub(hub):
            with faults.ship_plans({0: plan}):
                ShardedIndex.build(
                    data, _config(), directory=tmp_path / "idx"
                ).close()
            index = ShardedIndex.open(tmp_path / "idx", workers=2)
            try:
                index._pool._procs[0].kill()
                index._pool._procs[0].join(timeout=5.0)
                index.knn(data[0], k=3)
            finally:
                index.close()
        restarts = {}
        for event in hub.journal.events():
            if event.type == "worker_restart":
                restarts.setdefault(event.attrs["kind"], event.attrs)
        assert set(restarts) == {"build", "query"}
        assert restarts["query"]["worker"] == 0
        assert set(restarts["query"]) == set(restarts["build"])

    def test_fault_free_build_merges_worker_metrics(self, tmp_path):
        data = make_random_walks(N_ROWS, LENGTH, seed=29)
        hub = obs.TelemetryHub()
        with obs.use_hub(hub):
            index = ShardedIndex.build(
                data, _config(), directory=tmp_path / "idx"
            )
            try:
                index.merge_worker_metrics(hub.registry)
            finally:
                index.close()
        counters = hub.registry.summary()["counters"]
        merged = sum(
            value for name, value in counters.items()
            if name.startswith("shard.") and name.endswith("build.num_series")
        )
        assert merged == N_ROWS
        phases = [e for e in hub.journal.events()
                  if e.type == "build_phase" and "shard" in e.attrs]
        assert {e.attrs["shard"] for e in phases} == {0, 1}
