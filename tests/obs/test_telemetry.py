"""Windowed instruments, the SLO tracker, and the telemetry hub.

Every test drives the instruments through an injectable fake clock, so
window expiry, rates, and merge identity are exact assertions rather
than sleeps.  The load-bearing property throughout: buckets are keyed
by *absolute* epoch, so any split of the same observations across
instruments merges back to a value-identical summary.
"""

import threading

import numpy as np
import pytest

from repro import obs
from repro.obs.telemetry import DEFAULT_NUM_BUCKETS, DEFAULT_WINDOW_SECONDS


class FakeClock:
    """A settable clock; ``tick`` advances it."""

    def __init__(self, now=1_000_000.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


class TestWindowedCounter:
    def test_total_survives_window_expiry(self, clock):
        counter = obs.WindowedCounter(
            window_seconds=10.0, num_buckets=5, clock=clock
        )
        counter.inc()
        counter.add(4)
        assert counter.total == 5
        assert counter.window_total() == 5
        clock.tick(60.0)  # far past the window
        assert counter.window_total() == 0
        assert counter.total == 5, "lifetime total must never expire"

    def test_window_slides_bucket_by_bucket(self, clock):
        counter = obs.WindowedCounter(
            window_seconds=10.0, num_buckets=5, clock=clock
        )
        for i in range(5):  # one event per 2s bucket
            if i:
                clock.tick(2.0)
            counter.inc()
        assert counter.window_total() == 5
        clock.tick(2.0)  # oldest bucket falls out
        assert counter.window_total() == 4

    def test_rate_uses_covered_span_not_full_window(self, clock):
        counter = obs.WindowedCounter(
            window_seconds=60.0, num_buckets=12, clock=clock
        )
        counter.add(10)
        clock.tick(4.0)
        # 10 events over ~one 5s bucket must not be diluted to 10/60.
        assert counter.rate() > 1.0

    def test_rate_zero_when_empty(self, clock):
        counter = obs.WindowedCounter(clock=clock)
        assert counter.rate() == 0.0
        assert counter.summary()["rate"] == 0.0

    def test_export_merge_roundtrip_is_value_identical(self, clock):
        source = obs.WindowedCounter(
            window_seconds=10.0, num_buckets=5, clock=clock
        )
        for _ in range(3):
            source.add(2)
            clock.tick(3.0)
        target = obs.WindowedCounter(
            window_seconds=10.0, num_buckets=5, clock=clock
        )
        target.merge_state(source.export_state())
        assert target.summary() == source.summary()

    def test_merge_adds_bucket_wise(self, clock):
        a = obs.WindowedCounter(window_seconds=10.0, num_buckets=5, clock=clock)
        b = obs.WindowedCounter(window_seconds=10.0, num_buckets=5, clock=clock)
        reference = obs.WindowedCounter(
            window_seconds=10.0, num_buckets=5, clock=clock
        )
        for i in range(4):
            (a if i % 2 else b).add(i + 1)
            reference.add(i + 1)
            clock.tick(2.0)
        merged = obs.WindowedCounter(
            window_seconds=10.0, num_buckets=5, clock=clock
        )
        for state in (a.export_state(), b.export_state()):
            merged.merge_state(state)
        assert merged.summary() == reference.summary()

    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(ValueError):
            obs.WindowedCounter(window_seconds=0)
        with pytest.raises(ValueError):
            obs.WindowedCounter(num_buckets=0)

    def test_defaults(self):
        counter = obs.WindowedCounter()
        assert counter.window_seconds == DEFAULT_WINDOW_SECONDS
        assert counter.num_buckets == DEFAULT_NUM_BUCKETS


class TestWindowedHistogram:
    def test_percentiles_match_numpy(self, clock):
        hist = obs.WindowedHistogram(clock=clock)
        values = np.random.default_rng(7).normal(size=500)
        for v in values:
            hist.observe(float(v))
        summary = hist.summary()
        assert summary["p50"] == pytest.approx(np.percentile(values, 50))
        assert summary["p95"] == pytest.approx(np.percentile(values, 95))
        assert summary["p99"] == pytest.approx(np.percentile(values, 99))
        assert summary["count"] == 500

    def test_old_observations_expire_from_percentiles(self, clock):
        hist = obs.WindowedHistogram(
            window_seconds=10.0, num_buckets=5, clock=clock
        )
        hist.observe(1000.0)  # an ancient outlier
        clock.tick(30.0)
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        summary = hist.summary()
        assert summary["max"] == 3.0
        assert summary["count"] == 3
        assert summary["total_count"] == 4, "lifetime count keeps the outlier"

    def test_empty_summary_shape(self, clock):
        summary = obs.WindowedHistogram(clock=clock).summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0
        assert summary["rate"] == 0.0

    def test_merge_is_order_independent(self, clock):
        states = []
        reference = obs.WindowedHistogram(
            window_seconds=20.0, num_buckets=4, clock=clock
        )
        rng = np.random.default_rng(3)
        for chunk in range(3):
            part = obs.WindowedHistogram(
                window_seconds=20.0, num_buckets=4, clock=clock
            )
            for v in rng.normal(size=40):
                part.observe(float(v))
                reference.observe(float(v))
            states.append(part.export_state())
            clock.tick(5.0)
        for ordering in (states, states[::-1], states[1:] + states[:1]):
            merged = obs.WindowedHistogram(
                window_seconds=20.0, num_buckets=4, clock=clock
            )
            for state in ordering:
                merged.merge_state(state)
            assert merged.summary() == reference.summary()

    def test_threads_and_merged_instruments_agree(self, clock):
        """The acceptance property: observations interleaved by threads
        into one instrument, and the same observations split across
        per-thread instruments then merged, summarize identically."""
        values = [float(v) for v in
                  np.random.default_rng(11).normal(size=400)]
        shared = obs.WindowedHistogram(clock=clock)
        quarters = [values[i::4] for i in range(4)]

        def hammer(chunk):
            for v in chunk:
                shared.observe(v)

        threads = [threading.Thread(target=hammer, args=(q,))
                   for q in quarters]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        merged = obs.WindowedHistogram(clock=clock)
        for chunk in quarters:
            private = obs.WindowedHistogram(clock=clock)
            for v in chunk:
                private.observe(v)
            merged.merge_state(private.export_state())
        assert merged.summary() == shared.summary()


class TestSloTracker:
    def _tracker(self, clock, **kw):
        kw.setdefault("latency_threshold", 0.1)
        kw.setdefault("latency_target", 0.9)
        kw.setdefault("coverage_target", 0.99)
        kw.setdefault("window_seconds", 60.0)
        kw.setdefault("num_buckets", 6)
        return obs.SloTracker(clock=clock, **kw)

    def test_all_good_is_healthy(self, clock):
        tracker = self._tracker(clock)
        for _ in range(20):
            tracker.observe(0.05)
        status = tracker.status()
        assert status["healthy"]
        assert status["latency_attainment"] == 1.0
        assert status["latency_burn"] == 0.0
        assert status["coverage_attainment"] == 1.0
        assert status["requests"] == 20

    def test_burn_rate_is_error_over_budget(self, clock):
        tracker = self._tracker(clock)
        # 80% good against a 90% target: 20% errors over a 10% budget.
        for i in range(10):
            tracker.observe(0.05 if i < 8 else 1.0)
        status = tracker.status()
        assert status["latency_attainment"] == pytest.approx(0.8)
        assert status["latency_burn"] == pytest.approx(2.0)
        assert not status["healthy"]

    def test_coverage_and_degraded_tracked(self, clock):
        tracker = self._tracker(clock)
        tracker.observe(0.01, coverage=1.0)
        tracker.observe(0.01, coverage=0.5, degraded=True)
        status = tracker.status()
        assert status["coverage_attainment"] == pytest.approx(0.75)
        assert status["degraded"] == 1
        assert status["coverage_burn"] > 1.0

    def test_empty_window_is_healthy(self, clock):
        status = self._tracker(clock).status()
        assert status["healthy"]
        assert status["requests"] == 0

    def test_export_merge_matches_single_tracker(self, clock):
        reference = self._tracker(clock)
        workers = [self._tracker(clock) for _ in range(3)]
        rng = np.random.default_rng(5)
        for i, latency in enumerate(rng.uniform(0.0, 0.3, size=30)):
            degraded = i % 7 == 0
            coverage = 0.9 if degraded else 1.0
            reference.observe(float(latency), coverage, degraded)
            workers[i % 3].observe(float(latency), coverage, degraded)
        merged = self._tracker(clock)
        for worker in workers:
            merged.merge_state(worker.export_state())
        assert merged.status() == reference.status()


class TestRegistryWindowedAccessors:
    def test_same_name_returns_same_instrument(self):
        registry = obs.MetricsRegistry()
        assert registry.windowed_counter("r") is registry.windowed_counter("r")
        assert (registry.windowed_histogram("h")
                is registry.windowed_histogram("h"))

    def test_summary_carries_windowed_sections(self, clock):
        registry = obs.MetricsRegistry()
        registry.windowed_counter("reqs", clock=clock).add(3)
        registry.windowed_histogram("lat", clock=clock).observe(0.25)
        summary = registry.summary()
        assert summary["windowed_counters"]["reqs"]["total"] == 3
        assert summary["windowed_histograms"]["lat"]["count"] == 1
        registry.reset()
        assert registry.summary()["windowed_counters"] == {}

    def test_export_merge_roundtrips_windowed_unprefixed(self, clock):
        child = obs.MetricsRegistry()
        child.counter("plain").add(2)
        child.windowed_histogram("lat", clock=clock).observe(0.5)
        parent = obs.MetricsRegistry()
        parent.windowed_histogram("lat", clock=clock)  # pre-bind the clock
        parent.merge_state(child.export_state(), prefix="shard.0.")
        summary = parent.summary()
        # Cumulative metrics namespace per shard; windowed ones aggregate
        # fleet-wide, so the name stays unprefixed.
        assert summary["counters"]["shard.0.plain"] == 2
        assert summary["windowed_histograms"]["lat"]["count"] == 1


class TestHubAndHooks:
    def test_module_hooks_are_noops_without_hub(self):
        assert obs.get_hub() is None
        obs.observe_query(0.1)
        obs.observe_search(0.1)
        obs.emit_event("build_phase", phase="noop")
        obs.watch_process("shard.0", 12345)  # nothing raises

    def test_observe_query_populates_instruments_and_slo(self, clock):
        hub = obs.TelemetryHub(clock=clock)
        with obs.use_hub(hub):
            obs.observe_query(0.2, coverage=0.5, degraded=True)
            obs.observe_query(0.01)
            obs.observe_search(0.003)
            obs.emit_event("query_degraded", coverage=0.5)
        assert obs.get_hub() is None, "use_hub must restore the previous hub"
        summary = hub.registry.summary()
        assert summary["windowed_counters"]["query.requests"]["total"] == 2
        assert summary["windowed_counters"]["query.degraded"]["total"] == 1
        assert summary["windowed_histograms"][
            "query.latency_seconds"]["count"] == 2
        assert summary["windowed_counters"]["engine.searches"]["total"] == 1
        assert hub.slo.status()["requests"] == 2
        assert [e.type for e in hub.journal.events()] == ["query_degraded"]

    def test_watch_process_reaches_attached_sampler(self):
        class SpySampler:
            def __init__(self):
                self.watched = []

            def watch(self, label, pid):
                self.watched.append((label, pid))

        hub = obs.TelemetryHub()
        hub.sampler = SpySampler()
        with obs.use_hub(hub):
            obs.watch_process("shard.3", 999)
        assert hub.sampler.watched == [("shard.3", 999)]

    def test_hub_export_merge_state(self, clock):
        child = obs.TelemetryHub(clock=clock)
        child.observe_query(0.1)
        child.journal.emit("build_phase", phase="tree")
        parent = obs.TelemetryHub(clock=clock)
        parent.merge_state(child.export_state(), shard=1)
        summary = parent.registry.summary()
        assert summary["windowed_counters"]["query.requests"]["total"] == 1
        events = parent.journal.events()
        assert events[0].attrs["shard"] == 1
        assert parent.slo.status()["requests"] == 1
