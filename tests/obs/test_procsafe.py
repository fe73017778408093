"""Fork/spawn safety of repro.obs: state export, merge, and fork hygiene."""

import multiprocessing

import pytest

from repro import obs
from repro.core.shard_worker import ProcessBsfVector, mp_context

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

fork_only = pytest.mark.skipif(
    not HAS_FORK, reason="platform has no fork start method"
)


class TestExportMergeState:
    def test_roundtrip_preserves_every_instrument(self):
        child = obs.MetricsRegistry()
        child.counter("build.splits").add(7)
        child.gauge("build.series_per_sec").set(123.5)
        child.histogram("query.seconds").observe(0.25)
        child.histogram("query.seconds").observe(0.75)

        parent = obs.MetricsRegistry()
        parent.merge_state(child.export_state())
        summary = parent.summary()
        assert summary["counters"]["build.splits"] == 7
        assert summary["gauges"]["build.series_per_sec"] == 123.5
        assert summary["histograms"]["query.seconds"]["count"] == 2

    def test_merge_accumulates_counters_and_extends_histograms(self):
        child = obs.MetricsRegistry()
        child.counter("work").add(3)
        child.histogram("lat").observe(1.0)
        state = child.export_state()

        parent = obs.MetricsRegistry()
        parent.counter("work").add(10)
        parent.histogram("lat").observe(3.0)
        parent.merge_state(state)
        parent.merge_state(state)  # two workers with identical state
        summary = parent.summary()
        assert summary["counters"]["work"] == 16
        assert summary["histograms"]["lat"]["count"] == 3
        assert summary["histograms"]["lat"]["max"] == 3.0

    def test_prefix_namespaces_merged_names(self):
        child = obs.MetricsRegistry()
        child.counter("build.flushes").add(2)
        child.gauge("build.build_seconds").set(1.5)
        child.histogram("io.ms").observe(4.0)

        parent = obs.MetricsRegistry()
        parent.merge_state(child.export_state(), prefix="shard.3.")
        summary = parent.summary()
        assert summary["counters"]["shard.3.build.flushes"] == 2
        assert summary["gauges"]["shard.3.build.build_seconds"] == 1.5
        assert summary["histograms"]["shard.3.io.ms"]["count"] == 1

    def test_export_state_is_picklable(self):
        import pickle

        registry = obs.MetricsRegistry()
        registry.counter("a").inc()
        registry.histogram("b").observe(0.5)
        state = pickle.loads(pickle.dumps(registry.export_state()))
        assert state["counters"]["a"] == 1
        assert state["histograms"]["b"] == [0.5]


def _child_flush(queue):
    registry = obs.MetricsRegistry()
    registry.counter("child.events").add(5)
    registry.histogram("child.latency").observe(0.125)
    queue.put(registry.export_state())


def _child_trace_state(queue):
    queue.put(obs.get_trace() is None)


def _child_publish(vector, queue):
    vector.cell(0).publish(2.5)
    queue.put(vector.get(0))


@fork_only
class TestCrossProcess:
    def test_child_registry_flushes_home(self):
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=_child_flush, args=(queue,))
        proc.start()
        state = queue.get(timeout=30)
        proc.join(timeout=30)
        parent = obs.MetricsRegistry()
        parent.merge_state(state, prefix="shard.0.")
        summary = parent.summary()
        assert summary["counters"]["shard.0.child.events"] == 5
        assert summary["histograms"]["shard.0.child.latency"]["count"] == 1

    def test_fork_clears_the_active_trace(self):
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        trace = obs.Trace("parent")
        with obs.use_trace(trace):
            with obs.span("outer"):
                proc = ctx.Process(target=_child_trace_state, args=(queue,))
                proc.start()
                cleared = queue.get(timeout=30)
                proc.join(timeout=30)
        assert cleared, "forked child inherited the parent's active trace"
        assert obs.get_trace() is None  # use_trace restored the parent too

    def test_process_bsf_vector_is_shared(self):
        ctx = mp_context()
        vector = ProcessBsfVector(ctx, capacity=4)
        queue = ctx.Queue()
        proc = ctx.Process(target=_child_publish, args=(vector, queue))
        proc.start()
        seen_in_child = queue.get(timeout=30)
        proc.join(timeout=30)
        assert seen_in_child == 2.5
        assert vector.get(0) == 2.5  # the child's publish reached the parent
        assert vector.get(1) == float("inf")  # bounds never cross queries
        vector.cell(0).publish(9.0)
        assert vector.get(0) == 2.5  # worse bounds never regress
        vector.cell(1).publish(4.0)
        vector.cell(2).publish(6.0)
        vector.reset(2)  # a two-query scatter resets only its cells
        assert vector.get(0) == vector.get(1) == float("inf")
        assert vector.get(2) == 6.0


class TestSpanAbsorption:
    def test_absorb_remaps_ids_and_prefixes_threads(self):
        worker = obs.Trace("worker")
        with obs.use_trace(worker):
            with obs.span("build.shard", rows=10):
                with obs.span("phase1"):
                    pass
        records = worker.export_spans()
        assert len(records) == 2

        parent = obs.Trace("parent")
        with obs.use_trace(parent):
            with obs.span("build.sharded") as outer:
                pass
            parent.absorb_spans(
                records, thread_prefix="shard1/", parent=outer
            )
        assert len(parent) == 3
        (absorbed_root,) = parent.find("build.shard")
        (absorbed_child,) = parent.find("phase1")
        # Internal parent links survive the id remap; the batch root
        # hangs under the coordinator's span.
        assert absorbed_child.parent_id == absorbed_root.span_id
        assert absorbed_root.parent_id == outer.span_id
        assert absorbed_root.thread_name.startswith("shard1/")
        assert absorbed_root.attributes["rows"] == 10

    def test_absorbed_spans_appear_in_chrome_export(self):
        worker = obs.Trace("worker")
        with obs.use_trace(worker):
            with obs.span("build.shard"):
                pass
        parent = obs.Trace("parent")
        parent.absorb_spans(worker.export_spans(), thread_prefix="shard0/")
        events = parent.to_chrome_events()
        names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert any(name.startswith("shard0/") for name in names)
        assert any(
            e.get("ph") == "X" and e.get("name") == "build.shard"
            for e in events
        )
