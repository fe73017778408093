"""End-to-end: the instrumented hot paths emit the expected spans."""

import pytest

from repro import obs
from repro.core import HerculesConfig, HerculesIndex
from repro.storage.dataset import Dataset
from repro.workloads.generators import make_noise_queries, random_walks


@pytest.fixture(scope="module")
def data():
    return random_walks(400, 32, seed=17)


@pytest.fixture(scope="module")
def traced_build(data, tmp_path_factory):
    directory = tmp_path_factory.mktemp("obs-index")
    trace = obs.Trace(name="build")
    config = HerculesConfig(
        leaf_capacity=50,
        # A small HBuffer forces flushes so the flush spans appear.
        db_size=50,
        buffer_capacity=200,
    )
    with Dataset.write(directory / "data.bin", data) as dataset:
        with obs.use_trace(trace):
            index = HerculesIndex.build(
                dataset, config, directory=directory / "idx"
            )
        index.close()
    return trace, directory / "idx"


class TestBuildSpans:
    def test_table4_phases_present(self, traced_build):
        trace, _ = traced_build
        names = {s.name for s in trace.spans}
        assert {
            "build",
            "build.phase1",
            "build.phase2",
            "build.tree",
            "build.buffering",
            "build.flush",
            "build.split",
            "build.write",
        } <= names

    def test_flush_protocol_spans_nest_under_tree(self, traced_build, data):
        trace, _ = traced_build
        tree = trace.find("build.tree")[0]
        inserts = trace.find("build.insert_batch")
        # One insert span per 50-series batch, on the building thread.
        assert len(inserts) == data.shape[0] // 50
        assert all(s.parent_id == tree.span_id for s in inserts)
        assert sum(s.attributes["rows"] for s in inserts) == data.shape[0]
        flushes = trace.find("build.flush")
        assert flushes and all(s.parent_id == tree.span_id for s in flushes)

    def test_io_attributes_on_phases(self, traced_build):
        trace, _ = traced_build
        phase2 = trace.find("build.phase2")[0]
        assert phase2.attributes["bytes_written"] > 0
        flush = trace.find("build.flush")[0]
        assert "spilled_series" in flush.attributes


def _assert_one_span_tree(trace, num_calls, queries_per_call, mode="exact"):
    """Every call, whatever its Q and mode, is one ``query`` span holding
    per-query ``query.phase1.approx`` spans.  An exact call adds per-query
    ``query.phase2.candidates`` spans, one ``query.prefilter`` around the
    LB_SAX pass and one ``query.refine`` around the walk; an approximate
    or progressive call stops there."""
    calls = trace.find("query")
    assert len(calls) == num_calls
    call_ids = {s.span_id for s in calls}
    exact = mode == "exact"
    for call in calls:
        assert call.parent_id is None
        assert call.attributes["k"] == 5
        assert call.attributes["queries"] == queries_per_call
        assert call.attributes["mode"] == mode
        if exact:
            assert call.attributes["leaf_uses"] >= call.attributes["unique_leaf_reads"] > 0
            assert call.attributes["kernel_rows"] > 0
    for name, per_call in (
        ("query.phase1.approx", queries_per_call),
        ("query.phase2.candidates", queries_per_call if exact else 0),
        ("query.prefilter", int(exact)),
        ("query.refine", int(exact)),
    ):
        spans = trace.find(name)
        assert len(spans) == num_calls * per_call, name
        assert all(s.parent_id in call_ids for s in spans), name
    assert {s.parent_id for s in trace.find("query.phase1.approx")} == call_ids
    assert not any(s.name.startswith("query.batch") for s in trace.spans)


class TestQuerySpans:
    def test_four_phases_with_worker_children(self, traced_build, data):
        _, index_dir = traced_build
        index = HerculesIndex.open(index_dir)
        # A tight leaf-visit budget leaves candidates after phase 1, and
        # disabling the adaptive skip-sequential fallback forces them
        # through phases 3 and 4.
        config = index.config.with_options(l_max=2, adaptive_thresholds=False)
        queries = make_noise_queries(data, 3, noise_variance=2.0, seed=5)
        trace = obs.Trace(name="query")
        with obs.use_trace(trace):
            answers = [index.knn(q, k=5, config=config) for q in queries]
        assert all(a.profile.path == "full-four-phase" for a in answers)
        _assert_one_span_tree(trace, num_calls=3, queries_per_call=1)

        # The walk runs on the calling thread: no worker spans, and
        # nothing under ``query.refine``.
        refine_ids = {s.span_id for s in trace.find("query.refine")}
        assert not trace.find("query.refine.worker")
        assert not any(s.parent_id in refine_ids for s in trace.spans)

        # A batch has the same tree.
        trace = obs.Trace(name="query")
        with obs.use_trace(trace):
            batch = index.knn_batch(queries, k=5, config=config)
        index.close()
        assert all(a.profile.path == "full-four-phase" for a in batch)
        _assert_one_span_tree(trace, num_calls=1, queries_per_call=3)
        refine_ids = {s.span_id for s in trace.find("query.refine")}
        assert not trace.find("query.refine.worker")
        assert not any(s.parent_id in refine_ids for s in trace.spans)

    def test_profile_io_filled_by_knn_itself(self, traced_build, data):
        _, index_dir = traced_build
        index = HerculesIndex.open(index_dir)
        answer = index.knn(data[0], k=1)
        index.close()
        assert answer.profile.io is not None
        assert answer.profile.io.read_calls >= 1

    def test_approximate_knn_fills_io_and_span(self, traced_build, data):
        _, index_dir = traced_build
        index = HerculesIndex.open(index_dir)
        trace = obs.Trace()
        with obs.use_trace(trace):
            answers = [index.knn_approx(q, k=5) for q in data[1:4]]
        index.close()
        assert all(a.profile.io is not None for a in answers)
        assert all(a.profile.path == "approximate" for a in answers)
        _assert_one_span_tree(trace, num_calls=3, queries_per_call=1, mode="approximate")
        visited = [s.attributes["leaves_visited"] for s in trace.find("query.phase1.approx")]
        assert visited == [a.profile.approx_leaves for a in answers]

    def test_progressive_knn_span_tree(self, traced_build, data):
        _, index_dir = traced_build
        index = HerculesIndex.open(index_dir)
        trace = obs.Trace()
        with obs.use_trace(trace):
            finals = [list(index.knn_progressive(q, k=5))[-1] for q in data[1:3]]
            # A consumer that stops early still closes the call's tree.
            next(iter(index.knn_progressive(data[3], k=5)))
        index.close()
        _assert_one_span_tree(trace, num_calls=3, queries_per_call=1, mode="progressive")
        visited = [s.attributes["leaves_visited"] for s in trace.find("query.phase1.approx")]
        assert visited[:2] == [a.profile.approx_leaves for a in finals]
        assert visited[2] == 1
