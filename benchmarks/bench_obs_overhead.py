"""Telemetry overhead gate: instruments on must not tax the hot path.

The windowed instruments sit inside every query (``observe_query`` /
``observe_search``), so this benchmark is the contract that keeps them
honest: the same queries run with telemetry fully off (no hub: the
hooks are single-global-read no-ops) and fully on (hub + journal + SLO
tracker) while one background :class:`TelemetrySink` flushes a spool.
Each query runs once per side, back to back, the side that goes first
alternating, so a slow spell of the host lands on both halves of a pair
rather than on one block of rounds.  The median per-pair throughput
ratio (off seconds / on seconds) must stay within 5% of 1.  Whole-round
timings (best of five 16-query rounds per side) could not resolve 5% on
a shared 2-vCPU host: an unchanged tree failed 2 of 10 runs.

Run with ``REPRO_BENCH_JSON=BENCH_obs.json`` to dump the measured
throughputs as a JSON artifact for ``repro bench-diff``.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro import obs
from repro.core import HerculesIndex
from repro.eval.experiments import ExperimentResult
from repro.eval.methods import hercules_config
from repro.workloads.generators import make_noise_queries, random_walks

from .conftest import record_table, scaled

#: Telemetry may cost at most this fraction of query throughput.
MAX_OVERHEAD = 0.05

#: Passes over the query set; each pass times every query once per side.
_PASSES = 20


@pytest.fixture(scope="module")
def data():
    return random_walks(scaled(2_000), 64, seed=19)


@pytest.fixture(scope="module")
def queries(data):
    return make_noise_queries(data, 48, 0.25, seed=23)


@pytest.fixture(scope="module")
def index(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("bench-obs") / "hercules"
    config = hercules_config(data.shape[0])
    built = HerculesIndex.build(data, config, directory=directory)
    yield built
    built.close()


def _timed_query(index, query, hub) -> float:
    """Wall seconds of one query and its ``observe_query`` hook with
    ``hub`` active (``None``: telemetry off)."""
    previous = obs.set_hub(hub)
    try:
        started = time.perf_counter()
        answer = index.knn(query, k=5)
        obs.observe_query(answer.profile.time_total)
        return time.perf_counter() - started
    finally:
        obs.set_hub(previous)


def test_telemetry_overhead_is_bounded(index, queries, tmp_path_factory):
    # Warm caches/JIT paths once so neither side pays first-run costs.
    for query in queries:
        _timed_query(index, query, None)

    hub = obs.TelemetryHub()
    spool = tmp_path_factory.mktemp("bench-obs-spool")
    sink = obs.TelemetrySink(
        spool, hub.registry, journal=hub.journal, slo=hub.slo,
        interval=0.25,
    )
    # Every query runs once per side under one running sink; which side
    # goes first alternates, so neither side always meets a warm cache.
    off_seconds, on_seconds, ratios = 0.0, 0.0, []
    sink.start()
    try:
        for turn in range(_PASSES):
            for i, query in enumerate(queries):
                if (turn + i) % 2:
                    off = _timed_query(index, query, None)
                    on = _timed_query(index, query, hub)
                else:
                    on = _timed_query(index, query, hub)
                    off = _timed_query(index, query, None)
                off_seconds += off
                on_seconds += on
                ratios.append(off / on)
    finally:
        sink.close()
    pairs = len(ratios)
    off_qps, on_qps = pairs / off_seconds, pairs / on_seconds
    ratio = statistics.median(ratios)

    observed = hub.registry.summary()
    recorded = observed["windowed_counters"]["query.requests"]["total"]
    assert recorded == pairs, (
        "the on-side must actually have been instrumented"
    )
    assert observed["windowed_histograms"]["engine.search_seconds"][
        "total_count"
    ] == recorded
    obs.parse_openmetrics((spool / "metrics.prom").read_text())

    overhead = max(0.0, 1.0 - ratio)
    result = ExperimentResult(
        figure="bench_obs_overhead",
        headers=["scenario", "qps", "overhead"],
        rows=[
            ["telemetry off", f"{off_qps:.1f}", "-"],
            ["telemetry on", f"{on_qps:.1f}", f"{overhead:.2%}"],
        ],
        raw={
            ("telemetry_off",): {"qps": off_qps},
            ("telemetry_on",): {
                "qps": on_qps,
                "overhead_fraction": overhead,
                "queries_recorded": recorded,
            },
        },
    )
    record_table(
        f"Telemetry overhead (queries/s; overhead: median of {pairs} query pairs)",
        result,
    )

    assert ratio >= 1.0 - MAX_OVERHEAD, (
        f"telemetry costs {overhead:.1%} of query throughput in the median "
        f"of {pairs} query pairs (limit {MAX_OVERHEAD:.0%}): "
        f"{off_qps:.1f} -> {on_qps:.1f} qps"
    )
