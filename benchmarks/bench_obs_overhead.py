"""Telemetry overhead gate: instruments on must not tax the hot path.

The windowed instruments sit inside every query (``observe_query`` /
``observe_search``), so this benchmark is the contract that keeps them
honest: the same query workload runs with telemetry fully off (no hub:
the hooks are single-global-read no-ops) and fully on (hub + journal +
SLO tracker), in alternating rounds while one background
:class:`TelemetrySink` flushes a spool, and the best on-round
throughput must stay within 5% of the best off-round.

Run with ``REPRO_BENCH_JSON=BENCH_obs.json`` to dump the measured
throughputs as a JSON artifact for ``repro bench-diff``.
"""

from __future__ import annotations

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

_REPEATS = 5


@pytest.fixture(scope="module")
def data():
    return random_walks(scaled(2_000), 64, seed=19)


@pytest.fixture(scope="module")
def queries(data):
    return make_noise_queries(data, 16, 0.25, seed=23)


@pytest.fixture(scope="module")
def index(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("bench-obs") / "hercules"
    config = hercules_config(data.shape[0])
    built = HerculesIndex.build(data, config, directory=directory)
    yield built
    built.close()


def _run_workload(index, queries) -> None:
    for query in queries:
        answer = index.knn(query, k=5)
        obs.observe_query(answer.profile.time_total)


def _timed(index, queries) -> float:
    started = time.perf_counter()
    _run_workload(index, queries)
    return time.perf_counter() - started


def test_telemetry_overhead_is_bounded(index, queries, tmp_path_factory):
    # Warm caches/JIT paths once so neither side pays first-run costs.
    _run_workload(index, queries)

    hub = obs.TelemetryHub()
    spool = tmp_path_factory.mktemp("bench-obs-spool")
    sink = obs.TelemetrySink(
        spool, hub.registry, journal=hub.journal, slo=hub.slo,
        interval=0.25,
    )
    # Off and on rounds alternate under one running sink, so a slow
    # spell of the host lands on both sides rather than on one block;
    # each side keeps its best round.
    off_best = on_best = float("inf")
    sink.start()
    try:
        for _ in range(_REPEATS):
            off_best = min(off_best, _timed(index, queries))
            with obs.use_hub(hub):
                on_best = min(on_best, _timed(index, queries))
    finally:
        sink.close()
    off_qps, on_qps = len(queries) / off_best, len(queries) / on_best

    observed = hub.registry.summary()
    recorded = observed["windowed_counters"]["query.requests"]["total"]
    assert recorded == len(queries) * _REPEATS, (
        "the on-side must actually have been instrumented"
    )
    assert observed["windowed_histograms"]["engine.search_seconds"][
        "total_count"
    ] == recorded
    obs.parse_openmetrics((spool / "metrics.prom").read_text())

    overhead = max(0.0, 1.0 - on_qps / off_qps)
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
    record_table("Telemetry overhead (queries/s, best of 5)", result)

    assert on_qps >= off_qps * (1.0 - MAX_OVERHEAD), (
        f"telemetry costs {overhead:.1%} of query throughput "
        f"(limit {MAX_OVERHEAD:.0%}): {off_qps:.1f} -> {on_qps:.1f} qps"
    )
