"""Tests of the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; not part
of the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from benchmarks.e2e import estimators, hostspeed, oracle, stages, tracing
from benchmarks.e2e.repeat import quartile_spread, relative_gap
from benchmarks.e2e.spec import END_TO_END, PER_LAYER, ROOT, RUNS, WORKLOADS, rounds_for

SMOKE_SCALE = "0.03"
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_smoke(request):
    """One tiny traced run per workload: (workload, stdout lines, serve
    stage result, spans of its trace file)."""
    done = run_cli("--workload", request.param, "--scale", SMOKE_SCALE, "--seed", "5",
                   "--seconds", "3", "--trace", "1")
    assert done.returncode == 0, done.stderr
    out = RUNS / request.param
    served = json.loads((out / "serve.json").read_text())
    spans = tracing.read_chrome_trace(out / "trace.json")
    return WORKLOADS[request.param], done.stdout.splitlines(), served, spans


def test_every_declared_metric_is_printed_once_with_a_unit(traced_smoke):
    _, lines, _, _ = traced_smoke
    printed = [m.groups() for m in map(METRIC_LINE.match, lines) if m]
    names = [name for name, _, _ in printed]
    declared = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    assert sorted(n for n in names if n != "failed_fraction") == sorted(declared)
    for name, value, unit in printed:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        float(value)
        assert unit == declared.get(name, "ratio")


def test_last_line_is_the_contract_object(traced_smoke):
    workload, lines, _, _ = traced_smoke
    final = json.loads(lines[-1])
    assert sorted(final) == ["attempted", "correct", "failed", "metrics"]
    assert final["correct"] is True and final["failed"] == 0
    rounds = rounds_for(workload, 3)
    traced = -(-workload.traced_queries // workload.call_size()) * workload.call_size()
    assert final["attempted"] == rounds * workload.num_queries + traced
    assert {n: m["unit"] for n, m in final["metrics"].items()} == {
        name: unit for name, unit, _ in PER_LAYER
    }


def test_layer_self_times_add_up_to_the_traced_wall(traced_smoke):
    _, _, served, spans = traced_smoke
    table = tracing.layer_table(spans)
    queries = served["harness.traced_queries"]
    traced_seconds = served["harness.traced_ms_per_query"] * queries / 1e3
    # What the spans miss is the facade between the public call and the
    # outermost wrapped function: a fixed few microseconds per call, which
    # only shows at this tiny scale (0.7 ms queries).
    public_calls = sum(1 for span in spans if span[tracing.PARENT] < 0)
    missed = traced_seconds - sum(seconds for _, seconds in table.values())
    assert 0.0 <= missed <= 0.02 * traced_seconds + 20e-6 * public_calls
    # The trace file reproduces the printed table.
    for span, metric in (
        ("distance.lb_eapca", "distance.lb_eapca_ms_per_query"),
        ("query.exact_knn", "query.glue_ms_per_query"),
        ("batch.exact_knn_batch", "batch.glue_ms_per_query"),
    ):
        expected = table.get(span, (0, 0.0))[1] * 1e3 / queries
        assert served[metric] == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_untraced_run_reports_the_end_to_end_set():
    done = run_cli("--workload", "serial-easy", "--scale", SMOKE_SCALE, "--seed", "6",
                   "--seconds", "2", "--trace", "0")
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.splitlines()[-1])
    assert {n: m["unit"] for n, m in final["metrics"].items()} == {
        name: unit for name, unit, _, _ in END_TO_END
    }
    assert all(m["value"] > 0 for m in final["metrics"].values())
    assert not (RUNS / "serial-easy" / "trace.json").exists()
    assert not (RUNS / "serial-easy" / "dataset.bin").exists()


def test_selftest_sees_the_injected_failures():
    done = run_cli("--selftest")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest ok" in done.stdout


def test_seed_changes_the_queries_only(tmp_path):
    queries = []
    for seed in (1, 2, 1):
        plan = {"workload": "serial-hard", "seed": seed, "num_series": 300}
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        stages.generate(tmp_path)
        queries.append(np.load(tmp_path / "queries.npy"))
    assert queries[0].shape == queries[1].shape
    assert not np.array_equal(queries[0], queries[1])
    assert np.array_equal(queries[0], queries[2])


# -- estimators ---------------------------------------------------------------


def test_lower_quartile_over_rounds_then_percentiles_over_queries():
    # 5 rounds x 4 serial calls; one round is a slow spell of the host,
    # one sample a rare fast moment.
    walls = np.array([
        [1.0, 2.0, 3.0, 10.0],
        [5.0, 5.0, 5.0, 50.0],
        [1.0, 2.0, 3.0, 10.0],
        [1.0, 2.0, 0.5, 10.0],
        [1.0, 2.0, 3.0, 10.0],
    ]) / 1e3
    assert estimators.per_call_seconds(walls, 1.0).tolist() == [0.001, 0.002, 0.003, 0.01]
    summary = estimators.summarize(walls, np.ones(4, dtype=int), host_factor=2.0)
    assert summary["query_p50_ms"] == pytest.approx(2.5 / 2.0)
    assert summary["query_p90_ms"] == pytest.approx(np.percentile([1, 2, 3, 10], 90) / 2.0)
    assert summary["queries_per_s"] == pytest.approx(4 / 0.016 * 2.0)
    assert summary["harness.best_p50_ms"] == pytest.approx(1.5)  # raw best-of-R
    assert summary["harness.round_spread"] == pytest.approx(65 / 13.5)
    assert summary["harness.raw_p50_ms"] == pytest.approx(3.0)


def test_a_batch_wall_counts_for_each_of_its_queries():
    walls = np.array([[0.4, 0.1], [0.4, 0.1]])
    summary = estimators.summarize(walls, np.array([3, 1]), host_factor=1.0)
    assert summary["query_p50_ms"] == pytest.approx(400.0)  # 400, 400, 400, 100
    assert summary["queries_per_s"] == pytest.approx(4 / 0.5)


def test_host_factor_is_the_lower_quartile_of_the_samples():
    assert hostspeed.factor([1.0, 1.0, 2.0, 2.0, 9.0]) == pytest.approx(1.0)
    assert hostspeed.Reference().sample() > 0


def test_gap_and_spread_follow_the_drivers_definitions():
    assert relative_gap(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert relative_gap(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# -- oracle -------------------------------------------------------------------


class _Answer:
    def __init__(self, distances, positions, **flags):
        self.distances = np.array(distances, dtype=float)
        self.positions = np.array(positions)
        self.__dict__.update(flags)


def test_oracle_accepts_exact_and_names_each_failure():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((200, 32)).astype(np.float32)
    query = rng.standard_normal(32).astype(np.float32)
    true = np.sqrt(((data.astype(float) - query) ** 2).sum(axis=1))
    order = np.argsort(true)[:3]
    truth = oracle.ground_truth(data, query[None, :], 3)[0]
    assert truth == pytest.approx(true[order])

    def check(answer):
        return oracle.check_answer(query, answer, truth, lambda p: data[p])

    assert check(_Answer(true[order], order)) is None
    assert "brute force" in check(_Answer(true[order] * 1.001, order))
    assert "position" in check(_Answer(true[order], [order[0], order[1], 199]))
    assert "duplicate" in check(_Answer(true[order], [order[0], order[0], order[2]]))
    assert "returned 2" in check(_Answer(true[order][:2], order[:2]))
    assert "degraded" in check(_Answer(true[order], order, degraded=True))
    assert "degraded" in check(_Answer(true[order], order, coverage=0.5))


# -- tracing ------------------------------------------------------------------


def _current_targets() -> list:
    return [
        vars(tracing._owner(module, owner))[attribute]
        for module, owner, attribute, _ in tracing.TARGETS
    ]


def test_wrappers_are_fully_removed_after_the_pass():
    before = _current_targets()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Recorder()):
            during = _current_targets()
            raise RuntimeError("pass aborted")
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _current_targets()))


def test_self_time_is_duration_minus_children(tmp_path):
    recorder = tracing.Recorder()
    ticks = iter(range(100))

    def leaf():
        next(ticks)

    inner = recorder.wrap("inner", leaf)

    def parent():
        inner()
        inner()

    outer = recorder.wrap("outer", parent)
    recorder.query = 7
    outer()
    assert [s[tracing.PARENT] for s in recorder.spans] == [-1, 0, 0]
    assert {s[tracing.QUERY] for s in recorder.spans} == {7}
    table = tracing.layer_table(recorder.spans)
    assert table["inner"][0] == 2 and table["outer"][0] == 1
    outer_span = recorder.spans[0]
    total = outer_span[tracing.END] - outer_span[tracing.START]
    assert table["outer"][1] + table["inner"][1] == pytest.approx(total)
    tracing.write_chrome_trace(recorder.spans, tmp_path / "t.json")
    loaded = tracing.layer_table(tracing.read_chrome_trace(tmp_path / "t.json"))
    assert loaded["inner"][1] == pytest.approx(table["inner"][1], rel=1e-6)
    assert json.loads((tmp_path / "t.json").read_text())["traceEvents"][0]["ph"] == "X"
