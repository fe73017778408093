"""Integration tests for the experiment harnesses (tiny scales)."""

import numpy as np
import pytest

from repro.eval.experiments import (
    difficulty_experiment,
    figure6_dataset_size,
    figure7_large_datasets,
    figure8_series_length,
    figure11_knn_k,
    figure12_ablation_indexing,
    figure12_ablation_query,
)
from repro.eval.methods import ALL_METHODS, build_method, build_methods, scaled_l_max
from repro.eval.report import format_table

from ..conftest import make_random_walks


class TestMethodRegistry:
    def test_build_all_methods_and_query(self, tmp_path):
        data = make_random_walks(400, 32, seed=40)
        query = make_random_walks(1, 32, seed=41)[0]
        methods = build_methods(
            data, names=ALL_METHODS, directory=tmp_path, leaf_capacity=50
        )
        reference = None
        for name, built in methods.items():
            answer = built.knn(query, k=3)
            if reference is None:
                reference = answer.distances
            np.testing.assert_allclose(
                answer.distances, reference, atol=1e-6, err_msg=name
            )
            built.close()

    def test_unknown_method(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            build_method("FLANN", make_random_walks(10, 16))

    def test_scaled_l_max(self):
        assert scaled_l_max(100_000, 100) == 40  # 4% of 1000 leaves
        assert scaled_l_max(100, 100) == 2  # floor


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1.5], ["long-name", 12345.0]]
        )
        lines = table.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "---" in lines[1]
        assert "12,345" in lines[3]


class TestExperimentsSmoke:
    """Each harness runs end-to-end at tiny scale and returns sane rows."""

    def test_figure6(self):
        result = figure6_dataset_size(
            sizes=(300,), num_queries=3, verbose=False
        )
        assert len(result.rows) == 4  # 4 index methods
        for row in result.rows:
            assert row[2] > 0  # build time
            assert row[4] >= row[2]  # combined >= build

    def test_figure7(self):
        result = figure7_large_datasets(
            sizes=(400,), num_queries=3, verbose=False
        )
        methods = {row[1] for row in result.rows}
        assert "PSCAN" in methods
        pscan_row = next(r for r in result.rows if r[1] == "PSCAN")
        assert pscan_row[4] == pytest.approx(1.0)  # scans access everything

    def test_figure8(self):
        result = figure8_series_length(
            lengths=(32, 64), size=300, num_queries=3, verbose=False
        )
        lengths = {row[0] for row in result.rows}
        assert lengths == {32, 64}

    def test_difficulty(self):
        result = difficulty_experiment(
            datasets=("SALD",),
            size=400,
            num_queries=4,
            workloads=("1%", "ood"),
            verbose=False,
        )
        assert {row[1] for row in result.rows} == {"1%", "ood"}
        scan_rows = [r for r in result.rows if r[2] == "SerialScan"]
        assert all(r[7] == pytest.approx(1.0) for r in scan_rows)
        # Harder workload accesses at least as much data for Hercules.
        hercules = {
            row[1]: row[7] for row in result.rows if row[2] == "Hercules"
        }
        assert hercules["ood"] >= hercules["1%"] * 0.5

    def test_figure11(self):
        result = figure11_knn_k(
            ks=(1, 5), size=400, num_queries=3, verbose=False
        )
        hercules = {row[0]: row[4] for row in result.rows if row[1] == "Hercules"}
        assert hercules[5] >= hercules[1]  # more neighbors, more data

    def test_figure12_indexing(self):
        result = figure12_ablation_indexing(size=400, verbose=False)
        variants = {row[0] for row in result.rows}
        assert variants == {"DSTree*", "DSTree*P", "Hercules"}
        for row in result.rows:
            assert row[3] > 0

    def test_figure12_query(self):
        result = figure12_ablation_query(
            size=400, num_queries=4, workloads=("1%", "ood"), verbose=False
        )
        variants = {row[1] for row in result.rows}
        assert variants == {"Hercules", "NoSAX", "NoThresh"}


class TestExperimentResultToJson:
    def test_tuple_keys_and_workloads_collapse(self):
        import json

        from repro.core.query import QueryProfile
        from repro.eval.experiments import ExperimentResult
        from repro.eval.metrics import WorkloadResult

        wl = WorkloadResult(
            method="Hercules", workload="5%", k=1, num_series=50,
            build_seconds=1.0,
        )
        wl.profiles.append(QueryProfile(time_total=0.1, series_accessed=5))
        result = ExperimentResult(
            figure="figX", headers=["a", "b"], rows=[[1, "x"]],
        )
        result.raw[(1000, "Hercules")] = wl
        result.raw["scalar"] = 2.5
        payload = result.to_json()
        assert payload["figure"] == "figX"
        assert payload["rows"] == [[1, "x"]]
        assert payload["raw"]["1000/Hercules"]["avg_query_seconds"] == 0.1
        assert payload["raw"]["scalar"] == 2.5
        json.dumps(payload)
