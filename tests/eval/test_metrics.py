"""Unit tests for workload measurement and extrapolation."""

import numpy as np
import pytest

from repro.core.query import QueryProfile
from repro.eval.metrics import WorkloadResult, extrapolate_10k, run_workload
from repro.storage.iostats import IOSnapshot

from ..conftest import make_random_walks


class TestExtrapolation:
    def test_paper_procedure_trims_five_each_side(self):
        times = [1.0] * 90 + [100.0] * 5 + [0.0] * 5  # outliers on both ends
        assert extrapolate_10k(times) == pytest.approx(10_000.0)

    def test_small_samples_shrink_the_trim(self):
        assert extrapolate_10k([2.0, 4.0, 6.0]) == pytest.approx(4.0 * 10_000)
        assert extrapolate_10k([3.0]) == pytest.approx(30_000.0)

    def test_empty(self):
        assert extrapolate_10k([]) == 0.0


class TestWorkloadResult:
    def _result_with(self, times, accessed, num_series=100):
        result = WorkloadResult(
            method="m", workload="w", k=1, num_series=num_series, build_seconds=2.0
        )
        for t, a in zip(times, accessed):
            profile = QueryProfile(time_total=t, series_accessed=a)
            result.profiles.append(profile)
        return result

    def test_aggregates(self):
        result = self._result_with([0.1, 0.3], [10, 30])
        assert result.avg_query_seconds == pytest.approx(0.2)
        assert result.total_query_seconds == pytest.approx(0.4)
        assert result.avg_data_accessed == pytest.approx(0.2)
        assert result.combined_seconds() == pytest.approx(2.4)

    def test_combined_with_extrapolation(self):
        result = self._result_with([0.001] * 10, [0] * 10)
        assert result.combined_seconds(10_000) == pytest.approx(2.0 + 10.0)

    def test_modeled_io(self):
        result = self._result_with([0.1], [5])
        result.profiles[0].io = IOSnapshot(
            read_calls=3, random_seeks=2, sequential_reads=1, bytes_read=1_290_000
        )
        # 2 seeks * 5 ms + 1.29 MB / 1.29 GB/s = 10 ms + 1 ms.
        assert result.avg_modeled_io_seconds == pytest.approx(0.011)
        assert result.avg_modeled_query_seconds == pytest.approx(0.111)

    def test_modeled_io_byte_scale(self):
        """byte_scale multiplies only the bandwidth term, not seeks."""
        result = self._result_with([0.1], [5])
        result.profiles[0].io = IOSnapshot(
            read_calls=3, random_seeks=2, sequential_reads=1, bytes_read=1_290_000
        )
        # 10 ms seeks + 1 ms * 1000 bytes-scale = 1.01 s.
        assert result.modeled_io_at_scale(1000.0) == pytest.approx(1.01)
        assert result.modeled_io_at_scale(1.0) == pytest.approx(
            result.avg_modeled_io_seconds
        )

    def test_modeled_io_custom_hardware(self):
        profile = QueryProfile()
        profile.io = IOSnapshot(random_seeks=4, bytes_read=2_000)
        assert profile.modeled_io_seconds(
            seek_seconds=0.001, bandwidth_bytes=1_000.0
        ) == pytest.approx(0.004 + 2.0)

    def test_modeled_io_zero_without_snapshot(self):
        assert QueryProfile().modeled_io_seconds() == 0.0

    def test_empty_profile_list(self):
        result = self._result_with([], [])
        assert result.avg_query_seconds == 0.0
        assert result.avg_data_accessed == 0.0

    def test_abandoned_fraction_and_cache_hit_rate(self):
        result = self._result_with([0.1, 0.1, 0.1], [10, 10, 10])
        # No point counts recorded yet -> neutral values.
        assert result.avg_abandoned_fraction == 0.0
        assert result.avg_cache_hit_rate is None
        result.profiles[0].points_compared = 60
        result.profiles[0].points_total = 100
        result.profiles[1].points_compared = 100
        result.profiles[1].points_total = 100
        result.profiles[0].cache_hits = 9
        result.profiles[0].cache_misses = 1
        # Mean over the two profiles with counts: (0.4 + 0.0) / 2.
        assert result.avg_abandoned_fraction == pytest.approx(0.2)
        # Only the one profile that touched the cache participates.
        assert result.avg_cache_hit_rate == pytest.approx(0.9)
        summary = result.summary()
        assert summary["avg_abandoned_fraction"] == pytest.approx(0.2)
        assert summary["avg_cache_hit_rate"] == pytest.approx(0.9)


class TestRunWorkload:
    def test_collects_profiles_and_io(self, tmp_path):
        from repro.baselines import SerialScan
        from repro.storage.dataset import Dataset

        data = make_random_walks(100, 16, seed=30)
        dataset = Dataset.write(tmp_path / "d.bin", data)
        scan = SerialScan(dataset, chunk_size=32)
        queries = make_random_walks(4, 16, seed=31)
        result = run_workload(scan, queries, k=2, workload="test")
        assert result.query_count == 4
        assert result.method == "Serial scan"
        for profile in result.profiles:
            assert profile.io is not None
            assert profile.io.bytes_read == 100 * 16 * 4  # full scan
        assert result.avg_data_accessed == 1.0
        dataset.close()

    def test_in_memory_method_has_no_io_snapshot(self):
        from repro.baselines import SerialScan

        data = make_random_walks(50, 16, seed=32)
        scan = SerialScan(data)
        result = run_workload(scan, data[:2], k=1)
        assert all(p.io is None for p in result.profiles)
        assert result.avg_modeled_io_seconds == 0.0


class TestWorkloadSummaryDict:
    def test_summary_is_json_ready(self):
        import json

        result = WorkloadResult(
            method="m", workload="w", k=3, num_series=100, build_seconds=2.0
        )
        result.profiles.append(
            QueryProfile(time_total=0.5, series_accessed=20,
                         distance_computations=40)
        )
        summary = result.summary()
        assert summary["method"] == "m"
        assert summary["k"] == 3
        assert summary["query_count"] == 1
        assert summary["avg_query_seconds"] == pytest.approx(0.5)
        assert summary["avg_data_accessed"] == pytest.approx(0.2)
        assert summary["avg_distance_computations"] == pytest.approx(40.0)
        json.dumps(summary)  # must round-trip without custom encoders


class TestRunWorkloadRegistry:
    def test_registry_receives_each_query(self):
        from repro.baselines import SerialScan
        from repro.obs import MetricsRegistry

        data = make_random_walks(60, 16, seed=33)
        scan = SerialScan(data)
        registry = MetricsRegistry()
        result = run_workload(scan, data[:3], k=1, registry=registry)
        assert result.query_count == 3
        summary = registry.summary()
        assert summary["counters"]["query.count"] == 3
        assert summary["counters"]["query.path.serial-scan"] == 3
        assert summary["histograms"]["query.seconds"]["count"] == 3

    def test_harness_does_not_clobber_method_filled_io(self, tmp_path):
        from repro.baselines import SerialScan
        from repro.storage.dataset import Dataset

        data = make_random_walks(40, 16, seed=34)
        with Dataset.write(tmp_path / "d.bin", data) as dataset:
            scan = SerialScan(dataset, chunk_size=16)
            result = run_workload(scan, data[:2], k=1)
        # SerialScan.knn fills profile.io itself (via timed_profile); the
        # harness fallback must keep that exact per-query delta.
        for profile in result.profiles:
            assert profile.io is not None
            assert profile.io.bytes_read == 40 * 16 * 4


class TestRunWorkloadBatched:
    def test_batched_matches_serial_and_records_stats(self, tmp_path):
        from repro.core import HerculesConfig, HerculesIndex
        from repro.obs import MetricsRegistry

        data = make_random_walks(300, 32, seed=35)
        index = HerculesIndex.build(
            data,
            # A short phase 1, so the batch reaches its refinement walk.
            HerculesConfig(
                leaf_capacity=16, l_max=1
            ),
            directory=tmp_path / "idx",
        )
        try:
            noise = np.random.default_rng(35).standard_normal(data[:12].shape)
            queries = data[:12] + 0.5 * noise
            serial = run_workload(index, queries, k=3)
            registry = MetricsRegistry()
            batched = run_workload(
                index, queries, k=3, registry=registry, batched=True
            )
            assert batched.query_count == serial.query_count == 12
            # Work counters land per query either way.
            summary = registry.summary()
            assert summary["counters"]["query.count"] == 12
            # The batch engine reports its sharing stats once per batch.
            assert summary["counters"]["query.batch.count"] == 1
            assert summary["counters"]["query.batch.queries"] == 12
            assert summary["counters"]["query.batch.unique_leaf_reads"] > 0
            assert (
                summary["counters"]["query.batch.leaf_uses"]
                >= summary["counters"]["query.batch.unique_leaf_reads"]
            )
        finally:
            index.close()

    def test_batched_method_without_stats_is_tolerated(self):
        from repro.obs import MetricsRegistry

        class ListBatch:
            name = "list-batch"
            num_series = 10

            def knn_batch(self, queries, k=1):
                from repro.core.query import QueryAnswer, QueryProfile
                import numpy as np

                return [
                    QueryAnswer(
                        np.zeros(k), np.zeros(k, dtype=np.int64), QueryProfile()
                    )
                    for _ in range(queries.shape[0])
                ]

        registry = MetricsRegistry()
        data = make_random_walks(4, 16, seed=36)
        result = run_workload(
            ListBatch(), data, k=1, registry=registry, batched=True
        )
        assert result.query_count == 4
        assert "query.batch.count" not in registry.summary()["counters"]
