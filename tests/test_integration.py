"""Kitchen-sink integration test: the full production workflow.

Generate → materialize dataset on disk → build under buffer pressure →
reopen from disk → every query mode → cross-method agreement → I/O
accounting sanity.  One scenario, every moving part.
"""

import numpy as np
import pytest

from repro import HerculesConfig, HerculesIndex
from repro.baselines import DSTreeConfig, DSTreeIndex, PScan
from repro.eval.metrics import run_workload
from repro.storage.dataset import Dataset
from repro.storage.iostats import IOStats
from repro.workloads.datasets import seismic_like
from repro.workloads.generators import make_query_workloads


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    base = tmp_path_factory.mktemp("e2e")
    raw = seismic_like(2_000, 128, seed=240)
    indexable, workloads = make_query_workloads(
        raw, queries_per_workload=6, seed=241
    )
    dataset = Dataset.write(base / "dataset.bin", indexable)

    build_stats = IOStats()
    config = HerculesConfig(
        leaf_capacity=80,
        db_size=128,
        buffer_capacity=512,  # force flushes
        l_max=4,
        sax_segments=16,
    )
    index = HerculesIndex.build(
        dataset, config, directory=base / "index", stats=build_stats
    )
    yield base, dataset, indexable, workloads, index, build_stats
    index.close()
    dataset.close()


class TestEndToEnd:
    def test_build_under_pressure_spilled_and_wrote(self, scenario):
        _, _, indexable, _, index, build_stats = scenario
        report = index.build_report
        assert report.num_series == indexable.shape[0]
        assert report.flushes >= 1  # tiny HBuffer forced the protocol
        snap = build_stats.snapshot()
        assert snap.bytes_written > indexable.nbytes  # spill + LRD + LSD + HTree

    def test_reopen_and_all_query_modes_agree(self, scenario):
        base, _, indexable, workloads, index, _ = scenario
        reopened = HerculesIndex.open(base / "index")
        try:
            query = workloads["5%"].queries[0]
            exact = index.knn(query, k=5)

            # Reopened exact.
            np.testing.assert_allclose(
                reopened.knn(query, k=5).distances, exact.distances, atol=1e-9
            )
            # Batch.
            batch = reopened.knn_batch(workloads["5%"].queries[:2], k=5)
            np.testing.assert_allclose(
                batch[0].distances, exact.distances, atol=1e-9
            )
            # Progressive final.
            final = list(reopened.knn_progressive(query, k=5))[-1]
            np.testing.assert_allclose(final.distances, exact.distances, atol=1e-9)
            # Approximate-only is a superset-distance answer.
            approx = reopened.knn_approx(query, k=5, l_max=2)
            assert approx.distances[0] >= exact.distances[0] - 1e-9
            # ε-approximate guarantee.
            eps = reopened.knn(
                query, k=5, config=reopened.config.with_options(epsilon=0.3)
            )
            assert eps.distances[-1] <= 1.3 * exact.distances[-1] + 1e-6
        finally:
            reopened.close()

    def test_agreement_with_baselines_on_every_workload(self, scenario):
        _, dataset, indexable, workloads, index, _ = scenario
        dstree = DSTreeIndex.build(indexable, DSTreeConfig(leaf_capacity=80))
        pscan = PScan(indexable, num_threads=2)
        try:
            for label in ("1%", "10%", "ood"):
                for query in workloads[label].queries[:3]:
                    reference = pscan.knn(query, k=3).distances
                    np.testing.assert_allclose(
                        index.knn(query, k=3).distances, reference, atol=1e-5
                    )
                    np.testing.assert_allclose(
                        dstree.knn(query, k=3).distances, reference, atol=1e-5
                    )
        finally:
            dstree.close()
            pscan.close()

    def test_workload_runner_accounts_io(self, scenario):
        _, _, _, workloads, index, _ = scenario
        result = run_workload(index, workloads["1%"].queries, k=1, workload="1%")
        assert result.query_count == 6
        assert all(p.io is not None for p in result.profiles)
        assert result.avg_modeled_io_seconds > 0.0
        assert 0.0 < result.avg_data_accessed <= 1.0

    def test_difficulty_ordering_holds(self, scenario):
        _, _, _, workloads, index, _ = scenario
        accessed = {}
        for label in ("1%", "10%"):
            result = run_workload(index, workloads[label].queries, k=1)
            accessed[label] = result.avg_data_accessed
        assert accessed["10%"] >= accessed["1%"] * 0.8
