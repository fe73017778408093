"""Tests for the design-choice ablation helpers."""

import numpy as np
import pytest

from repro import HerculesConfig, HerculesIndex
from repro.eval.ablation import (
    build_with_per_leaf_buffers,
    threshold_sensitivity,
)

from ..conftest import make_random_walks


class TestPerLeafBufferBuild:
    def test_builds_a_complete_tree(self):
        data = make_random_walks(400, 32, seed=170)
        config = HerculesConfig(
            leaf_capacity=40
        )
        report = build_with_per_leaf_buffers(data, config)
        assert report.num_leaves > 1
        assert report.seconds > 0

    def test_counts_allocations_and_copies(self):
        data = make_random_walks(500, 32, seed=171)
        config = HerculesConfig(
            leaf_capacity=25
        )
        report = build_with_per_leaf_buffers(data, config)
        # Every split allocates two child buffers and copies the parent's
        # series; with ~20 leaves that is dozens of allocations and at
        # least one copy of most series.
        assert report.allocations >= 2 * (report.num_leaves - 1)
        assert report.copies >= data.shape[0]

    def test_degenerate_data_stays_single_leaf(self):
        data = np.tile(make_random_walks(1, 16, seed=172), (60, 1))
        config = HerculesConfig(
            leaf_capacity=20
        )
        report = build_with_per_leaf_buffers(data, config)
        assert report.num_leaves == 1
        assert report.copies == 0


class TestThresholdSensitivity:
    @pytest.fixture(scope="class")
    def index(self, tmp_path_factory):
        data = make_random_walks(600, 32, seed=173)
        config = HerculesConfig(
            leaf_capacity=40,
            l_max=2,
            sax_segments=8,
        )
        idx = HerculesIndex.build(
            data, config, directory=tmp_path_factory.mktemp("sens")
        )
        yield idx
        idx.close()

    def test_produces_full_grid(self, index):
        queries = make_random_walks(3, 32, seed=174)
        records = threshold_sensitivity(
            index,
            {"w": queries},
            eapca_values=(0.0, 0.5),
            sax_values=(0.0, 0.9),
        )
        assert len(records) == 4
        combos = {(r["eapca_th"], r["sax_th"]) for r in records}
        assert combos == {(0.0, 0.0), (0.0, 0.9), (0.5, 0.0), (0.5, 0.9)}

    def test_thresholds_change_paths_not_answers(self, index):
        query = make_random_walks(1, 32, seed=175)[0]
        answers = []
        for eapca_th in (0.0, 0.9):
            config = index.config.with_options(eapca_th=eapca_th)
            answers.append(index.knn(query, k=3, config=config))
        np.testing.assert_allclose(
            answers[0].distances, answers[1].distances, atol=1e-9
        )

    def test_zero_thresholds_disable_skip_sequential(self, index):
        queries = make_random_walks(3, 32, seed=176)
        records = threshold_sensitivity(
            index, {"w": queries}, eapca_values=(0.0,), sax_values=(0.0,)
        )
        for record in records:
            assert "eapca-skipseq" not in record["paths"]
            assert "sax-skipseq" not in record["paths"]
