"""Tests for approximate-search quality measures."""

import numpy as np
import pytest

from repro import HerculesConfig, HerculesIndex
from repro.core.query import QueryAnswer
from repro.eval.quality import (
    ApproximationQuality,
    QualitySummary,
    answer_quality,
    evaluate_approximate,
)

from ..conftest import make_random_walks


def make_answer(distances, positions):
    return QueryAnswer(
        np.asarray(distances, dtype=np.float64),
        np.asarray(positions, dtype=np.int64),
    )


class TestAnswerQuality:
    def test_identical_answers_are_perfect(self):
        exact = make_answer([1.0, 2.0, 3.0], [10, 20, 30])
        quality = answer_quality(exact, exact)
        assert quality.recall == 1.0
        assert quality.approximation_error == 1.0
        assert quality.average_precision == 1.0

    def test_partial_overlap(self):
        exact = make_answer([1.0, 2.0], [10, 20])
        approx = make_answer([1.0, 5.0], [10, 99])
        quality = answer_quality(approx, exact)
        assert quality.recall == 0.5
        assert quality.approximation_error == pytest.approx(2.5)
        assert quality.average_precision == pytest.approx(1.0)  # hit at rank 1

    def test_total_miss(self):
        exact = make_answer([1.0], [10])
        approx = make_answer([4.0], [99])
        quality = answer_quality(approx, exact)
        assert quality.recall == 0.0
        assert quality.average_precision == 0.0

    def test_zero_exact_distance(self):
        exact = make_answer([0.0], [10])
        same = make_answer([0.0], [10])
        far = make_answer([1.0], [99])
        assert answer_quality(same, exact).approximation_error == 1.0
        assert answer_quality(far, exact).approximation_error == np.inf

    def test_order_sensitivity_of_map(self):
        exact = make_answer([1.0, 2.0], [10, 20])
        good_order = make_answer([1.0, 2.0], [10, 20])
        bad_order = make_answer([1.5, 2.0], [99, 20])
        assert (
            answer_quality(good_order, exact).average_precision
            > answer_quality(bad_order, exact).average_precision
        )


class TestQualitySummary:
    def test_aggregation(self):
        qualities = [
            ApproximationQuality(1.0, 1.0, 1.0),
            ApproximationQuality(0.5, 1.5, 0.5),
        ]
        summary = QualitySummary.from_qualities(qualities)
        assert summary.mean_recall == 0.75
        assert summary.worst_approximation_error == 1.5
        assert summary.count == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QualitySummary.from_qualities([])


class TestEvaluateApproximate:
    @pytest.fixture(scope="class")
    def index(self, tmp_path_factory):
        data = make_random_walks(800, 32, seed=220)
        config = HerculesConfig(
            leaf_capacity=40,
            l_max=2,
            sax_segments=8,
        )
        idx = HerculesIndex.build(
            data, config, directory=tmp_path_factory.mktemp("quality")
        )
        yield idx
        idx.close()

    def test_lmax_mode_quality_improves_with_budget(self, index):
        queries = make_random_walks(8, 32, seed=221)
        small = evaluate_approximate(index, queries, k=5, l_max=1)
        large = evaluate_approximate(index, queries, k=5, l_max=index.num_leaves)
        assert large.mean_recall >= small.mean_recall
        assert large.mean_recall == 1.0

    def test_epsilon_mode_respects_guarantee(self, index):
        queries = make_random_walks(8, 32, seed=222)
        summary = evaluate_approximate(index, queries, k=5, epsilon=0.25)
        assert summary.worst_approximation_error <= 1.25 + 1e-9

    def test_requires_exactly_one_mode(self, index):
        queries = make_random_walks(2, 32, seed=223)
        with pytest.raises(ValueError):
            evaluate_approximate(index, queries, k=1)
        with pytest.raises(ValueError):
            evaluate_approximate(index, queries, k=1, l_max=2, epsilon=0.1)
