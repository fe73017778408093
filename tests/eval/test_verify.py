"""Tests for the self-verification helpers and CLI command."""

import numpy as np
import pytest

from repro import HerculesConfig, HerculesIndex
from repro.baselines import SerialScan
from repro.eval.verify import verify_epsilon, verify_exactness

from ..conftest import make_random_walks


@pytest.fixture(scope="module")
def corpus():
    return make_random_walks(400, 32, seed=310)


@pytest.fixture(scope="module")
def index(corpus, tmp_path_factory):
    config = HerculesConfig(
        leaf_capacity=40,
        l_max=2,
        sax_segments=8,
    )
    idx = HerculesIndex.build(
        corpus, config, directory=tmp_path_factory.mktemp("verify")
    )
    yield idx
    idx.close()


class TestVerifyExactness:
    def test_correct_method_passes(self, index, corpus):
        queries = make_random_walks(5, 32, seed=311)
        report = verify_exactness(index, corpus, queries, k=5)
        assert report.passed
        assert report.queries_checked == 5
        assert "PASS" in report.format()

    def test_broken_method_fails(self, corpus):
        class Liar:
            name = "Liar"

            def __init__(self, inner):
                self.inner = inner

            def knn(self, query, k):
                answer = self.inner.knn(query, k=k)
                answer.distances[-1] *= 2.0  # corrupt the kth answer
                return answer

        scan = SerialScan(corpus)
        queries = make_random_walks(3, 32, seed=312)
        report = verify_exactness(Liar(scan), corpus, queries, k=3)
        assert not report.passed
        assert len(report.failures) == 3
        assert "FAIL" in report.format()

    def test_wrong_answer_count_detected(self, corpus):
        class Shortchanger:
            name = "Short"

            def knn(self, query, k):
                from repro.core.query import QueryAnswer

                return QueryAnswer(
                    np.zeros(1), np.zeros(1, dtype=np.int64)
                )

        queries = make_random_walks(2, 32, seed=313)
        report = verify_exactness(Shortchanger(), corpus, queries, k=5)
        assert not report.passed


class TestVerifyEpsilon:
    def test_guarantee_verified(self, index, corpus):
        queries = make_random_walks(5, 32, seed=314)
        for epsilon in (0.0, 0.25, 1.0):
            report = verify_epsilon(index, corpus, queries, epsilon, k=3)
            assert report.passed, report.format()


class TestVerifyCli:
    def test_verify_command_passes(self, tmp_path, capsys):
        from repro.cli import main
        from repro.storage.dataset import Dataset

        data = make_random_walks(250, 16, seed=315)
        Dataset.write(tmp_path / "d.bin", data).close()
        code = main(
            [
                "verify",
                "--dataset",
                str(tmp_path / "d.bin"),
                "--length",
                "16",
                "--k",
                "3",
                "--num-queries",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6  # six methods + epsilon checks
        assert "FAIL" not in out
