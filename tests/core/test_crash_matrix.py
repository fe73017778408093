"""Crash matrix: a build crashed at ANY storage operation must leave a
directory that either opens as a fully correct index or raises a clean
StorageError — never silently wrong answers, never hung threads.
"""

import threading

import numpy as np
import pytest

from repro.core import HerculesConfig, HerculesIndex
from repro.errors import StorageError
from repro.storage import faults

from ..conftest import make_random_walks

SERIES = 80
LENGTH = 24
QUERIES = 3


@pytest.fixture(scope="module")
def data():
    return make_random_walks(SERIES, LENGTH, seed=77)


@pytest.fixture(scope="module")
def config():
    return HerculesConfig(
        leaf_capacity=16,
    )


@pytest.fixture(scope="module")
def reference(data, config, tmp_path_factory):
    """Uncrashed build: the answers every recovered index must reproduce."""
    directory = tmp_path_factory.mktemp("crash-ref") / "index"
    index = HerculesIndex.build(data, config, directory=directory)
    queries = data[:QUERIES] + 0.01
    answers = [index.knn(q, k=3) for q in queries]
    index.close()
    return queries, answers


@pytest.fixture(scope="module")
def op_counts(data, config, tmp_path_factory):
    """Operation counts of a clean build — they define the crash matrix."""
    directory = tmp_path_factory.mktemp("crash-count") / "index"
    with faults.inject([]) as counter:
        HerculesIndex.build(data, config, directory=directory).close()
    return dict(counter.counts)


def _assert_recovers(directory, reference):
    """The post-crash contract: correct answers or a clean StorageError."""
    queries, ref_answers = reference
    try:
        index = HerculesIndex.open(directory, verify="full")
    except StorageError:
        return "rejected"
    try:
        for query, ref in zip(queries, ref_answers):
            answer = index.knn(query, k=3)
            np.testing.assert_allclose(
                answer.distances, ref.distances, rtol=1e-6
            )
            np.testing.assert_array_equal(answer.positions, ref.positions)
    finally:
        index.close()
    return "recovered"


def _run_crashed_build(data, config, directory, plan):
    threads_before = threading.active_count()
    with faults.inject(plan):
        with pytest.raises(faults.InjectedFault):
            HerculesIndex.build(data, config, directory=directory)
    # No writer thread may outlive the crashed build.
    for _ in range(100):
        if threading.active_count() <= threads_before:
            break
        threading.Event().wait(0.05)
    assert threading.active_count() <= threads_before


def test_matrix_covers_every_write(op_counts):
    assert op_counts["write"] >= 10  # the matrix below is not vacuous
    assert op_counts["flush"] >= 1


def test_crash_at_every_write(data, config, reference, op_counts, tmp_path):
    outcomes = {"recovered": 0, "rejected": 0}
    for k in range(1, op_counts["write"] + 1):
        directory = tmp_path / f"crash-w{k}"
        _run_crashed_build(
            data, config, directory, faults.FaultPlan(op="write", at=k)
        )
        outcomes[_assert_recovers(directory, reference)] += 1
    # A crash before the manifest commit must never look healthy.
    assert outcomes["rejected"] == op_counts["write"]


def test_torn_write_at_every_write(data, config, reference, op_counts, tmp_path):
    for k in range(1, op_counts["write"] + 1):
        directory = tmp_path / f"torn-w{k}"
        _run_crashed_build(
            data,
            config,
            directory,
            faults.FaultPlan(op="write", at=k, mode="torn", torn_fraction=0.5),
        )
        _assert_recovers(directory, reference)


def test_crash_at_every_flush(data, config, reference, op_counts, tmp_path):
    for k in range(1, op_counts["flush"] + 1):
        directory = tmp_path / f"crash-f{k}"
        _run_crashed_build(
            data, config, directory, faults.FaultPlan(op="flush", at=k)
        )
        _assert_recovers(directory, reference)


def test_crash_over_previous_generation_keeps_or_rejects(
    data, config, reference, tmp_path
):
    """Rebuilding over a committed index and crashing mid-way must leave
    either the old generation (still correct) or a cleanly rejected mix."""
    directory = tmp_path / "regen"
    HerculesIndex.build(data, config, directory=directory).close()
    assert _assert_recovers(directory, reference) == "recovered"
    # Crash early: staging writes die before any artifact is republished,
    # so the previous generation must still be served.
    _run_crashed_build(
        data, config, directory, faults.FaultPlan(op="write", at=2)
    )
    assert _assert_recovers(directory, reference) == "recovered"
