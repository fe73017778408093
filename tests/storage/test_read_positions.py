"""Property tests for coalesced position reads (SeriesFile + Dataset)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.dataset import Dataset
from repro.storage.files import SeriesFile, adjacent_runs
from repro.storage.iostats import IOStats

from ..conftest import make_random_walks


@pytest.fixture(scope="module")
def on_disk(tmp_path_factory):
    data = make_random_walks(100, 8, seed=250)
    path = tmp_path_factory.mktemp("rp") / "data.bin"
    Dataset.write(path, data).close()
    return path, data


class TestSeriesFileReadPositions:
    def test_matches_per_position_reads(self, on_disk):
        path, data = on_disk
        with SeriesFile(path, 8, read_only=True) as f:
            positions = np.array([3, 4, 5, 9, 20, 21, 50])
            rows = f.read_positions(positions)
            np.testing.assert_array_equal(rows, data[positions])

    def test_coalesces_runs_into_single_reads(self, on_disk):
        path, _ = on_disk
        stats = IOStats()
        with SeriesFile(path, 8, stats=stats, read_only=True) as f:
            f.read_positions(np.array([10, 11, 12, 40, 41, 90]))
        assert stats.snapshot().read_calls == 3  # three runs

    def test_empty_positions(self, on_disk):
        path, _ = on_disk
        with SeriesFile(path, 8, read_only=True) as f:
            rows = f.read_positions(np.array([], dtype=np.int64))
            assert rows.shape == (0, 8)


class TestDatasetReadPositions:
    def test_matches_fancy_indexing(self, on_disk):
        path, data = on_disk
        with Dataset.open(path, 8) as ds:
            positions = np.array([0, 1, 7, 8, 9, 99])
            np.testing.assert_array_equal(
                ds.read_positions(positions), data[positions]
            )

    def test_in_memory_dataset(self, on_disk):
        _, data = on_disk
        ds = Dataset.from_array(data)
        positions = np.array([5, 6, 7])
        np.testing.assert_array_equal(ds.read_positions(positions), data[5:8])


@settings(max_examples=40, deadline=None)
@given(
    positions=st.lists(st.integers(0, 99), min_size=0, max_size=30, unique=True)
)
def test_read_positions_property(on_disk, positions):
    """Any sorted unique position list reads exactly those rows in order."""
    path, data = on_disk
    sorted_positions = np.array(sorted(positions), dtype=np.int64)
    with Dataset.open(path, 8) as ds:
        rows = ds.read_positions(sorted_positions)
    np.testing.assert_array_equal(rows, data[sorted_positions])


class TestAdjacentRuns:
    """The one run detector behind both ``read_positions``, the batch
    engine's per-leaf grouping and refinement's read coalescing."""

    @staticmethod
    def _runs(values, step=1):
        starts, ends = adjacent_runs(np.asarray(values), step)
        return list(zip(starts.tolist(), ends.tolist()))

    def test_runs_of_adjacent_positions(self):
        assert self._runs([3, 4, 5, 9, 20, 21]) == [(0, 3), (3, 4), (4, 6)]

    def test_runs_of_equal_values(self):
        assert self._runs([7, 7, 8, 8, 8, 2], step=0) == [(0, 2), (2, 5), (5, 6)]

    def test_runs_of_file_adjacent_extents(self):
        starts, sizes = np.array([0, 10, 15, 40, 42]), np.array([10, 5, 3, 2, 9])
        assert self._runs(starts, sizes[:-1]) == [(0, 3), (3, 5)]

    def test_single_value_and_empty(self):
        assert self._runs([5]) == [(0, 1)]
        assert self._runs(np.empty(0, dtype=np.int64)) == []

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.integers(0, 40), min_size=1, max_size=40))
    def test_matches_the_per_element_loop(self, values):
        expected, start = [], 0
        for end in range(1, len(values) + 1):
            if end == len(values) or values[end] != values[end - 1] + 1:
                expected.append((start, end))
                start = end
        assert self._runs(values) == expected
