"""Unit tests for the HBuffer."""

import numpy as np
import pytest

from repro.core.buffers import HBuffer
from repro.errors import ConfigError


class TestHBuffer:
    def test_store_and_get_rows(self):
        buf = HBuffer(capacity=8, series_length=3)
        s0 = buf.store(np.array([1, 2, 3], dtype=np.float32))
        s1 = buf.store(np.array([4, 5, 6], dtype=np.float32))
        s2 = buf.store(np.array([7, 8, 9], dtype=np.float32))
        assert [s0, s1, s2] == [0, 1, 2]
        rows = buf.get_rows([s0, s1, s2])
        np.testing.assert_array_equal(rows, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])

    def test_free_slots_and_overflow(self):
        buf = HBuffer(capacity=2, series_length=2)
        assert buf.free_slots() == 2
        buf.store(np.zeros(2, dtype=np.float32))
        buf.store(np.zeros(2, dtype=np.float32))
        assert buf.free_slots() == 0
        with pytest.raises(ConfigError):
            buf.store(np.zeros(2, dtype=np.float32))

    def test_reset_regions(self):
        buf = HBuffer(capacity=2, series_length=2)
        buf.store(np.ones(2, dtype=np.float32))
        assert buf.free_slots() == 1
        buf.reset()
        assert buf.free_slots() == 2

    def test_rejects_empty_capacity(self):
        with pytest.raises(ConfigError):
            HBuffer(capacity=0, series_length=2)

    def test_store_batch_is_contiguous_and_matches_store(self):
        buf = HBuffer(capacity=4, series_length=3)
        rows = np.arange(9, dtype=np.float32).reshape(3, 3)
        start = buf.store_batch(rows)
        assert start == 0
        np.testing.assert_array_equal(
            buf.get_rows(range(start, start + 3)), rows
        )
        assert buf.free_slots() == 1
        # A following single store lands right after the batch.
        slot = buf.store(np.full(3, 9.0, dtype=np.float32))
        assert slot == start + 3

    def test_store_batch_exactly_filling_region(self):
        buf = HBuffer(capacity=2, series_length=2)
        rows = np.ones((2, 2), dtype=np.float32)
        buf.store_batch(rows)  # the buffer holds exactly 2
        assert buf.free_slots() == 0

    def test_store_batch_overflow_rejected_atomically(self):
        buf = HBuffer(capacity=2, series_length=2)
        buf.store(np.zeros(2, dtype=np.float32))
        with pytest.raises(ConfigError):
            buf.store_batch(np.ones((2, 2), dtype=np.float32))
        # Nothing was written: the buffer still has its one free slot.
        assert buf.free_slots() == 1

    def test_get_rows_into_preallocated_output(self):
        buf = HBuffer(capacity=6, series_length=2)
        buf.store_batch(np.arange(8, dtype=np.float32).reshape(4, 2))
        out = np.empty((2, 2), dtype=np.float32)
        returned = buf.get_rows([3, 1], out=out)
        assert returned is out
        np.testing.assert_array_equal(out, [[6, 7], [2, 3]])
