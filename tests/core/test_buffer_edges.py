"""Edge-case tests for buffer containers and segmentation helpers."""

import numpy as np
import pytest

from repro.core.buffers import HBuffer
from repro.summarization.eapca import Segmentation


class TestHBufferEdges:
    def test_get_rows_empty(self):
        buf = HBuffer(capacity=4, series_length=2)
        assert buf.get_rows([]).shape == (0, 2)

    def test_store_rejects_after_reset_cycle_overflow(self):
        from repro.errors import ConfigError

        buf = HBuffer(capacity=2, series_length=2)
        buf.store(np.zeros(2, dtype=np.float32))
        buf.store(np.zeros(2, dtype=np.float32))
        buf.reset()
        buf.store(np.ones(2, dtype=np.float32))
        buf.store(np.ones(2, dtype=np.float32))
        with pytest.raises(ConfigError):
            buf.store(np.ones(2, dtype=np.float32))


class TestSegmentationEdges:
    def test_uniform_one_point_segments(self):
        seg = Segmentation.uniform(4, 4)
        assert seg.ends == (1, 2, 3, 4)
        with pytest.raises(ValueError):
            seg.split_vertically(0)  # single-point segments cannot split

    def test_lengths_float_dtype(self):
        seg = Segmentation([3, 10])
        lengths = seg.lengths
        assert lengths.dtype == np.float64
        np.testing.assert_array_equal(lengths, [3.0, 7.0])

    def test_repr_and_len(self):
        seg = Segmentation([2, 4])
        assert "2, 4" in repr(seg) or "[2, 4]" in repr(seg)
        assert len(seg) == 2
