"""EAPCA: Extended Adaptive Piecewise Constant Approximation.

EAPCA (Wang et al., 2013 — the DSTree summarization; Figure 1d of the
paper) represents a series over a *variable-length* segmentation with the
mean and standard deviation of each segment.  Unlike PAA, the segmentation
is a property of the index node, not of the series: all series stored under
a node share that node's segmentation.

This module provides the segmentation value type and vectorized per-segment
statistics, including a cumulative-sum sketch that lets a query's (μ, σ)
pair be derived for *any* segmentation in O(m) after one O(n) pass — the
trick that keeps LB_EAPCA evaluations cheap while descending a tree whose
nodes all carry different segmentations.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.types import DISTANCE_DTYPE


class Segmentation:
    """An ordered list of segment right endpoints over series of length n.

    Matches the paper's definition (Section 3.2): ``SG = {r_1, ..., r_m}``
    with ``1 <= r_1 < ... < r_m = n`` and ``r_0 = 0``.  Endpoints are
    exclusive Python-slice ends, so segment ``i`` is ``series[r_{i-1}:r_i]``.
    Instances are immutable and hashable (they key the query sketch cache).
    """

    __slots__ = ("_ends", "_hash", "ends_array", "starts_array", "lengths")

    def __init__(self, ends: Iterable[int]):
        ends_tuple = tuple(int(e) for e in ends)
        if not ends_tuple:
            raise ValueError("a segmentation needs at least one segment")
        prev = 0
        for e in ends_tuple:
            if e <= prev:
                raise ValueError(f"segment ends must be strictly increasing, got {ends_tuple}")
            prev = e
        self._ends = ends_tuple
        self._hash = hash(ends_tuple)
        # Index vectors and float64 ℓ_i weights: built once, read-only,
        # shared by every statistics and lower-bound call.
        self.ends_array = np.array(ends_tuple, dtype=np.int64)
        self.starts_array = np.concatenate(([0], self.ends_array[:-1]))
        self.lengths = (self.ends_array - self.starts_array).astype(DISTANCE_DTYPE)
        for array in (self.ends_array, self.starts_array, self.lengths):
            array.setflags(write=False)

    @classmethod
    def uniform(cls, length: int, segments: int) -> "Segmentation":
        """Equi-length segmentation (lengths differ by at most one point)."""
        from repro.summarization.paa import paa_segment_bounds

        bounds = paa_segment_bounds(length, segments)
        return cls(bounds[1:])

    @property
    def ends(self) -> tuple[int, ...]:
        return self._ends

    @property
    def starts(self) -> tuple[int, ...]:
        return (0,) + self._ends[:-1]

    @property
    def length(self) -> int:
        """Length ``n`` of the series this segmentation covers."""
        return self._ends[-1]

    @property
    def num_segments(self) -> int:
        return len(self._ends)

    def segment_range(self, index: int) -> tuple[int, int]:
        """The (start, end) point range of segment ``index``."""
        return self.starts[index], self._ends[index]

    def split_vertically(self, index: int) -> "Segmentation":
        """Return a new segmentation with segment ``index`` halved.

        The V-split of Section 3.2: the chosen segment is divided into two
        sub-segments at its midpoint, so children have ``m + 1`` segments.
        Raises ``ValueError`` if the segment has fewer than two points.
        """
        start, end = self.segment_range(index)
        if end - start < 2:
            raise ValueError(
                f"segment {index} spans [{start}, {end}) and cannot be split"
            )
        mid = (start + end) // 2
        new_ends = self._ends[:index] + (mid,) + self._ends[index:]
        return Segmentation(new_ends)

    def __len__(self) -> int:
        return len(self._ends)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Segmentation) and self._ends == other._ends

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Segmentation({list(self._ends)})"


def segment_stats(
    data: np.ndarray, segmentation: Segmentation
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment mean and population standard deviation of each series.

    Parameters
    ----------
    data:
        2-D batch of series, shape ``(count, n)``.
    segmentation:
        Segmentation with ``segmentation.length == n``.

    Returns
    -------
    (means, stds):
        Two float64 arrays of shape ``(count, m)``.
    """
    arr = np.asarray(data, dtype=DISTANCE_DTYPE)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got ndim={arr.ndim}")
    if arr.shape[1] != segmentation.length:
        raise ValueError(
            f"series length {arr.shape[1]} does not match segmentation "
            f"length {segmentation.length}"
        )
    ends, starts = segmentation.ends_array, segmentation.starts_array
    lengths = segmentation.lengths

    cumsum = np.zeros((arr.shape[0], arr.shape[1] + 1), dtype=DISTANCE_DTYPE)
    cumsum[:, 1:] = arr
    cumsq = np.zeros_like(cumsum)
    np.square(cumsum[:, 1:], out=cumsq[:, 1:])
    np.cumsum(cumsq[:, 1:], axis=1, out=cumsq[:, 1:])
    np.cumsum(cumsum[:, 1:], axis=1, out=cumsum[:, 1:])

    sums = cumsum[:, ends] - cumsum[:, starts]
    sq_sums = cumsq[:, ends] - cumsq[:, starts]
    means = sums / lengths
    variances = sq_sums / lengths - means * means
    np.maximum(variances, 0.0, out=variances)  # guard float round-off
    stds = np.sqrt(variances)
    return means, stds


class SeriesSketch:
    """Cumulative-sum sketch of one series for O(m) segment statistics.

    Descending the Hercules/DSTree tree evaluates LB_EAPCA against nodes
    with many *different* segmentations.  The sketch pays one O(n) pass up
    front and then answers ``stats(segmentation)`` in O(m), with a memo per
    segmentation so repeated nodes (H-split children share their parent's
    segmentation) are free.
    """

    __slots__ = ("series", "cumsum", "cumsq", "_memo")

    def __init__(self, series: np.ndarray):
        arr = np.asarray(series, dtype=DISTANCE_DTYPE)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D series, got ndim={arr.ndim}")
        self.series = arr
        # In-place construction: the squares are written straight into the
        # cumsq buffer and both running sums accumulate in place, so the
        # only allocations are the two sketch vectors themselves.
        self.cumsum = np.zeros(arr.shape[0] + 1, dtype=DISTANCE_DTYPE)
        self.cumsum[1:] = arr
        self.cumsq = np.zeros_like(self.cumsum)
        np.square(self.cumsum[1:], out=self.cumsq[1:])
        np.cumsum(self.cumsq[1:], out=self.cumsq[1:])
        np.cumsum(self.cumsum[1:], out=self.cumsum[1:])
        self._memo: dict[Segmentation, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def length(self) -> int:
        return self.series.shape[0]

    def range_stats(self, start: int, end: int) -> tuple[float, float]:
        """Mean and population std of ``series[start:end]``."""
        if not 0 <= start < end <= self.length:
            raise ValueError(f"invalid range [{start}, {end})")
        count = end - start
        total = self.cumsum[end] - self.cumsum[start]
        total_sq = self.cumsq[end] - self.cumsq[start]
        mean = total / count
        variance = max(total_sq / count - mean * mean, 0.0)
        return float(mean), float(np.sqrt(variance))

    def stats(self, segmentation: Segmentation) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment (means, stds) of this series under ``segmentation``."""
        cached = self._memo.get(segmentation)
        if cached is not None:
            return cached
        if segmentation.length != self.length:
            raise ValueError(
                f"segmentation length {segmentation.length} does not match "
                f"series length {self.length}"
            )
        ends, starts = segmentation.ends_array, segmentation.starts_array
        lengths = segmentation.lengths
        sums = self.cumsum[ends] - self.cumsum[starts]
        sq_sums = self.cumsq[ends] - self.cumsq[starts]
        means = sums / lengths
        variances = sq_sums / lengths - means * means
        np.maximum(variances, 0.0, out=variances)
        stds = np.sqrt(variances)
        result = (means, stds)
        self._memo[segmentation] = result
        return result


class BatchSketch:
    """Cumulative-sum sketch of a whole batch of series.

    The batch analogue of :class:`SeriesSketch`, and the workhorse of
    grouped batch insertion (construction routes *groups* of series with
    one vectorized predicate per tree node instead of one Python call per
    series).  Two cumulative sums of shape ``(batch, n + 1)`` are computed
    with two NumPy calls up front; :meth:`stats` and :meth:`range_stats`
    then answer per-segment or per-range (μ, σ) for *any subset of rows*
    via fancy-indexed slice arithmetic.

    All arithmetic is performed in ``DISTANCE_DTYPE`` (float64) in the
    same order as :class:`SeriesSketch`, so the statistics — and therefore
    every routing and synopsis decision made from them — are bit-for-bit
    identical to the per-row reference path.
    """

    __slots__ = ("rows", "cumsum", "cumsq")

    def __init__(self, rows: np.ndarray):
        arr = np.asarray(rows)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got ndim={arr.ndim}")
        #: The raw batch (original dtype), for bulk stores into HBuffer.
        self.rows = arr
        self.cumsum = np.zeros(
            (arr.shape[0], arr.shape[1] + 1), dtype=DISTANCE_DTYPE
        )
        self.cumsum[:, 1:] = arr
        self.cumsq = np.zeros_like(self.cumsum)
        np.square(self.cumsum[:, 1:], out=self.cumsq[:, 1:])
        np.cumsum(self.cumsq[:, 1:], axis=1, out=self.cumsq[:, 1:])
        np.cumsum(self.cumsum[:, 1:], axis=1, out=self.cumsum[:, 1:])

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @property
    def length(self) -> int:
        return self.rows.shape[1]

    def range_stats(
        self, start: int, end: int, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-series (means, stds) over ``[start, end)``.

        ``rows`` selects a subset of the batch (any int index array);
        ``None`` covers the whole batch with plain slice arithmetic.
        """
        if not 0 <= start < end <= self.length:
            raise ValueError(f"invalid range [{start}, {end})")
        count = end - start
        if rows is None:
            totals = self.cumsum[:, end] - self.cumsum[:, start]
            totals_sq = self.cumsq[:, end] - self.cumsq[:, start]
        else:
            totals = self.cumsum[rows, end] - self.cumsum[rows, start]
            totals_sq = self.cumsq[rows, end] - self.cumsq[rows, start]
        means = totals / count
        variances = totals_sq / count - means * means
        np.maximum(variances, 0.0, out=variances)
        return means, np.sqrt(variances)

    def stats(
        self, segmentation: Segmentation, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment (means, stds) of the selected rows, shape (k, m)."""
        if segmentation.length != self.length:
            raise ValueError(
                f"segmentation length {segmentation.length} does not match "
                f"series length {self.length}"
            )
        ends, starts = segmentation.ends_array, segmentation.starts_array
        lengths = segmentation.lengths
        if rows is None:
            sums = self.cumsum[:, ends] - self.cumsum[:, starts]
            sq_sums = self.cumsq[:, ends] - self.cumsq[:, starts]
        else:
            idx = np.asarray(rows, dtype=np.int64)[:, None]
            sums = self.cumsum[idx, ends] - self.cumsum[idx, starts]
            sq_sums = self.cumsq[idx, ends] - self.cumsq[idx, starts]
        means = sums / lengths
        variances = sq_sums / lengths - means * means
        np.maximum(variances, 0.0, out=variances)
        return means, np.sqrt(variances)
