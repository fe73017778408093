"""The raw input dataset.

Every method in the paper consumes the same artifact: a headerless binary
file of float32 series.  :class:`Dataset` abstracts over an on-disk
:class:`~repro.storage.files.SeriesFile` (reads counted in IOStats, the
realistic configuration) and an in-memory array (fast path for unit tests),
exposing batch reads in both cases so the double-buffered index-building
pipeline and the scan baselines share one access pattern.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from repro.errors import StorageError
from repro.storage.files import PathLike, SeriesFile
from repro.storage.iostats import IOStats
from repro.types import SERIES_DTYPE, as_series_matrix


class Dataset:
    """A collection of equal-length data series, on disk or in memory."""

    def __init__(
        self,
        *,
        array: Optional[np.ndarray] = None,
        file: Optional[SeriesFile] = None,
    ) -> None:
        if (array is None) == (file is None):
            raise ValueError("provide exactly one of array= or file=")
        self._array = as_series_matrix(array) if array is not None else None
        self._file = file

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_array(cls, data: np.ndarray) -> "Dataset":
        """Wrap an in-memory batch of series."""
        return cls(array=data)

    @classmethod
    def open(
        cls,
        path: PathLike,
        series_length: int,
        stats: Optional[IOStats] = None,
    ) -> "Dataset":
        """Open an existing on-disk dataset file read-only."""
        file = SeriesFile(path, series_length, stats=stats, read_only=True)
        return cls(file=file)

    @classmethod
    def write(cls, path: PathLike, data: np.ndarray) -> "Dataset":
        """Materialize ``data`` to ``path`` and open it (write then reopen).

        The write is not I/O-accounted: producing the dataset is workload
        generation, not part of any measured method.
        """
        arr = as_series_matrix(data)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(arr.tobytes())
        return cls.open(path, arr.shape[1])

    # -- accessors ---------------------------------------------------------

    @property
    def on_disk(self) -> bool:
        return self._file is not None

    @property
    def path(self) -> Optional[Path]:
        return self._file.path if self._file is not None else None

    @property
    def stats(self) -> Optional[IOStats]:
        return self._file.stats if self._file is not None else None

    @property
    def num_series(self) -> int:
        if self._array is not None:
            return self._array.shape[0]
        return self._file.num_series

    @property
    def series_length(self) -> int:
        if self._array is not None:
            return self._array.shape[1]
        return self._file.series_length

    @property
    def total_bytes(self) -> int:
        return self.num_series * self.series_length * SERIES_DTYPE.itemsize

    def read_batch(self, start: int, count: int) -> np.ndarray:
        """Read ``count`` series starting at position ``start``."""
        if start < 0 or count < 0 or start + count > self.num_series:
            raise StorageError(
                f"read_batch({start}, {count}) outside dataset with "
                f"{self.num_series} series"
            )
        if self._array is not None:
            return self._array[start : start + count]
        return self._file.read_range(start, count)

    def read_series(self, position: int) -> np.ndarray:
        return self.read_batch(position, 1)[0]

    def read_positions(self, positions: np.ndarray) -> np.ndarray:
        """Read series at sorted positions, coalescing consecutive runs.

        On disk, one ``read_range`` call over one-series extents: one read
        (one seek at most) per run of adjacent positions, which is what
        the skip-sequential refinement phases of ParIS+ and VA+file rely
        on.  In memory, one fancy index.
        """
        pos = np.asarray(positions, dtype=np.int64)
        if self._array is not None:
            return self._array[pos]
        return self._file.read_range(pos, np.ones_like(pos))

    def iter_batches(self, batch_size: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start_position, batch)`` pairs covering the dataset."""
        if batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        for start in range(0, self.num_series, batch_size):
            count = min(batch_size, self.num_series - start)
            yield start, self.read_batch(start, count)

    def load_all(self) -> np.ndarray:
        """Read the full dataset into memory."""
        return self.read_batch(0, self.num_series)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def __enter__(self) -> "Dataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        where = str(self.path) if self.on_disk else "memory"
        return (
            f"Dataset({self.num_series} series x {self.series_length} "
            f"points, {where})"
        )
