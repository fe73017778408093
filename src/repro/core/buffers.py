"""The HBuffer: one pre-allocated buffer for in-memory leaf series
(Section 3.3, Figure 3).

:class:`HBuffer` holds the raw series of *all* leaves in one large
matrix allocated up front.  Each leaf keeps an SBuffer (a plain list of
slot ids on the node) pointing into it.  Allocating once, instead of
per-leaf buffers that die on every split, is one of the paper's measured
wins: fewer system calls and no memory-manager churn during the
split-heavy start of indexing.  The paper carves the buffer into one
region per InsertWorker and double-buffers the dataset reads (the
DBuffer); the build here runs on one thread, so there is one region and
the batch being inserted is the dataset read itself.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.types import SERIES_DTYPE


class HBuffer:
    """Pre-allocated series buffer shared by every leaf.

    Slot ids are row indices into the backing matrix.  Slots are handed
    out in order and the buffer is emptied wholesale by a flush, once
    every leaf's in-memory series have been spilled.
    """

    def __init__(self, capacity: int, series_length: int) -> None:
        if capacity < 1:
            raise ConfigError(f"HBuffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.series_length = series_length
        self._data = np.empty((capacity, series_length), dtype=SERIES_DTYPE)
        self._fill = 0  # slots used since the last reset

    def free_slots(self) -> int:
        return self.capacity - self._fill

    def store(self, series: np.ndarray) -> int:
        """Copy one series into the buffer; returns its slot id."""
        if self._fill >= self.capacity:
            raise ConfigError(
                "HBuffer overflow: a flush must run before the buffer fills"
            )
        slot = self._fill
        self._data[slot] = series
        self._fill = slot + 1
        return slot

    def store_batch(self, rows: np.ndarray) -> int:
        """Copy a batch of series contiguously into the buffer.

        Returns the slot id of the first row; the batch occupies slots
        ``[start, start + len(rows))``.  One copy replaces ``len(rows)``
        :meth:`store` calls.
        """
        count = rows.shape[0]
        start = self._fill
        if start + count > self.capacity:
            raise ConfigError(
                f"HBuffer overflow: {count} series do not fit in "
                f"{self.capacity - start} free slots; a flush must run "
                f"before the buffer fills"
            )
        self._data[start : start + count] = rows
        self._fill = start + count
        return start

    def get_rows(self, slots, out: np.ndarray = None) -> np.ndarray:
        """Copy of the series at the given slot ids, one per row.

        ``out`` (shape ``(len(slots), series_length)``, matching dtype)
        receives the rows in place, avoiding an allocation.
        """
        index = np.asarray(slots, dtype=np.int64)
        if out is None:
            return self._data[index]
        np.take(self._data, index, axis=0, out=out)
        return out

    def reset(self) -> None:
        """Mark every slot free (after a flush spilled their series)."""
        self._fill = 0
