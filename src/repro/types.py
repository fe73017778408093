"""Shared scalar types and array conventions.

The paper represents data series points with single-precision floats
(Section 4.1), so raw series are stored as ``float32`` throughout.  All
distance *accumulations* are performed in ``float64`` to keep the exactness
invariant (every method returns identical k-NN distances) independent of
summation order across methods and thread schedules.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: dtype of raw data series values on disk and in buffers.
SERIES_DTYPE = np.dtype(np.float32)

#: dtype used for distance accumulation and lower bounds.
DISTANCE_DTYPE = np.dtype(np.float64)

#: dtype of one iSAX symbol at the maximum cardinality (alphabet 256).
SYMBOL_DTYPE = np.dtype(np.uint8)

#: Sentinel used for "no position" in result records.
NO_POSITION = -1


def as_series_matrix(data: np.ndarray) -> np.ndarray:
    """Return ``data`` as a C-contiguous 2-D ``float32`` matrix.

    Accepts a single series (1-D) or a batch (2-D); a single series is
    promoted to a one-row matrix.  Raises ``ValueError`` for other ranks.
    """
    arr = np.asarray(data, dtype=SERIES_DTYPE)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D series data, got ndim={arr.ndim}")
    return np.ascontiguousarray(arr)


def as_series(
    data: np.ndarray, length: Optional[int] = None, ndim: int = 1
) -> np.ndarray:
    """Return ``data`` as a contiguous ``float32`` series (``ndim`` 1) or
    ``(Q, length)`` matrix of series (``ndim`` 2).

    Given ``length`` — the series length of the index a query enters —
    it also raises ``ValueError`` for any other length or a NaN or
    infinite value, each of which would otherwise fail deep inside a
    query, or silently return an empty answer.
    """
    arr = np.asarray(data, dtype=SERIES_DTYPE)
    if arr.ndim != ndim:
        expected = "a single 1-D series" if ndim == 1 else "a 2-D (Q, length) matrix"
        raise ValueError(f"expected {expected}, got ndim={arr.ndim}")
    if length is not None:
        if arr.shape[-1] != length:
            raise ValueError(
                f"query length {arr.shape[-1]} does not match the index's series "
                f"length {length}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("query holds NaN or infinite values")
    return np.ascontiguousarray(arr)
