"""Exact Euclidean distance kernels.

Two optimizations from the UCR suite carry over to whole matching and are
used throughout (Section 2, "The UCR Suite"):

* **squared distances** — comparisons happen on squared values and the
  square root is taken once at the end;
* **early abandoning** — a running sum that exceeds the best-so-far bound
  stops the accumulation.

The batch kernels are the SIMD analog: they evaluate a whole candidate
matrix at once.  ``early_abandon_squared`` implements early abandoning in
*column blocks* so it stays vectorized: after each block of points the rows
whose partial sum already exceeds the cutoff are dropped from the rest of
the computation.  The number of point comparisons actually performed is
returned so harnesses can report work done, not just wall-clock.
"""

from __future__ import annotations

import numpy as np

from repro.types import DISTANCE_DTYPE, SERIES_DTYPE

#: Column-block width used by the blocked early-abandoning kernel.
DEFAULT_ABANDON_BLOCK = 32

#: Rows per whole-row pass of the early-abandoning kernel.
_EXACT_ROWS = 64


def _as_candidates(candidates: np.ndarray) -> np.ndarray:
    """``candidates`` as a 2-D matrix the kernels subtract a float64 query
    from.  A float32 block is kept as read: float32 - float64 promotes
    each element exactly, so the differences are the ones a float64 copy
    would give, without the copy."""
    cands = np.asarray(candidates)
    if cands.dtype != SERIES_DTYPE:
        cands = np.asarray(cands, dtype=DISTANCE_DTYPE)
    return cands.reshape(1, -1) if cands.ndim == 1 else cands


def squared_euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance between two 1-D series."""
    x = np.asarray(a, dtype=DISTANCE_DTYPE)
    y = np.asarray(b, dtype=DISTANCE_DTYPE)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    diff = x - y
    return float(np.dot(diff, diff))


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two 1-D series."""
    return float(np.sqrt(squared_euclidean(a, b)))


def batch_squared_euclidean(query: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Squared ED between one query and every row of ``candidates``.

    Returns a float64 vector of length ``candidates.shape[0]``.
    """
    q = np.asarray(query, dtype=DISTANCE_DTYPE)
    cands = _as_candidates(candidates)
    if q.ndim != 1 or cands.shape[1] != q.shape[0]:
        raise ValueError(
            f"query shape {q.shape} incompatible with candidates {cands.shape}"
        )
    diff = cands - q
    return np.einsum("ij,ij->i", diff, diff)


def early_abandon_squared(
    query: np.ndarray,
    candidates: np.ndarray,
    cutoff_squared: float,
    block: int = DEFAULT_ABANDON_BLOCK,
) -> tuple[np.ndarray, int]:
    """Blocked early-abandoning squared ED.

    Accumulates squared differences ``block`` columns at a time and removes
    rows whose partial sum already exceeds ``cutoff_squared``.  Abandoned
    rows report ``inf``; surviving rows carry exactly the value
    :func:`batch_squared_euclidean` would compute for them, so callers can
    mix the two kernels without rounding drift.

    Nothing is copied on the way in: a float32 block is used as read, and
    until a row is abandoned each column block is a plain slice of it.

    Returns
    -------
    (distances, points_compared):
        ``distances`` is float64 of length ``count`` with ``inf`` for
        abandoned candidates; ``points_compared`` counts the individual
        point comparisons performed (the early-abandoning savings metric).
    """
    q = np.asarray(query, dtype=DISTANCE_DTYPE)
    cands = _as_candidates(candidates)
    count, n = cands.shape
    if q.shape != (n,):
        raise ValueError(
            f"query shape {q.shape} incompatible with candidates {cands.shape}"
        )
    if block <= 0:
        raise ValueError(f"block must be positive, got {block}")
    distances = np.empty(count, dtype=DISTANCE_DTYPE)
    distances.fill(np.inf)
    #: Rows still in the race (None: all of them).
    alive = None
    points_compared = count * n
    # A cutoff that abandons nothing (this also covers NaN) goes straight
    # to the whole-row pass: identical to the plain batch kernel.
    if cutoff_squared < np.inf:
        partial = np.zeros(count, dtype=DISTANCE_DTYPE)
        points_compared = 0
        for start in range(0, n, block):
            end = min(start + block, n)
            columns = cands[:, start:end] if alive is None else cands[alive, start:end]
            diff = columns - q[start:end]
            partial += np.einsum("ij,ij->i", diff, diff)
            points_compared += partial.shape[0] * (end - start)
            keep = partial <= cutoff_squared
            kept = np.count_nonzero(keep)
            if kept < partial.shape[0]:
                if not kept:
                    return distances, points_compared
                alive = keep.nonzero()[0] if alive is None else alive[keep]
                partial = partial[keep]

    # Survivors are re-evaluated whole-row so their values agree
    # bit-for-bit with ``batch_squared_euclidean`` (blocked partial sums
    # round differently); abandoning decided who pays full price, the row
    # kernel decides the exact value.  A few rows at a time: the float64
    # difference matrix is the kernel's largest temporary.
    survivors = count if alive is None else alive.shape[0]
    for lo in range(0, survivors, _EXACT_ROWS):
        slab = slice(lo, lo + _EXACT_ROWS) if alive is None else alive[lo : lo + _EXACT_ROWS]
        diff = cands[slab] - q
        distances[slab] = np.einsum("ij,ij->i", diff, diff)
    return distances, points_compared


def early_abandon_squared_multi(
    queries: np.ndarray,
    candidates: np.ndarray,
    cutoffs_squared: np.ndarray,
    block: int = DEFAULT_ABANDON_BLOCK,
    row_masks: np.ndarray = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-screened squared ED for a whole query block.

    The multi-query analog of :func:`early_abandon_squared`: one pass
    over the candidate matrix serves every query, so each candidate row
    is loaded once and shared across the query dimension.  Instead of
    per-point abandoning (a Python-level block loop per query), the
    whole (num_queries x count) distance matrix is *screened* with one
    BLAS matmul via ``|q|² + |c|² - 2 q·c``, and only the pairs whose
    screened value beats that query's cutoff (plus a rounding-slack
    margin, so the matmul's float error can never drop a true survivor)
    are re-evaluated whole-row — the identical summation order the
    single-query kernel uses, so every reported value is bit-for-bit
    the one :func:`early_abandon_squared` would report.  Each query
    carries its own cutoff; ``row_masks`` (shape
    ``(num_queries, count)``; False rows are never evaluated for that
    query and report ``inf``) optionally restricts the candidate set up
    front.  ``block`` is accepted for signature compatibility with the
    single-query kernel and ignored — the matmul screen touches every
    point once instead of abandoning column blocks.

    Returns
    -------
    (distances, points_compared):
        ``distances`` is float64 of shape ``(num_queries, count)`` with
        ``inf`` for screened-out or masked-out (query, candidate)
        pairs; ``points_compared`` is an int64 vector of per-query
        point comparison counts (every masked-in point — the matmul
        screen has no abandoning savings to report).
    """
    qs = np.asarray(queries, dtype=DISTANCE_DTYPE)
    cands = np.asarray(candidates, dtype=DISTANCE_DTYPE)
    if cands.ndim == 1:
        cands = cands.reshape(1, -1)
    if qs.ndim != 2 or cands.shape[1] != qs.shape[1]:
        raise ValueError(
            f"queries shape {qs.shape} incompatible with candidates {cands.shape}"
        )
    cutoffs = np.asarray(cutoffs_squared, dtype=DISTANCE_DTYPE)
    num_queries = qs.shape[0]
    count, n = cands.shape
    if cutoffs.shape != (num_queries,):
        raise ValueError(
            f"expected {num_queries} cutoffs, got shape {cutoffs.shape}"
        )
    if row_masks is not None and row_masks.shape != (num_queries, count):
        raise ValueError(
            f"row_masks shape {row_masks.shape} incompatible with "
            f"({num_queries}, {count})"
        )
    if block <= 0:
        raise ValueError(f"block must be positive, got {block}")
    distances = np.full((num_queries, count), np.inf, dtype=DISTANCE_DTYPE)
    points_compared = np.zeros(num_queries, dtype=np.int64)
    if count == 0 or num_queries == 0:
        return distances, points_compared

    # A NaN cutoff means "nothing can be screened out", matching the
    # single-query kernel's non-finite-cutoff path.
    cutoffs = np.where(np.isnan(cutoffs), np.inf, cutoffs)
    qs_norms = np.einsum("ij,ij->i", qs, qs)
    cand_norms = np.einsum("ij,ij->i", cands, cands)
    # One matmul screens every (query, candidate) pair.  The screen is
    # only a gate — a pair may pass with a slightly-off value, never
    # the reported one.  The slack keeps the gate conservative: the
    # matmul form's rounding error is bounded orders of magnitude below
    # 1e-7 of the operand norms at any realistic series length, so a
    # pair whose true distance beats the cutoff always passes.
    screened = qs_norms[:, None] + cand_norms[None, :] - 2.0 * (qs @ cands.T)
    slack = 1e-7 * (qs_norms[:, None] + cand_norms[None, :]) + 1e-12
    keep = screened <= cutoffs[:, None] + slack
    if row_masks is not None:
        keep &= row_masks
        points_compared[:] = row_masks.sum(axis=1) * n
    else:
        points_compared[:] = count * n
    for qi in range(num_queries):
        rows = np.nonzero(keep[qi])[0]
        if rows.shape[0]:
            # Same whole-row re-evaluation as the single-query kernel:
            # the screen decided who pays full price, the row kernel
            # decides the exact value.
            diff = cands[rows] - qs[qi]
            distances[qi, rows] = np.einsum("ij,ij->i", diff, diff)
    return distances, points_compared


def knn_from_distances(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the ``k`` smallest distances, sorted ascending.

    Fewer than ``k`` entries are returned when ``distances`` is shorter.
    """
    dist = np.asarray(distances, dtype=DISTANCE_DTYPE)
    if dist.ndim != 1:
        raise ValueError("expected a 1-D distance vector")
    k = min(k, dist.shape[0])
    if k <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=DISTANCE_DTYPE)
    part = np.argpartition(dist, k - 1)[:k]
    order = np.argsort(dist[part], kind="stable")
    idx = part[order]
    return idx.astype(np.int64), dist[idx]
