"""Exact Euclidean distance kernels.

Two optimizations from the UCR suite carry over to whole matching and are
used throughout (Section 2, "The UCR Suite"):

* **squared distances** — comparisons happen on squared values and the
  square root is taken once at the end;
* **early abandoning** — a candidate that cannot beat the best-so-far
  bound is dropped before its exact distance is paid for.

The batch kernels are the SIMD analog: they evaluate a whole candidate
matrix at once.  ``early_abandon_squared`` (one query or a query block)
abandons by *screening*: one BLAS product in the candidates' own dtype
gives ``|c|² + |q|² − 2 c·q`` for every row, a slack derived from the
dtype's rounding bound keeps that gate conservative (:func:`_screen`),
and only the rows it lets through pay the exact float64 whole-row pass —
so every reported value is :func:`batch_squared_euclidean`'s, bit for
bit.  The screen touches each point once, so the point-comparison count
the kernel returns is always ``rows × length`` (masked-in rows, for a
block).
"""

from __future__ import annotations

import numpy as np

from repro.types import DISTANCE_DTYPE, SERIES_DTYPE

#: Rows per whole-row pass of the early-abandoning kernels: the float64
#: difference matrix is their largest temporary.
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


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``|row|²`` of every row of a matrix, in its own dtype: a stacked
    ``(1 × n) @ (n × 1)`` matmul, i.e. one BLAS dot per row (on float32
    two to three times an ``einsum``'s throughput)."""
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _screen(queries: np.ndarray, cands: np.ndarray, cutoffs) -> np.ndarray:
    """The gate of the early-abandoning kernels: a ``(rows, Q)`` bool
    matrix, False only for a (candidate, query) pair whose squared
    distance certainly exceeds the query's cutoff.

    ``queries`` is ``(Q, n)`` float64, ``cands`` ``(rows, n)`` float32 or
    float64, ``cutoffs`` a float64 scalar or ``(Q,)``.

    Everything runs in the candidates' dtype (a float32 block is never
    upcast): row norms and dots by BLAS products, and ``screened = |c|² +
    |q|² − 2 c·q``.  With ``u = eps / 2`` the dtype's unit round-off and
    ``S = |c|² + |q|²``, the screened value differs from the true ``d²``
    by at most, to first order,

    * ``3u·S`` for rounding the query to the dtype,
    * ``2n·u·S`` for the three length-``n`` inner products (any summation
      order, with or without FMA: ``γ_n·Σ|a_i b_i|`` each),
    * ``3u·S`` for the two additions that combine them and ``2u·S`` for
      forming ``cutoff + slack``,

    i.e. ``(n + 4)·eps·S``; and the float64 whole-row pass, whose value
    is the one callers compare with the cutoff, is itself within
    ``(n + 2)·u64·d² ≤ (n + 2)·eps64·S`` of ``d²``.  The slack is
    ``g / (1 − g)·S`` with ``g = (n + 8)·eps + (n + 2)·eps64``: the
    extra ``4·eps`` covers the second-order terms and ``1 / (1 − g)`` the
    rounding of the computed norms the slack itself is made from;
    ``n·tiny`` on top covers products that underflow.  At ``g ≥ ½``
    (series of millions of points) no bound holds and the slack is
    infinite.  The comparison is written ``~(screened > cutoff +
    slack)``: a norm that overflowed (``inf − inf`` is NaN) or a NaN
    cutoff compares False and the pair passes on to the exact pass — the
    screen never drops what it could not bound.
    """
    n = cands.shape[1]
    info = np.finfo(cands.dtype)
    g = (n + 8) * float(info.eps) + (n + 2) * float(np.finfo(DISTANCE_DTYPE).eps)
    factor = g / (1.0 - g) if g < 0.5 else np.inf
    # Overflow and inf - inf are expected at huge magnitudes; the comparison
    # below is what handles them.
    with np.errstate(over="ignore", invalid="ignore"):
        low = queries.astype(cands.dtype, copy=False)
        total = _row_norms(cands)[:, None] + _row_norms(low)
        screened = total - 2 * (cands @ low.T)
        bound = np.add(cutoffs + n * float(info.tiny), total * factor, dtype=DISTANCE_DTYPE)
        return ~(screened > bound)


def early_abandon_squared(
    query: np.ndarray,
    candidates: np.ndarray,
    cutoff_squared,
    row_masks: np.ndarray = None,
) -> tuple[np.ndarray, object]:
    """Early-abandoning squared ED of one query, or a query block,
    against a row matrix.

    The rows are screened once (:func:`_screen`) and only those that may
    be within the cutoff are evaluated exactly.  Abandoned rows report
    ``inf`` and each of them truly exceeds the cutoff; every row at or
    below it — and any other the screen could not rule out — carries
    exactly the value :func:`batch_squared_euclidean` would compute for
    it, so callers can mix the kernels without rounding drift.

    ``query`` is one series with a scalar ``cutoff_squared``, or a
    ``(Q, n)`` block with a ``(Q,)`` cutoff vector: one BLAS screen then
    serves every query, and each query's survivors get the same
    whole-row pass a single query's would — bit for bit the values of
    the one-query call.  ``row_masks`` (block form only, ``(Q, count)``)
    restricts each query to its True rows; the others report ``inf``.

    Nothing is copied on the way in: a float32 block is used as read.

    Returns
    -------
    (distances, points_compared):
        One query: float64 distances of length ``count`` and ``count ×
        n``, since the screen touches every point once.  A block:
        ``(Q, count)`` distances and an int64 vector of per-query point
        counts (every masked-in point).
    """
    q = np.asarray(query, dtype=DISTANCE_DTYPE)
    cands = _as_candidates(candidates)
    count, n = cands.shape
    if q.ndim not in (1, 2) or q.shape[-1] != n:
        raise ValueError(
            f"query shape {q.shape} incompatible with candidates {cands.shape}"
        )
    if q.ndim == 1:
        distances = np.empty(count, dtype=DISTANCE_DTYPE)
        #: Rows the screen let through (None: all of them, in place).  A
        #: cutoff that abandons nothing (this also covers NaN) skips the
        #: screen: identical to the plain batch kernel.
        rows = None
        if cutoff_squared < np.inf:
            rows = _screen(q[None], cands, cutoff_squared)[:, 0].nonzero()[0]
            if rows.shape[0] < count:
                distances.fill(np.inf)
            else:
                rows = None
        _exact_rows(q, cands, rows, distances)
        return distances, count * n

    num_queries = q.shape[0]
    cutoffs = np.asarray(cutoff_squared, dtype=DISTANCE_DTYPE)
    if cutoffs.shape != (num_queries,):
        raise ValueError(f"expected {num_queries} cutoffs, got shape {cutoffs.shape}")
    if row_masks is not None and row_masks.shape != (num_queries, count):
        raise ValueError(
            f"row_masks shape {row_masks.shape} incompatible with ({num_queries}, {count})"
        )
    distances = np.full((num_queries, count), np.inf, dtype=DISTANCE_DTYPE)
    masked_in = count if row_masks is None else row_masks.sum(axis=1)
    points_compared = np.zeros(num_queries, dtype=np.int64) + masked_in * n
    if count == 0 or num_queries == 0:
        return distances, points_compared
    keep = _screen(q, cands, cutoffs).T
    if row_masks is not None:
        keep &= row_masks
    query_ids, rows = keep.nonzero()
    _exact_rows(q, cands, rows, distances, query_ids)
    return distances, points_compared


def _exact_rows(
    q: np.ndarray, cands: np.ndarray, rows, out: np.ndarray, query_ids=None
) -> None:
    """``out[rows] = d²(q, cands[rows])`` by the whole-row float64 pass of
    :func:`batch_squared_euclidean` (``rows`` None: every row, sliced not
    gathered), a few rows at a time.  With ``query_ids``, ``q`` is a query
    block and the pass runs over (query, row) pairs, pair ``i`` filling
    ``out[query_ids[i], rows[i]]``: the same float64 differences, each
    summed as the one-query call sums it.  The screen decides who pays
    full price, this decides the exact value."""
    total = cands.shape[0] if rows is None else rows.shape[0]
    for lo in range(0, total, _EXACT_ROWS):
        at = slice(lo, lo + _EXACT_ROWS)
        slab = at if rows is None else rows[at]
        if query_ids is None:
            diff, target = cands[slab] - q, slab
        else:
            diff, target = cands[slab] - q[query_ids[at]], (query_ids[at], slab)
        out[target] = np.einsum("ij,ij->i", diff, diff)
