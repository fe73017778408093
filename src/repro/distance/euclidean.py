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
gives ``c·q`` for every (query, row) pair, one comparison against a
threshold made of the rows' ``|c|²`` (an index passes its stored ones),
the query's ``|q|²`` and cutoff, and a slack derived from the dtype's
rounding bound keeps that gate conservative (:func:`_screen`), and only
the pairs it lets through pay the exact float64 whole-row pass —
so every reported value is :func:`batch_squared_euclidean`'s, bit for
bit.  The screen touches each point once, so the point-comparison count
the kernel returns is always ``rows × length`` (masked-in rows, for a
block).
"""

from __future__ import annotations

import math

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
    two to three times an ``einsum``'s throughput).  An index stores
    these for its float32 rows (``norms.bin``), so refinement passes
    them to the kernels instead of recomputing them.  A norm beyond the
    dtype's range is inf, which the screen expects."""
    with np.errstate(over="ignore"):
        return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _finite_or_nan(values: np.ndarray) -> np.ndarray:
    """``values`` with every +inf replaced by NaN (a copy only when there
    is one): a threshold term that overflowed bounds nothing, and a NaN
    threshold keeps its pairs.  The test is one BLAS dot: a sum of squares
    is finite only if every term is (one that overflows on large finite
    terms only costs the exact check)."""
    if math.isfinite(np.dot(values, values)):
        return values
    return np.where(np.isposinf(values), np.nan, values)


def _screen(queries: np.ndarray, cands: np.ndarray, cutoffs, norms: np.ndarray) -> np.ndarray:
    """The gate of the early-abandoning kernels: a bool array, False only
    for a (query, candidate) pair whose squared distance certainly
    exceeds the query's cutoff — ``(Q, rows)`` for a ``(Q, n)`` block,
    ``(rows,)`` for a 1-D query.

    ``queries`` is float64, ``cands`` ``(rows, n)`` float32 or float64,
    ``norms`` the candidates' ``|c|²`` in their dtype (:func:`_row_norms`),
    ``cutoffs`` a float64 scalar (1-D query) or ``(Q,)``.

    Everything runs in the candidates' dtype (a float32 block is never
    upcast) and costs one BLAS product, one outer sum and one
    comparison: with ``q̂`` the query rounded to the dtype, ``h = (1 −
    f) / 2``, ``a = h·|q̂|² − (cutoff + t) / 2`` per query and ``b = h·|c|²``
    per row, a pair is dropped iff ``c·q̂ < a + b``.  In exact arithmetic
    that is ``|c − q̂|² > cutoff + t + f·S`` with ``S = |c|² + |q̂|²``: the
    slack is ``f·S + t``.  With ``u = eps / 2`` the dtype's unit
    round-off, the computed comparison differs from that one by at most,
    to first order and in units of ``u·S`` on the ``d²`` scale,

    * 3 for rounding the query to the dtype,
    * ``2n`` for the three length-``n`` inner products ``|c|²``, ``|q̂|²``
      and ``c·q̂`` (any summation order, with or without FMA:
      ``γ_n·Σ|a_i b_i|`` each; the dot counts twice in ``d²``),
    * 2 for ``b`` (``h`` rounded to the dtype, and the product), 2 for
      rounding ``a`` (formed in float64) to the dtype and 1 for the outer
      sum — ``a`` carries the cutoff, but a pair can only be dropped at
      ``cutoff < d² ≤ 2S`` (to first order), where ``|a| ≤ S`` and ``|a +
      b| ≤ S / 2``, and at a negative cutoff every drop is right anyway;

    i.e. ``(n + 4)·eps·S``; and the float64 whole-row pass, whose value
    is the one callers compare with the cutoff, is itself within ``(n +
    2)·u64·d² ≤ (n + 2)·eps64·S`` of ``d²``.  With ``g = (n + 4)·eps + (n +
    2)·eps64`` the slack factor is ``f = 2g``: the second ``g`` covers the
    higher-order terms (a few, each ``O(g²)·S``, below ``g·S / 2`` together
    at ``g < 1/8``) and the shortfall of the computed norms ``f``
    multiplies (``≥ (1 − g)·S``).  ``t = 4n·tiny`` covers products that
    underflow.  At ``g ≥ 1/8`` (series of about a million float32
    points) no bound holds and every pair passes.

    The comparison is written ``~(c·q̂ < a + b)``: a dot that overflowed
    to NaN, or a NaN cutoff, compares False and the pair passes on to the
    exact pass, and so does a pair whose ``a`` or ``b`` overflowed to
    +inf (a norm beyond the dtype's range), which is made NaN first
    (:func:`_finite_or_nan`) — the screen never drops what it could not
    bound.  A one-query block takes the 1-D path, so it screens exactly as
    the one-query call does.
    """
    if queries.ndim == 2 and queries.shape[0] == 1:
        return _screen(queries[0], cands, cutoffs[0], norms)[None]
    n = cands.shape[1]
    dtype = cands.dtype
    info = np.finfo(dtype)
    g = (n + 4) * float(info.eps) + (n + 2) * float(np.finfo(DISTANCE_DTYPE).eps)
    if g >= 0.125:
        return np.ones(queries.shape[:-1] + cands.shape[:1], dtype=bool)
    half, tiny = 0.5 - g, 4 * n * float(info.tiny)
    # Overflow and inf - inf are expected at huge magnitudes; the NaN
    # substitution and the comparison's form are what handle them.
    with np.errstate(over="ignore", invalid="ignore"):
        low = queries.astype(dtype, copy=False)
        if low.ndim == 1:
            a = dtype.type(half * float(np.dot(low, low)) - 0.5 * (float(cutoffs) + tiny))
            if a == np.inf:
                a = dtype.type(np.nan)
            dots = cands @ low
        else:
            a = half * _row_norms(low).astype(DISTANCE_DTYPE) - 0.5 * (cutoffs + tiny)
            a = _finite_or_nan(a.astype(dtype))[:, None]
            dots = low @ cands.T
        b = _finite_or_nan(norms * dtype.type(half))
        return ~(dots < a + b)


def _check_norms(norms, cands: np.ndarray) -> np.ndarray:
    """``norms`` as the kernels take it — the candidates' ``|c|²`` in
    their dtype, one per row — or computed when None."""
    if norms is None:
        return _row_norms(cands)
    if norms.shape != cands.shape[:1] or norms.dtype != cands.dtype:
        raise ValueError(
            f"norms {norms.dtype}{norms.shape} do not match candidates "
            f"{cands.dtype}{cands.shape}"
        )
    return norms


def early_abandon_squared(
    query: np.ndarray,
    candidates: np.ndarray,
    cutoff_squared,
    row_masks: np.ndarray = None,
    norms: np.ndarray = None,
) -> tuple[object, object]:
    """Early-abandoning squared ED of one query, or a query block,
    against a row matrix.

    The rows are screened once (:func:`_screen`) and only those that may
    be within the cutoff are evaluated exactly.  Every row at or below
    the cutoff — and any other the screen could not rule out — carries
    exactly the value :func:`batch_squared_euclidean` would compute for
    it, so callers can mix the kernels without rounding drift; a row the
    screen drops truly exceeds the cutoff.

    ``query`` is one series with a scalar ``cutoff_squared``, or a
    ``(Q, n)`` block with a ``(Q,)`` cutoff vector: one BLAS screen then
    serves every query, and each query's survivors get the same
    whole-row pass a single query's would — bit for bit the values of
    the one-query call.  ``row_masks`` (block form only, ``(Q, count)``)
    restricts each query to its True rows.  ``norms``, the candidates'
    ``|c|²`` as :func:`_row_norms` computes them (an index stores them
    for its rows), saves the screen that pass; without it they are
    computed here.

    Nothing is copied on the way in: a float32 block is used as read.

    Returns
    -------
    (distances, points_compared):
        One query: float64 distances of length ``count``, ``inf`` for the
        rows the screen dropped, and ``count × n``, since the screen
        touches every point once.  A block: the screened pairs as
        ``(query_ids, rows, squared)`` — the int64 query and row of each
        pair, grouped by query and rows ascending within a query, and its
        float64 distance; a pair not listed was dropped or masked out —
        and an int64 vector of per-query point counts (every masked-in
        point).
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
            keep = _screen(q, cands, cutoff_squared, _check_norms(norms, cands))
            rows = keep.nonzero()[0]
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
    masked_in = count if row_masks is None else row_masks.sum(axis=1)
    points_compared = np.zeros(num_queries, dtype=np.int64) + masked_in * n
    if count == 0 or num_queries == 0:
        none = np.empty(0, dtype=np.intp)
        return (none, none, np.empty(0, dtype=DISTANCE_DTYPE)), points_compared
    keep = _screen(q, cands, cutoffs, _check_norms(norms, cands))
    if row_masks is not None:
        keep &= row_masks
    # C order: the pairs come grouped by query, rows ascending.  One flat
    # scan and a divmod: a 2-D ``nonzero`` costs ~9x as much.
    query_ids, rows = np.divmod(np.flatnonzero(keep), count)
    squared = np.empty(len(rows), dtype=DISTANCE_DTYPE)
    _exact_rows(q, cands, rows, squared, query_ids)
    return (query_ids, rows, squared), points_compared


def _exact_rows(
    q: np.ndarray, cands: np.ndarray, rows, out: np.ndarray, query_ids=None
) -> None:
    """``out[rows] = d²(q, cands[rows])`` by the whole-row float64 pass of
    :func:`batch_squared_euclidean` (``rows`` None: every row, sliced not
    gathered), a few rows at a time.  With ``query_ids``, ``q`` is a query
    block and the pass runs over (query, row) pairs, pair ``i`` filling
    ``out[i]``: the same float64 differences, each summed as the
    one-query call sums it.  The screen decides who pays full price, this
    decides the exact value."""
    total = cands.shape[0] if rows is None else rows.shape[0]
    for lo in range(0, total, _EXACT_ROWS):
        at = slice(lo, lo + _EXACT_ROWS)
        slab = at if rows is None else rows[at]
        if query_ids is None:
            diff, target = cands[slab] - q, slab
        else:
            diff, target = cands[slab] - q[query_ids[at]], at
        out[target] = np.einsum("ij,ij->i", diff, diff)
