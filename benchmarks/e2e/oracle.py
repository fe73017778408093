"""Brute-force ground truth and the per-answer correctness check.

Deliberately shares no code with ``repro.distance``: distances are plain
float64 NumPy arithmetic, so an engine kernel bug cannot hide in both.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

#: Relative tolerance on reported distances (float32 data, float64 sums).
RELATIVE_TOLERANCE = 1e-4

#: Extra candidates re-ranked with exact differences after the matmul
#: pass, whose ``|q|²+|c|²−2q·c`` form loses digits on near-duplicates.
_RERANK_MARGIN = 16

#: Queries per matrix product (bounds the (chunk, N) float64 transient).
_QUERY_CHUNK = 64


def _distances(query: np.ndarray, rows: np.ndarray) -> np.ndarray:
    diff = rows.astype(np.float64) - query.astype(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def ground_truth(data: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Ascending true k-NN distances of every query, shape ``(Q, k)``."""
    data64 = data.astype(np.float64)
    norms = np.einsum("ij,ij->i", data64, data64)
    shortlist = min(k + _RERANK_MARGIN, data.shape[0])
    truth = np.empty((queries.shape[0], k), dtype=np.float64)
    for start in range(0, queries.shape[0], _QUERY_CHUNK):
        chunk = queries[start : start + _QUERY_CHUNK]
        # |c|^2 - 2 q.c orders candidates like the distance does.
        approx = norms[None, :] - 2.0 * (chunk.astype(np.float64) @ data64.T)
        nearest = np.argpartition(approx, shortlist - 1, axis=1)[:, :shortlist]
        for offset, query in enumerate(chunk):
            truth[start + offset] = np.sort(_distances(query, data[nearest[offset]]))[:k]
    return truth


def _close(reported: np.ndarray, expected: np.ndarray) -> bool:
    scale = np.maximum(np.abs(expected), 1e-12)
    return bool(np.all(np.abs(reported - expected) <= RELATIVE_TOLERANCE * scale))


def check_answer(
    query: np.ndarray,
    answer,
    truth: np.ndarray,
    fetch: Callable[[int], np.ndarray],
) -> Optional[str]:
    """Why ``answer`` is wrong, or None when it is exact.

    ``truth`` holds the query's ascending true k-NN distances and
    ``fetch(position)`` returns the raw series the index stores there.
    Index positions are storage order, not dataset rows, so correctness
    is decided on distances: the k reported ones must equal the truth,
    and each returned position must really lie at its reported distance.
    """
    if getattr(answer, "degraded", False) or getattr(answer, "coverage", 1.0) < 1.0:
        return "degraded answer"
    distances = np.asarray(answer.distances, dtype=np.float64)
    positions = np.asarray(answer.positions)
    if distances.shape != truth.shape or positions.shape != truth.shape:
        return f"returned {distances.shape[0]} answers, expected {truth.shape[0]}"
    if not _close(distances, truth):
        return "distances differ from brute force"
    if len(set(positions.tolist())) != positions.shape[0]:
        return "duplicate positions"
    rows = np.stack([fetch(int(position)) for position in positions])
    if not _close(distances, _distances(query, rows)):
        return "a returned position is not at its reported distance"
    return None
