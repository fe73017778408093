"""Lower-bounding distances used for pruning.

LB_EAPCA (the DSTree/Hercules node bound)
-----------------------------------------
For one segment of length ℓ, write the query's segment statistics as
(μ_Q, σ_Q) and a candidate's as (μ_S, σ_S).  Decomposing the squared
Euclidean distance over the segment around the two means and bounding the
cross term with Cauchy–Schwarz gives

    ED²(Q_seg, S_seg) ≥ ℓ · ((μ_Q − μ_S)² + (σ_Q − σ_S)²).

A node's synopsis stores per-segment intervals [μ_min, μ_max] and
[σ_min, σ_max] over every series in its subtree, so minimizing the bound
over the box yields the node-level lower bound

    LB_EAPCA²(Q, N) = Σ_i ℓ_i · (d(μ_Q,i, [μ_i^min, μ_i^max])²
                                + d(σ_Q,i, [σ_i^min, σ_i^max])²),

where d(x, [a, b]) is the distance from a point to an interval.  This is
the bound used by Algorithms 10–12 of the paper (LB_EAPCA of [64]).

LB_SAX lives on :class:`repro.summarization.sax.SaxSpace` (``mindist``) and
:class:`repro.summarization.isax.IsaxWord` (``mindist``).

Synopsis layout
---------------
Synopses are ``(m, 4)`` float64 arrays with columns
``[MU_MIN, MU_MAX, SD_MIN, SD_MAX]``.
"""

from __future__ import annotations

import numpy as np

from repro.types import DISTANCE_DTYPE

#: Synopsis column indices.
MU_MIN, MU_MAX, SD_MIN, SD_MAX = 0, 1, 2, 3


def _interval_gap(values: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Distance from each value to its interval [low, high] (0 if inside)."""
    gap = low - values
    np.maximum(gap, values - high, out=gap)
    return np.maximum(gap, 0.0, out=gap)


def lb_eapca(
    query_means: np.ndarray,
    query_stds: np.ndarray,
    synopsis: np.ndarray,
    segment_lengths: np.ndarray,
) -> float:
    """LB_EAPCA between a query and one node synopsis.

    Parameters
    ----------
    query_means, query_stds:
        Query statistics under the *node's* segmentation, shape ``(m,)``.
    synopsis:
        Node synopsis, shape ``(m, 4)`` (see module docstring).
    segment_lengths:
        ℓ_i weights, shape ``(m,)``.
    """
    mu_gap = _interval_gap(query_means, synopsis[:, MU_MIN], synopsis[:, MU_MAX])
    sd_gap = _interval_gap(query_stds, synopsis[:, SD_MIN], synopsis[:, SD_MAX])
    total = np.dot(segment_lengths, mu_gap * mu_gap + sd_gap * sd_gap)
    return float(np.sqrt(total))


def lb_eapca_table_squared(
    cumsum: np.ndarray,
    cumsq: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    weights: np.ndarray,
    segment_ids: np.ndarray,
    synopses: np.ndarray,
    row_starts: np.ndarray,
) -> np.ndarray:
    """Squared LB_EAPCA of one query or a batch against many nodes at once.

    The nodes' segmentations are concatenated CSR-style into ``S`` node
    segments: node ``i`` owns them from ``row_starts[i]`` on, and
    ``synopses`` is the matching ``(4, S)`` stack of synopsis columns.
    Nodes share most of their segments, so the query's mean and σ are
    taken once per *distinct* segment — ``starts`` / ``ends``, shape
    ``(D,)`` — and node segment ``s`` reads those of distinct segment
    ``segment_ids[s]`` (a caller with nothing shared passes
    ``arange(S)``); ``weights`` holds each node segment's length ℓ,
    shape ``(S,)``, kept by the caller so no call gathers it.
    ``cumsum`` / ``cumsq`` are the query prefix sums a ``SeriesSketch`` /
    ``BatchSketch`` keeps, ``(n + 1,)`` or ``(Q, n + 1)``.  Per segment
    the arithmetic is that of
    ``SeriesSketch.stats`` + :func:`lb_eapca` element for element; only
    the per-node summation order differs, and no root is taken.
    Returns ``(nodes,)`` or ``(Q, nodes)``.

    The steps after each gather write into arrays the call already
    owns, so one query and a block cost the same NumPy calls.
    """
    lengths = ends - starts
    means = np.take(cumsum, ends, axis=-1)
    means -= np.take(cumsum, starts, axis=-1)
    means /= lengths
    stds = np.take(cumsq, ends, axis=-1)
    stds -= np.take(cumsq, starts, axis=-1)
    stds /= lengths
    stds -= means * means
    np.maximum(stds, 0.0, out=stds)
    np.sqrt(stds, out=stds)
    mu_gap = _interval_gap(np.take(means, segment_ids, axis=-1), synopses[MU_MIN], synopses[MU_MAX])
    sd_gap = _interval_gap(np.take(stds, segment_ids, axis=-1), synopses[SD_MIN], synopses[SD_MAX])
    terms = np.square(mu_gap, out=mu_gap)
    terms += np.square(sd_gap, out=sd_gap)
    terms *= weights
    return np.add.reduceat(terms, row_starts, axis=-1)


def series_synopsis(means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Degenerate synopsis of a single series (point intervals).

    Handy in tests: LB_EAPCA against it equals the per-series EAPCA bound.
    Accepts ``(m,)`` vectors and returns an ``(m, 4)`` synopsis.
    """
    m = means.shape[0]
    syn = np.empty((m, 4), dtype=DISTANCE_DTYPE)
    syn[:, MU_MIN] = means
    syn[:, MU_MAX] = means
    syn[:, SD_MIN] = stds
    syn[:, SD_MAX] = stds
    return syn
