"""Split-policy selection (``getBestSplitPolicy`` of Algorithm 5).

When a leaf exceeds its capacity τ, Hercules — like DSTree — picks among
horizontal and vertical candidate splits on every segment, routing either
on the segment mean or on its standard deviation (Section 3.2).

Every series of the overflowing leaf is in memory at split time, so we
evaluate candidates against the *actual* series statistics (the original
DSTree scores hypothetical children from synopsis ranges only; using exact
statistics at the leaf is a behaviour-preserving refinement documented in
DESIGN.md).  The quality measure is the EAPCA *box diameter*

    D = Σ_i ℓ_i · ((μ_i^max − μ_i^min)² + (σ_i^max − σ_i^min)²),

the squared width of the node's synopsis box, which upper-bounds how far
apart two members of the node can appear to LB_EAPCA.  Each candidate is
scored by the diameter reduction it achieves *measured under its own child
segmentation* — ``D(all series) − size-weighted mean D(children)`` — and
the largest reduction wins.  Measuring parent and children under the same
segmentation is essential: a coarse segmentation hides structure (every
series looks alike under one segment), so comparing candidates across
different segmentations would systematically favour splits that reveal
the least.

Candidates considered for a node with m segments:

* H-split of segment i on mean or stddev (2m candidates);
* V-split of segment i, routing on the mean or stddev of either half
  (up to 4m candidates; halves shorter than one point are skipped).

Thresholds are the midrange of the observed routing statistic, so any
candidate whose statistic is not constant yields two non-empty children.

All candidates are scored in one stacked pass over a single statistics
table (the m segments plus both halves of every halvable segment), in
float64: the score only shapes the tree — answers stay exact whatever
it picks — but float32 squares overflow once values reach ~1e19, which
left leaves of large-magnitude series unsplittable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.node import SplitPolicy
from repro.summarization.eapca import Segmentation
from repro.types import DISTANCE_DTYPE


#: Relative gap below which two split scores count as tied.  Candidates
#: over different child segmentations sum their diameters in different
#: orders, so mathematically equal scores can differ in the last bits.
TIE_TOLERANCE = 1e-9


class LeafStats:
    """Cumulative sums over a leaf's data matrix for O(1) range statistics.

    One O(k·n) pass supports per-series (mean, std) over any point range —
    every split candidate and every child segmentation reuses it.  The
    prefix arithmetic is bit-identical to :func:`segment_stats` (and the
    EAPCA sketches): the statistics seeded into child synopses at split
    time must *exactly* bound what a query recomputes for the same rows.
    """

    def __init__(self, data: np.ndarray) -> None:
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D leaf matrix, got ndim={arr.ndim}")
        self.count, self.length = arr.shape
        # In-place construction: the sums accumulate straight off the
        # raw rows (``dtype=`` widens each addend, the same chain as a
        # pre-cast cumsum), the squares land in the cumsq buffer after
        # an explicit widening copy — squaring float32 rows straight
        # into a float64 output would run the float32 loop and only
        # cast the result.
        self._cumsum = np.empty(
            (self.count, self.length + 1), dtype=DISTANCE_DTYPE
        )
        self._cumsum[:, 0] = 0.0
        np.cumsum(arr, axis=1, dtype=DISTANCE_DTYPE, out=self._cumsum[:, 1:])
        self._cumsq = np.empty_like(self._cumsum)
        self._cumsq[:, 0] = 0.0
        self._cumsq[:, 1:] = arr
        np.square(self._cumsq[:, 1:], out=self._cumsq[:, 1:])
        np.cumsum(self._cumsq[:, 1:], axis=1, out=self._cumsq[:, 1:])

    def range_stats(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-series (means, stds) over ``[start, end)``."""
        if not 0 <= start < end <= self.length:
            raise ValueError(f"invalid range [{start}, {end})")
        means, stds = self.ranges_stats(np.array([start]), np.array([end]))
        return means[:, 0], stds[:, 0]

    def segmentation_stats(
        self, segmentation: Segmentation
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-series per-segment (means, stds) under ``segmentation``."""
        return self.ranges_stats(
            segmentation.starts_array, segmentation.ends_array
        )

    def ranges_stats(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-series (means, stds), one column per range ``[starts[j], ends[j])``.

        A column's bits depend only on its own range, so a range reads the
        same in any table it is part of.
        """
        sums = self._cumsum[:, ends] - self._cumsum[:, starts]
        sq_sums = self._cumsq[:, ends] - self._cumsq[:, starts]
        lengths = (ends - starts).astype(DISTANCE_DTYPE)
        means = sums / lengths
        variances = sq_sums / lengths - means * means
        np.maximum(variances, 0.0, out=variances)
        return means, np.sqrt(variances)


def box_diameter(
    means: np.ndarray, stds: np.ndarray, lengths: np.ndarray
) -> float:
    """EAPCA box diameter of a set of series (see module docstring)."""
    mu_range = means.max(axis=0) - means.min(axis=0)
    sd_range = stds.max(axis=0) - stds.min(axis=0)
    return float(np.dot(lengths, mu_range * mu_range + sd_range * sd_range))


@dataclass(frozen=True)
class SplitDecision:
    """The winning split with everything needed to execute it."""

    policy: SplitPolicy
    #: Boolean mask over the leaf's series: True → left child.
    left_mask: np.ndarray
    #: Per-series (means, stds) under the child segmentation, reusable to
    #: build both children's synopses without another data pass.
    child_means: np.ndarray
    child_stds: np.ndarray


def choose_split(
    segmentation: Segmentation,
    data: np.ndarray,
    allow_vertical: bool = True,
    allow_std: bool = True,
) -> Optional[SplitDecision]:
    """Pick the best split for a leaf holding ``data``.

    ``allow_vertical`` / ``allow_std`` restrict the candidate set to
    horizontal splits or mean-only routing — the ablation switches for
    the paper's Section 3.2 claim that adapting resolution along *both*
    dimensions (and on both statistics) is what EAPCA trees gain over
    fixed-split indexes.

    Returns ``None`` when no candidate separates the series (all series
    identical under every candidate statistic); the caller then lets the
    leaf exceed its capacity, which is the only sound option.

    Every candidate is scored in one stacked pass.  One per-series
    table holds the mean and std columns of the m segments and of both
    halves of every segment a V-split can halve.  One min/max over the
    candidates' route columns gives every threshold and mask, and one
    masked min/max over each candidate's own child-segmentation columns
    gives both children's diameters.  Scores are float64 (float32
    squares overflow once values reach ~1e19).  The best score wins if
    it is positive; scores within :data:`TIE_TOLERANCE` of it are ties,
    and ties go to the earliest candidate in the canonical order (per
    segment: H on mean, H on std, then each V half on mean and std).
    """
    stats = LeafStats(data)
    total = stats.count
    m = segmentation.num_segments
    starts, ends = segmentation.starts_array, segmentation.ends_array
    halvable = np.flatnonzero((ends - starts >= 2) & allow_vertical)
    mids = (starts[halvable] + ends[halvable]) // 2

    # Table ranges: the m segments, then the (left, right) halves of
    # each halvable segment; their means in columns [0, width), their
    # stds in [width, 2·width).
    col_starts = np.concatenate(
        [starts, np.column_stack([starts[halvable], mids]).ravel()]
    )
    col_ends = np.concatenate(
        [ends, np.column_stack([mids, ends[halvable]]).ravel()]
    )
    width = col_starts.size
    means, stds = stats.ranges_stats(col_starts, col_ends)
    table = np.concatenate([means, stds], axis=1)

    # Candidates in canonical order: per segment its own column, then its
    # left and right halves (-1 where it has none), each on every allowed
    # statistic.
    base = np.full((m, 3), -1, dtype=np.int64)
    base[:, 0] = np.arange(m)
    base[halvable, 1] = m + 2 * np.arange(halvable.size)
    base[halvable, 2] = base[halvable, 1] + 1
    offsets = np.array([0, width] if allow_std else [0])
    routes = (base[:, :, None] + offsets).ravel()
    segments = np.repeat(np.arange(m), 3 * offsets.size)
    vertical = np.tile(np.repeat([False, True, True], offsets.size), m)
    keep = np.repeat(base.ravel() >= 0, offsets.size)
    routes, segments, vertical = routes[keep], segments[keep], vertical[keep]

    values = table[:, routes]
    low, high = values.min(axis=0), values.max(axis=0)
    thresholds = (low + high) / 2.0
    # A constant statistic separates nothing, and neither does a midrange
    # that rounds onto ``low`` (adjacent floats): both leave one side empty.
    separating = low < thresholds
    if not separating.any():
        return None
    routes, segments, vertical, thresholds = (
        routes[separating], segments[separating], vertical[separating],
        thresholds[separating],
    )
    masks = values[:, separating] < thresholds

    # Each candidate's child-segmentation columns, one row per slot: the
    # m segments, with a V-split's segment replaced by its left half and
    # its right half in slot m (weight 0 for an H-split).
    slots = np.repeat(np.arange(m + 1)[:, None], routes.size, axis=1)
    slots[m] = 0
    v_cands = np.flatnonzero(vertical)
    left_halves = base[segments[v_cands], 1]
    slots[segments[v_cands], v_cands] = left_halves
    slots[m, v_cands] = left_halves + 1
    weights = (col_ends - col_starts).astype(DISTANCE_DTYPE)[slots]
    weights[m, ~vertical] = 0.0
    slots = np.concatenate([slots, slots + width])
    weights = np.concatenate([weights, weights])

    full_range = table.max(axis=0) - table.min(axis=0)
    parent_d = (full_range[slots] ** 2 * weights).sum(axis=0)
    # Masked min/max through ranks: rank every table column once, then
    # add ``total`` to one side's ranks.  Over a candidate's column the
    # lifted maximum is that side's top rank and the lifted minimum the
    # other side's bottom rank.  Ranks are integers, so each spread is
    # the exact float64 difference of the side's extreme values.
    order = np.argsort(table, axis=0)
    ranked = np.take_along_axis(table, order, axis=0)
    ranks = np.empty(order.shape, dtype=np.int32)
    np.put_along_axis(
        ranks, order, np.arange(total, dtype=np.int32)[:, None], axis=0
    )
    member_ranks = ranks[:, slots]  # (series, slots, candidates)
    lift = np.where(masks, total, 0).astype(np.int32)[:, None, :]
    highest, lowest = [], []
    for lifted_side in (lift, total - lift):  # left lifted, then right
        lifted = member_ranks + lifted_side
        highest.append(lifted.max(axis=0) - total)
        lowest.append(lifted.min(axis=0))
    children = []
    for high_rank, low_rank in zip(highest, reversed(lowest)):  # left, right
        spread = ranked[high_rank, slots] - ranked[low_rank, slots]
        children.append((spread * spread * weights).sum(axis=0))
    n_left = masks.sum(axis=0)
    n_right = total - n_left
    scores = parent_d - (n_left * children[0] + n_right * children[1]) / total

    top = scores.max()
    if not top > 0.0:
        return None
    # Scores equal up to rounding are ties; ties go to the earliest.
    best = int(np.argmax(scores >= top * (1.0 - TIE_TOLERANCE)))
    index = int(segments[best])
    route = int(routes[best]) % width
    child_seg = (
        segmentation.split_vertically(index)
        if vertical[best]
        else segmentation
    )
    child_means, child_stds = stats.segmentation_stats(child_seg)
    policy = SplitPolicy(
        split_segment=index,
        vertical=bool(vertical[best]),
        use_std=bool(routes[best] >= width),
        threshold=float(thresholds[best]),
        route_start=int(col_starts[route]),
        route_end=int(col_ends[route]),
        child_segmentation=child_seg,
    )
    return SplitDecision(
        policy=policy,
        left_mask=masks[:, best].copy(),
        child_means=child_means,
        child_stds=child_stds,
    )
