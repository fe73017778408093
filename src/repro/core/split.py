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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.node import SplitPolicy
from repro.summarization.eapca import Segmentation
from repro.types import DISTANCE_DTYPE


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
        size = end - start
        sums = self._cumsum[:, end] - self._cumsum[:, start]
        sq_sums = self._cumsq[:, end] - self._cumsq[:, start]
        means = sums / size
        variances = sq_sums / size - means * means
        np.maximum(variances, 0.0, out=variances)
        return means, np.sqrt(variances)

    def segmentation_stats(
        self, segmentation: Segmentation
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-series per-segment (means, stds) under ``segmentation``."""
        ends, starts = segmentation.ends_array, segmentation.starts_array
        sums = self._cumsum[:, ends] - self._cumsum[:, starts]
        sq_sums = self._cumsq[:, ends] - self._cumsq[:, starts]
        lengths = segmentation.lengths
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


def _candidate_routes(
    stats: LeafStats, start: int, end: int, allow_std: bool
) -> list[tuple[bool, float, np.ndarray]]:
    """Valid (use_std, threshold, left_mask) routings over one range."""
    means, stds = stats.range_stats(start, end)
    statistics = [(False, means)]
    if allow_std:
        statistics.append((True, stds))
    routes = []
    for use_std, values in statistics:
        low, high = float(values.min()), float(values.max())
        if low == high:
            continue  # constant statistic cannot separate the series
        threshold = (low + high) / 2.0
        routes.append((use_std, threshold, values < threshold))
    return routes


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

    Scoring is vectorized across candidates that share a child
    segmentation (every H-split does; each segment's V-splits do): the
    candidate masks stack into one boolean matrix and both children's
    box diameters come out of a handful of whole-stack reductions, so
    the cost per split is a few dozen NumPy calls instead of a dozen
    *per candidate*.  Splits sit on both the batched and the per-row
    construction paths, so this is shared-phase time.
    """
    stats = LeafStats(data)
    total = stats.count

    # Collect candidates in the canonical order of the reference loop
    # (per segment: H on mean/std, then V per half on mean/std); ties in
    # benefit break toward the earliest candidate.
    candidates: list[tuple] = []
    for index in range(segmentation.num_segments):
        seg_start, seg_end = segmentation.segment_range(index)
        for use_std, threshold, left_mask in _candidate_routes(
            stats, seg_start, seg_end, allow_std
        ):
            candidates.append(
                (index, False, segmentation, seg_start, seg_end,
                 use_std, threshold, left_mask)
            )
        if allow_vertical and seg_end - seg_start >= 2:
            child_seg = segmentation.split_vertically(index)
            mid = (seg_start + seg_end) // 2
            for half_start, half_end in ((seg_start, mid), (mid, seg_end)):
                for use_std, threshold, left_mask in _candidate_routes(
                    stats, half_start, half_end, allow_std
                ):
                    candidates.append(
                        (index, True, child_seg, half_start, half_end,
                         use_std, threshold, left_mask)
                    )
    if not candidates:
        return None

    # Candidate segmentations are few (the node's own, plus one V-split
    # per segment); cache their per-series stats and whole-leaf diameter.
    seg_stats_cache: dict[
        Segmentation, tuple[np.ndarray, np.ndarray, float]
    ] = {}

    def stats_for(seg: Segmentation) -> tuple[np.ndarray, np.ndarray, float]:
        cached = seg_stats_cache.get(seg)
        if cached is None:
            means, stds = stats.segmentation_stats(seg)
            parent_d = box_diameter(means, stds, seg.lengths)
            cached = (means, stds, parent_d)
            seg_stats_cache[seg] = cached
        return cached

    groups: dict[Segmentation, list[int]] = {}
    for i, cand in enumerate(candidates):
        groups.setdefault(cand[2], []).append(i)

    benefits = np.full(len(candidates), -np.inf)
    for child_seg, members in groups.items():
        child_means, child_stds, parent_d = stats_for(child_seg)
        lengths = child_seg.lengths
        # One composite (2m, series) matrix lets a single min/max pass
        # cover both statistics; the diameter weights repeat accordingly.
        # Scoring happens in float32: the masked reductions are memory
        # bound, and the diameter is only a *ranking* heuristic — the
        # winning candidate's synopsis statistics stay float64.
        composite = np.ascontiguousarray(
            np.concatenate([child_means, child_stds], axis=1).T,
            dtype=np.float32,
        )
        weights = np.concatenate([lengths, lengths]).astype(np.float32)
        masks = np.stack([candidates[i][7] for i in members])
        n_left = masks.sum(axis=1)
        n_right = total - n_left
        d_left, d_right = _stacked_diameters(masks, composite, weights)
        weighted = (n_left * d_left + n_right * d_right) / total
        scores = parent_d - weighted
        # A candidate with an empty child separates nothing (the routes
        # already guarantee non-empty children; this is belt-and-braces).
        scores[(n_left == 0) | (n_right == 0)] = -np.inf
        benefits[members] = scores

    best = -1
    best_benefit = 0.0
    for i, benefit in enumerate(benefits):
        if benefit > best_benefit:
            best_benefit = float(benefit)
            best = i
    if best < 0:
        return None
    index, vertical, child_seg, route_start, route_end, use_std, threshold, \
        left_mask = candidates[best]
    child_means, child_stds, _ = stats_for(child_seg)
    policy = SplitPolicy(
        split_segment=index,
        vertical=vertical,
        use_std=use_std,
        threshold=threshold,
        route_start=route_start,
        route_end=route_end,
        child_segmentation=child_seg,
    )
    return SplitDecision(
        policy=policy,
        left_mask=left_mask,
        child_means=child_means,
        child_stds=child_stds,
    )


def _stacked_diameters(
    masks: np.ndarray, composite: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Box diameters of both children for a stack of candidate masks.

    ``masks`` has shape ``(candidates, series)`` (True → left child);
    ``composite`` holds the per-series means and stds side by side,
    *statistic-major* (``(2m, series)``), with ``weights`` the segment
    lengths repeated to match.  Returns (left, right) diameters, one
    per candidate.

    Two tricks keep this on NumPy's fast paths.  Instead of masking
    against ±inf (which needs a separate temporary for min and for
    max), the unselected series are overwritten with one that *is*
    selected — a member's values never move a min or a max — so a
    single materialized ``(candidates, 2m, series)`` array serves both
    reductions, and the right side reuses the same selection with the
    ``where`` arguments swapped.  And the statistic-major layout puts
    the long series axis innermost, so the ``where`` and the reductions
    run contiguous k-length inner loops instead of 2m-length ones.
    """
    # First True / first False series per candidate; with an empty side
    # the index degenerates to 0 but the caller scores that side -inf.
    fill_left = composite[:, masks.argmax(axis=1)].T[:, :, None]
    fill_right = composite[:, masks.argmin(axis=1)].T[:, :, None]
    sel = masks[:, None, :]
    stacked = composite[None]
    diameters = []
    for member_values in (
        np.where(sel, stacked, fill_left),
        np.where(sel, fill_right, stacked),
    ):
        rng = member_values.max(axis=2)
        rng -= member_values.min(axis=2)
        diameters.append((rng * rng) @ weights)
    return diameters[0], diameters[1]
