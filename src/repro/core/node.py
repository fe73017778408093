"""The Hercules index tree node (Section 3.2, Figure 2).

Each node carries the size ρ of the series below it, a segmentation
``SG = {r_1, ..., r_m}``, and a synopsis ``Z`` holding, per segment, the
min/max mean and min/max standard deviation over every series that
traversed the node.  A leaf additionally owns an SBuffer (pointers into
HBuffer), a list of spill extents (ranges of a spill file written by
flushes), and — once the index is written — a FilePosition into LRDFile.

An internal node carries the :class:`SplitPolicy` that routes series to
its children.  Both H-splits and V-splits route on the mean (or standard
deviation) of a contiguous point range: for an H-split the range is the
split segment itself; for a V-split it is one half of it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.distance.lower_bounds import MU_MAX, MU_MIN, SD_MAX, SD_MIN, lb_eapca
from repro.summarization.eapca import Segmentation, SeriesSketch
from repro.types import DISTANCE_DTYPE


@dataclass(frozen=True)
class SpillExtent:
    """A contiguous run of a leaf's series inside the spill file."""

    position: int
    count: int


@dataclass(frozen=True)
class SplitPolicy:
    """How an internal node routes series to its two children.

    ``split_segment`` indexes the segment of the *node's own* segmentation
    that was split.  For a vertical split the children gain one segment
    (``child_segmentation``) and the routing statistic is computed over
    one half of the split segment; for a horizontal split the children
    share the node's segmentation and the statistic covers the whole
    segment.  A series routes left when its statistic is strictly below
    ``threshold``.
    """

    split_segment: int
    vertical: bool
    use_std: bool
    threshold: float
    route_start: int
    route_end: int
    child_segmentation: Segmentation

    def route_left(self, sketch: SeriesSketch) -> bool:
        """Route one series (via its sketch): True → left child."""
        mean, std = sketch.range_stats(self.route_start, self.route_end)
        value = std if self.use_std else mean
        return value < self.threshold

    def route_left_batch(
        self, means: np.ndarray, stds: np.ndarray
    ) -> np.ndarray:
        """Vectorized routing given per-series stats over the route range."""
        values = stds if self.use_std else means
        return values < self.threshold


def empty_synopsis(num_segments: int) -> np.ndarray:
    """A synopsis absorbing any update: mins at +inf, maxes at -inf."""
    syn = np.empty((num_segments, 4), dtype=DISTANCE_DTYPE)
    syn[:, MU_MIN] = np.inf
    syn[:, MU_MAX] = -np.inf
    syn[:, SD_MIN] = np.inf
    syn[:, SD_MAX] = -np.inf
    return syn


def synopsis_from_stats(means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Exact synopsis of a set of series given their per-segment stats."""
    syn = np.empty((means.shape[1], 4), dtype=DISTANCE_DTYPE)
    syn[:, MU_MIN] = means.min(axis=0)
    syn[:, MU_MAX] = means.max(axis=0)
    syn[:, SD_MIN] = stds.min(axis=0)
    syn[:, SD_MAX] = stds.max(axis=0)
    return syn


class Node:
    """One node of the Hercules tree.

    Building and index writing run on one thread and take no lock; the
    node lock serializes the DSTree*P baseline's parallel inserts.
    """

    __slots__ = (
        "node_id",
        "segmentation",
        "synopsis",
        "size",
        "is_leaf",
        "parent",
        "left",
        "right",
        "policy",
        "lock",
        "sbuffer",
        "spill_extents",
        "file_position",
    )

    def __init__(
        self,
        node_id: int,
        segmentation: Segmentation,
        parent: Optional["Node"] = None,
    ) -> None:
        self.node_id = node_id
        self.segmentation = segmentation
        self.synopsis = empty_synopsis(segmentation.num_segments)
        self.size = 0
        self.is_leaf = True
        self.parent = parent
        self.left: Optional[Node] = None
        self.right: Optional[Node] = None
        self.policy: Optional[SplitPolicy] = None
        self.lock = threading.Lock()
        #: HBuffer slot ids of the leaf's in-memory series (the SBuffer).
        self.sbuffer: list[int] = []
        #: Extents of the leaf's series in the spill file, oldest first.
        self.spill_extents: list[SpillExtent] = []
        #: First position of the leaf's data in LRDFile (set when written).
        self.file_position: int = -1

    # -- synopsis maintenance ----------------------------------------------

    def update_synopsis(self, means: np.ndarray, stds: np.ndarray) -> None:
        """Absorb one series' per-segment statistics (caller holds lock)."""
        syn = self.synopsis
        np.minimum(syn[:, MU_MIN], means, out=syn[:, MU_MIN])
        np.maximum(syn[:, MU_MAX], means, out=syn[:, MU_MAX])
        np.minimum(syn[:, SD_MIN], stds, out=syn[:, SD_MIN])
        np.maximum(syn[:, SD_MAX], stds, out=syn[:, SD_MAX])

    def update_synopsis_batch(self, means: np.ndarray, stds: np.ndarray) -> None:
        """Absorb a whole group's statistics at once (caller holds lock).

        ``means``/``stds`` are ``(k, m)`` matrices; the column-wise min/max
        collapse followed by the min/max merge is exactly equivalent to k
        sequential :meth:`update_synopsis` calls (min/max are associative
        and commutative), so batched and per-row builds produce identical
        synopses.
        """
        syn = self.synopsis
        np.minimum(syn[:, MU_MIN], means.min(axis=0), out=syn[:, MU_MIN])
        np.maximum(syn[:, MU_MAX], means.max(axis=0), out=syn[:, MU_MAX])
        np.minimum(syn[:, SD_MIN], stds.min(axis=0), out=syn[:, SD_MIN])
        np.maximum(syn[:, SD_MAX], stds.max(axis=0), out=syn[:, SD_MAX])

    def merge_synopsis_rows(
        self, own_rows: np.ndarray, other: np.ndarray, other_rows: np.ndarray
    ) -> None:
        """Merge selected synopsis rows of another node into this one.

        Used by HSplitSynopsis: ``own_rows``/``other_rows`` are matching
        segment indices in this node and in ``other`` (a child).
        Fancy-indexed assignment (not ``out=``) is required:
        ``syn[rows, col]`` is a copy.
        """
        syn = self.synopsis
        syn[own_rows, MU_MIN] = np.minimum(
            syn[own_rows, MU_MIN], other[other_rows, MU_MIN]
        )
        syn[own_rows, MU_MAX] = np.maximum(
            syn[own_rows, MU_MAX], other[other_rows, MU_MAX]
        )
        syn[own_rows, SD_MIN] = np.minimum(
            syn[own_rows, SD_MIN], other[other_rows, SD_MIN]
        )
        syn[own_rows, SD_MAX] = np.maximum(
            syn[own_rows, SD_MAX], other[other_rows, SD_MAX]
        )

    def merge_segment_interval(
        self,
        segment: int,
        mu_lo: float,
        mu_hi: float,
        sd_lo: float,
        sd_hi: float,
    ) -> None:
        """Widen one segment's synopsis box (VSplitSynopsis merge step)."""
        row = self.synopsis[segment]
        row[MU_MIN] = min(row[MU_MIN], mu_lo)
        row[MU_MAX] = max(row[MU_MAX], mu_hi)
        row[SD_MIN] = min(row[SD_MIN], sd_lo)
        row[SD_MAX] = max(row[SD_MAX], sd_hi)

    # -- pruning -------------------------------------------------------------

    def lower_bound(self, sketch: SeriesSketch) -> float:
        """LB_EAPCA between a query (via its sketch) and this node."""
        means, stds = sketch.stats(self.segmentation)
        return lb_eapca(means, stds, self.synopsis, self.segmentation.lengths)

    # -- routing -------------------------------------------------------------

    def route(self, sketch: SeriesSketch) -> "Node":
        """The child a series belongs to (RouteToLeaf takes one step)."""
        if self.is_leaf or self.policy is None:
            raise ValueError(f"node {self.node_id} is a leaf; cannot route")
        return self.left if self.policy.route_left(sketch) else self.right

    # -- traversal helpers ----------------------------------------------------

    def iter_leaves_inorder(self):
        """Yield the leaves below this node in inorder (= LRDFile order)."""
        stack: list[tuple[Node, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if node.is_leaf:
                yield node
            elif expanded:
                continue
            else:
                # Inorder on a binary tree where only leaves hold data
                # reduces to left-to-right leaf order.
                stack.append((node.right, False))
                stack.append((node.left, False))

    def iter_nodes_preorder(self):
        """Yield every node below (and including) this one, parent first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)

    @property
    def num_leaves(self) -> int:
        return sum(1 for _ in self.iter_leaves_inorder())

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return (
            f"Node(id={self.node_id}, {kind}, size={self.size}, "
            f"segments={self.segmentation.num_segments})"
        )


def segment_correspondence(parent: "Node") -> tuple[np.ndarray, np.ndarray]:
    """Child→parent segment index mapping for synopsis H-merging.

    Returns ``(child_rows, parent_rows)``: child segment ``child_rows[i]``
    maps onto parent segment ``parent_rows[i]``.  For an H-split parent the
    mapping is the identity.  For a V-split parent the two half-segments
    produced by the split are *excluded* — their union's statistics cannot
    be derived from the halves and are computed from raw data by
    VSplitSynopsis (Algorithm 8) instead.
    """
    policy = parent.policy
    if policy is None:
        raise ValueError("segment correspondence requires an internal node")
    m_parent = parent.segmentation.num_segments
    if not policy.vertical:
        idx = np.arange(m_parent)
        return idx, idx
    i = policy.split_segment
    child_rows = np.concatenate(
        [np.arange(0, i), np.arange(i + 2, m_parent + 1)]
    )
    parent_rows = np.concatenate([np.arange(0, i), np.arange(i + 1, m_parent)])
    return child_rows, parent_rows
