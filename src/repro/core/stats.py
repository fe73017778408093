"""Index introspection: structural statistics of a Hercules tree.

Used by the ``repro inspect`` CLI command, the test suite's invariants,
and anyone tuning leaf capacity or the initial segmentation: the shape of
an EAPCA tree (depth spread, leaf fill, split mix) is what determines
pruning quality, and the paper's design discussion (Sections 3.2-3.3) is
in terms of exactly these quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.node import Node


@dataclass(frozen=True)
class TreeStatistics:
    """Structural summary of one index tree."""

    num_nodes: int
    num_leaves: int
    num_internal: int
    num_series: int
    max_depth: int
    mean_leaf_depth: float
    min_leaf_size: int
    max_leaf_size: int
    mean_leaf_size: float
    #: mean_leaf_size / leaf_capacity; None when capacity is unknown.
    fill_factor: float | None
    horizontal_splits: int
    vertical_splits: int
    mean_routed_splits: int
    std_routed_splits: int
    min_segments: int
    max_segments: int
    mean_leaf_segments: float

    def format(self) -> str:
        lines = [
            f"nodes              {self.num_nodes} "
            f"({self.num_leaves} leaves, {self.num_internal} internal)",
            f"series             {self.num_series}",
            f"depth              max {self.max_depth}, "
            f"mean leaf depth {self.mean_leaf_depth:.1f}",
            f"leaf sizes         min {self.min_leaf_size}, "
            f"max {self.max_leaf_size}, mean {self.mean_leaf_size:.1f}",
        ]
        if self.fill_factor is not None:
            lines.append(f"leaf fill factor   {self.fill_factor:.1%}")
        lines.extend(
            [
                f"splits             {self.horizontal_splits} horizontal, "
                f"{self.vertical_splits} vertical",
                f"split statistics   {self.mean_routed_splits} on mean, "
                f"{self.std_routed_splits} on stddev",
                f"segments per node  min {self.min_segments}, "
                f"max {self.max_segments}, "
                f"mean over leaves {self.mean_leaf_segments:.1f}",
            ]
        )
        return "\n".join(lines)


def tree_statistics(
    root: Node, leaf_capacity: int | None = None
) -> TreeStatistics:
    """Collect :class:`TreeStatistics` for the tree rooted at ``root``."""
    leaf_sizes: list[int] = []
    leaf_depths: list[int] = []
    leaf_segments: list[int] = []
    num_internal = 0
    horizontal = vertical = 0
    on_mean = on_std = 0
    min_segments = root.segmentation.num_segments
    max_segments = root.segmentation.num_segments
    max_depth = 0

    stack: list[tuple[Node, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        max_depth = max(max_depth, depth)
        m = node.segmentation.num_segments
        min_segments = min(min_segments, m)
        max_segments = max(max_segments, m)
        if node.is_leaf:
            leaf_sizes.append(node.size)
            leaf_depths.append(depth)
            leaf_segments.append(m)
        else:
            num_internal += 1
            policy = node.policy
            if policy is not None:
                if policy.vertical:
                    vertical += 1
                else:
                    horizontal += 1
                if policy.use_std:
                    on_std += 1
                else:
                    on_mean += 1
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))

    sizes = np.asarray(leaf_sizes, dtype=np.int64)
    mean_size = float(sizes.mean()) if sizes.size else 0.0
    return TreeStatistics(
        num_nodes=len(leaf_sizes) + num_internal,
        num_leaves=len(leaf_sizes),
        num_internal=num_internal,
        num_series=int(sizes.sum()),
        max_depth=max_depth,
        mean_leaf_depth=float(np.mean(leaf_depths)) if leaf_depths else 0.0,
        min_leaf_size=int(sizes.min()) if sizes.size else 0,
        max_leaf_size=int(sizes.max()) if sizes.size else 0,
        mean_leaf_size=mean_size,
        fill_factor=(mean_size / leaf_capacity) if leaf_capacity else None,
        horizontal_splits=horizontal,
        vertical_splits=vertical,
        mean_routed_splits=on_mean,
        std_routed_splits=on_std,
        min_segments=min_segments,
        max_segments=max_segments,
        mean_leaf_segments=(
            float(np.mean(leaf_segments)) if leaf_segments else 0.0
        ),
    )
