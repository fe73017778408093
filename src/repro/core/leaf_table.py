"""Flat synopsis table: every LB_EAPCA of a query in one array pass.

Instead of one Python call per tree node threaded through a priority
queue (Algorithms 11-12), the tree is flattened once per
:class:`~repro.core.index.HerculesIndex` — built straight from
htree.bin's node records (:func:`~repro.storage.htree.read_tree_records`),
no :class:`~repro.core.node.Node` in between, nothing more persisted:
every node's segmentation and synopsis laid out CSR-style in preorder,
so one
:func:`~repro.distance.lower_bounds.lb_eapca_table_squared` call bounds
all nodes, for one query or a whole batch.

Nodes share most of their segments (a child keeps all of its parent's
but the one it split), so the query's statistics are taken once per
distinct ``(start, end)`` segment and gathered to the node segments.

LB_EAPCA is *not* monotone down the tree (a V-split child re-segments
and its bound can drop below its parent's), while a descent only reaches
a leaf through nodes it could not prune.  A leaf's *effective* bound is
therefore the largest bound on its root path — one gather over a
``(depth × leaves)`` matrix of root paths and one max; a leaf-only table
would admit leaves the descent prunes at an ancestor.
"""

from __future__ import annotations

import numpy as np

from repro.distance.lower_bounds import lb_eapca_table_squared
from repro.errors import StorageError
from repro.storage.htree import TreeRecords
from repro.types import DISTANCE_DTYPE


def extent_rows(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Every file position of the extents ``[start, start + size)``,
    extent after extent."""
    # Each extent's run is its start plus 0..size-1: subtract the run's
    # offset in the output from one global arange.
    run_starts = starts - (np.cumsum(sizes) - sizes)
    return np.repeat(run_starts, sizes) + np.arange(sizes.sum())


class LeafTable:
    """The tree's node records, flattened: rows in preorder, leaves in
    LRDFile order."""

    def __init__(self, records: TreeRecords, num_series: int) -> None:
        #: Each leaf's row; preorder keeps the leaves in LRDFile order.
        self.leaf_rows = np.flatnonzero(records.is_leaf)
        self.num_leaves = len(self.leaf_rows)
        self.positions = records.file_positions[self.leaf_rows]
        self.sizes = self._check_extents(records.sizes[self.leaf_rows], num_series)

        counts = records.counts
        self.row_starts = np.cumsum(counts) - counts
        # Every node segment as one (start, end) key; children inherit all
        # but one of their parent's segments, so few keys are distinct.
        ends = records.ends
        starts = np.empty_like(ends)
        starts[1:] = ends[:-1]
        starts[self.row_starts] = 0
        width = int(ends.max()) + 1
        distinct, self.segment_ids = np.unique(starts * width + ends, return_inverse=True)
        #: The distinct segments; ``segment_ids`` maps node segments to them.
        self.seg_starts, self.seg_ends = np.divmod(distinct, width)
        #: Each node segment's length, the weight of its LB_EAPCA term.
        self.seg_weights = (ends - starts).astype(DISTANCE_DTYPE)
        #: ``(4, node segments)``: mu_min / mu_max / sd_min / sd_max, contiguous.
        self.synopses = np.ascontiguousarray(records.synopses.T)

        self.parent = records.parents
        #: ``(depth + 1, leaves)``: column ``i`` is leaf ``i``'s root path,
        #: leaf first.  The root is its own parent, so shorter paths end
        #: in repeats of it.  Depth-major, because a max over the long
        #: axis runs several times faster than over the short one.
        paths = [self.leaf_rows]
        while paths[-1].any():
            paths.append(self.parent[paths[-1]])
        self.paths = np.stack(paths)

    def _check_extents(self, sizes: np.ndarray, num_series: int) -> np.ndarray:
        """The leaves must tile ``[0, num_series)`` in order, none empty:
        ``reduceat`` over row masks and the file-order LCList rely on it,
        and a damaged HTree would otherwise prune silently wrong.  Returns
        the leaf sizes."""
        # No leaf of a tiling holds more than every series, so the clip
        # changes no size that passes and keeps the running sum in range.
        clipped = np.minimum(sizes, num_series + 1).astype(np.int64)
        expected = np.cumsum(clipped) - clipped
        bad = np.flatnonzero((clipped <= 0) | (self.positions != expected))
        if len(bad):
            leaf = bad[0]
            position = int(self.positions[leaf])
            raise StorageError(
                f"htree.bin leaf {self.leaf_rows[leaf]}: extent "
                f"[{position}, {position + int(sizes[leaf])}) "
                f"where a non-empty one starting at {expected[leaf]} is required "
                f"(leaves must tile LRDFile in order)"
            )
        total = int(clipped.sum())
        if total != num_series:
            raise StorageError(
                f"htree.bin leaf sizes sum to {total} but the index "
                f"records {num_series} series"
            )
        return clipped

    def rows(self, leaves: np.ndarray) -> np.ndarray:
        """File positions of every series of the given leaves (table
        indices), leaf after leaf."""
        return extent_rows(self.positions[leaves], self.sizes[leaves])

    def leaf_of(self, positions: np.ndarray) -> np.ndarray:
        """Table index of the leaf holding each file position."""
        return np.searchsorted(self.positions, positions, side="right") - 1

    def node_bounds_squared(self, cumsum: np.ndarray, cumsq: np.ndarray) -> np.ndarray:
        """Raw squared LB_EAPCA per node (preorder), ``(nodes,)`` or ``(Q, nodes)``."""
        return lb_eapca_table_squared(
            cumsum, cumsq, self.seg_starts, self.seg_ends, self.seg_weights,
            self.segment_ids, self.synopses, self.row_starts,
        )

    def leaf_bounds_squared(self, cumsum: np.ndarray, cumsq: np.ndarray) -> np.ndarray:
        """Effective squared bound per leaf (file order): max over its root path."""
        bounds = self.node_bounds_squared(cumsum, cumsq)
        return np.take(bounds, self.paths, axis=-1).max(axis=-2)
