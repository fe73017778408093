"""The flat synopsis table against the scalar reference and the true distance.

Three properties carry the array-at-a-time descent:

* the table kernel's bound² equals ``Node.lower_bound``² for every node
  (and, bit for bit, its per-node-segment form with nothing shared);
* a leaf's *effective* bound (max over its root path) never exceeds the
  true squared distance to any series stored in the leaf;
* selecting leaves from the effective-bound array is exactly what a
  priority-queue walk over the same node bounds selects.

Plus the structural validation the array pass relies on.
"""

from __future__ import annotations

import gc
import heapq
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import HerculesConfig, HerculesIndex
from repro.distance.lower_bounds import lb_eapca_table_squared
from repro.errors import StorageError
from repro.storage import htree
from repro.summarization.eapca import BatchSketch, SeriesSketch

from ..conftest import make_random_walks

_SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

datasets = st.tuples(
    st.integers(1, 200),             # series count (1: single-leaf tree)
    st.sampled_from([16, 32, 48]),   # length
    st.integers(0, 10_000),          # seed
    st.sampled_from([1.0, 1e6]),     # magnitude
)


def make_data(count, length, seed, scale):
    """Walks with a block of duplicates and two constant series mixed in."""
    data = make_random_walks(count, length, seed=seed).astype(np.float64)
    if count >= 8:
        data[count // 2 : count // 2 + 3] = data[0]
        data[-1] = 0.0
        data[-2] = 2.5
    return (data * scale).astype(np.float32)


def make_queries(data, seed, scale):
    """A member, a near-member, a fresh walk and a constant series."""
    rng = np.random.default_rng(seed)
    length = data.shape[1]
    fresh = make_random_walks(1, length, seed=seed + 1)[0] * scale
    near = data[0] + rng.standard_normal(length) * 0.05 * scale
    constant = np.full(length, -1.5 * scale)
    return np.stack([data[-1], near, fresh, constant]).astype(np.float64)


def build(data, **options):
    config = HerculesConfig(
        leaf_capacity=12,
        initial_segments=4,
        sax_segments=8,
        **options,
    )
    return HerculesIndex.build(data, config)


@_SETTINGS
@given(shape=datasets)
def test_table_bounds_equal_the_scalar_reference(shape):
    count, length, seed, scale = shape
    data = make_data(count, length, seed, scale)
    queries = make_queries(data, seed, scale)
    with build(data) as index:
        table = index._table
        nodes = list(index.root.iter_nodes_preorder())
        assert [nodes[row] for row in table.leaf_rows] == list(index.root.iter_leaves_inorder())
        batch = BatchSketch(queries)
        block = table.node_bounds_squared(batch.cumsum, batch.cumsq)
        assert block.shape == (len(queries), len(nodes))
        for q, query in enumerate(queries):
            sketch = SeriesSketch(query)
            single = table.node_bounds_squared(sketch.cumsum, sketch.cumsq)
            # The batch row is the single-query pass, bit for bit.
            np.testing.assert_array_equal(single, block[q])
            reference = np.array(
                [node.lower_bound(sketch) ** 2 for node in nodes]
            )
            np.testing.assert_allclose(single, reference, rtol=1e-12, atol=0.0)


@_SETTINGS
@given(shape=datasets)
def test_effective_leaf_bound_never_exceeds_a_true_distance(shape):
    count, length, seed, scale = shape
    data = make_data(count, length, seed, scale)
    queries = make_queries(data, seed, scale)
    with build(data) as index:
        table = index._table
        batch = BatchSketch(queries)
        effective = table.leaf_bounds_squared(batch.cumsum, batch.cumsq)
        raw = table.node_bounds_squared(batch.cumsum, batch.cumsq)
        assert np.all(effective >= raw[:, table.leaf_rows])
        for i, leaf in enumerate(index.leaves):
            rows = np.stack(
                [index.get_series(leaf.file_position + r) for r in range(leaf.size)]
            ).astype(np.float64)
            for q, query in enumerate(queries):
                true = np.square(rows - query).sum(axis=1).min()
                # Sound up to float cancellation in the prefix sums,
                # which scales with the squared norms involved.
                norm = max(np.square(rows).sum(axis=1).max(), np.square(query).sum())
                assert effective[q, i] <= true * (1 + 1e-9) + 1e-9 * norm


def per_node_segment_bounds(table, nodes, cumsum, cumsq):
    """The kernel with nothing shared: every node segment its own (the
    arithmetic before distinct segments were gathered).  ``nodes`` is the
    tree in preorder, the table's rows."""
    segmentations = [node.segmentation for node in nodes]
    return lb_eapca_table_squared(
        cumsum,
        cumsq,
        np.concatenate([s.starts_array for s in segmentations]),
        np.concatenate([s.ends_array for s in segmentations]),
        np.concatenate([s.lengths for s in segmentations]),
        np.arange(table.synopses.shape[1]),
        table.synopses,
        table.row_starts,
    )


def running_max_down_the_levels(table, bounds):
    """Effective leaf bounds as a running max down the per-depth row
    groups (how the root-path gather was computed before)."""
    bounds = bounds.copy()
    depth = np.zeros(len(table.parent), dtype=np.int64)
    for row in range(1, len(table.parent)):  # parents precede children
        depth[row] = depth[table.parent[row]] + 1
    for d in range(1, int(depth.max()) + 1):
        rows = np.flatnonzero(depth == d)
        bounds[..., rows] = np.maximum(bounds[..., rows], bounds[..., table.parent[rows]])
    return bounds[..., table.leaf_rows]


@_SETTINGS
@given(shape=datasets)
def test_distinct_segments_and_root_paths_are_bit_identical(shape):
    """Statistics per distinct segment gathered to the node segments, and
    one gather + max over the root paths, give exactly the per-node-
    segment kernel and the per-depth running max — single and batched,
    for constant and 1e6-magnitude queries, on single-leaf trees too."""
    count, length, seed, scale = shape
    data = make_data(count, length, seed, scale)
    queries = make_queries(data, seed, scale)
    with build(data) as index:
        table = index._table
        nodes = list(index.root.iter_nodes_preorder())
        pairs = set(zip(table.seg_starts.tolist(), table.seg_ends.tolist()))
        assert len(pairs) == len(table.seg_starts)  # distinct indeed
        np.testing.assert_array_equal(
            table.seg_starts[table.segment_ids],
            np.concatenate([n.segmentation.starts_array for n in nodes]),
        )
        assert table.paths.shape[1] == len(index.leaves)
        batch = BatchSketch(queries)
        sketches = [(batch.cumsum, batch.cumsq)] + [
            (s.cumsum, s.cumsq) for s in map(SeriesSketch, queries)
        ]
        for cumsum, cumsq in sketches:
            raw = table.node_bounds_squared(cumsum, cumsq)
            np.testing.assert_array_equal(
                raw, per_node_segment_bounds(table, nodes, cumsum, cumsq)
            )
            np.testing.assert_array_equal(
                table.leaf_bounds_squared(cumsum, cumsq),
                running_max_down_the_levels(table, raw),
            )


def test_a_tree_without_repeated_segments():
    """A single-leaf tree shares no segment: ``segment_ids`` is
    ``arange`` and the root path is the root alone."""
    data = make_data(5, 32, seed=1, scale=1.0)
    with build(data) as index:
        table = index._table
        nodes = list(index.root.iter_nodes_preorder())
        assert len(nodes) == 1
        np.testing.assert_array_equal(table.segment_ids, np.arange(len(table.seg_starts)))
        np.testing.assert_array_equal(table.paths, [[0]])
        sketch = BatchSketch(make_queries(data, 1, 1.0))
        raw = table.node_bounds_squared(sketch.cumsum, sketch.cumsq)
        np.testing.assert_array_equal(
            raw, per_node_segment_bounds(table, nodes, sketch.cumsum, sketch.cumsq)
        )
        np.testing.assert_array_equal(table.leaf_bounds_squared(sketch.cumsum, sketch.cumsq), raw)


def queue_walk(table, bounds, bsf):
    """Algorithms 11-12 as a priority queue over the table's node bounds:
    the leaves (table indices) popped before every remaining bound
    reaches ``bsf``, in pop order."""
    children: dict = {}
    for row, parent in enumerate(table.parent.tolist()):
        if row:
            children.setdefault(parent, []).append(row)
    leaf_index = {row: i for i, row in enumerate(table.leaf_rows.tolist())}
    queue = [(bounds[0], 0)] if bounds[0] < bsf else []
    popped = []
    while queue:
        _, row = heapq.heappop(queue)
        if row in leaf_index:
            popped.append(leaf_index[row])
        for child in children.get(row, ()):
            if bounds[child] < bsf:
                heapq.heappush(queue, (bounds[child], child))
    return popped


@_SETTINGS
@given(shape=datasets)
def test_array_pass_selects_what_a_queue_walk_selects(shape):
    count, length, seed, scale = shape
    data = make_data(count, length, seed, scale)
    with build(data) as index:
        table = index._table
        for query in make_queries(data, seed, scale):
            sketch = SeriesSketch(query)
            raw = table.node_bounds_squared(sketch.cumsum, sketch.cumsq)
            effective = table.leaf_bounds_squared(sketch.cumsum, sketch.cumsq)
            cutoffs = [0.0, np.inf, *np.quantile(raw, [0.1, 0.5, 0.9]), *raw[:3]]
            for bsf in cutoffs:
                selected = np.flatnonzero(effective < bsf)
                # flatnonzero is already LRDFile order.
                assert np.all(np.diff(table.positions[selected]) > 0)
                assert selected.tolist() == sorted(queue_walk(table, raw, bsf))
            # Best-first order: the queue pops leaves at their effective
            # bound, so the ascending sort is the same visit sequence
            # (up to the order inside a tie).
            pops = queue_walk(table, raw, np.inf)
            order = np.argsort(effective, kind="stable")
            assert effective[pops].tolist() == effective[order].tolist()


def test_non_monotone_bounds_exist_and_are_enforced():
    """The reason the table is not leaf-only: below a V-split a child's
    bound can drop under its parent's."""
    data = make_random_walks(600, 32, seed=3)
    with build(data) as index:
        table = index._table
        batch = BatchSketch(make_random_walks(8, 32, seed=4).astype(np.float64))
        raw = table.node_bounds_squared(batch.cumsum, batch.cumsq)
        effective = table.leaf_bounds_squared(batch.cumsum, batch.cumsq)
        assert np.any(raw[:, table.parent] > raw)
        assert np.any(effective > raw[:, table.leaf_rows])


class TestExtentValidation:
    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("table") / "index"
        config = HerculesConfig(leaf_capacity=20)
        HerculesIndex.build(
            make_random_walks(100, 32, seed=9), config, directory=directory
        ).close()
        return directory

    @pytest.mark.parametrize("damage", ["swap", "empty", "gap", "short", "huge"])
    @pytest.mark.parametrize("verify", ["quick"])
    def test_damaged_leaf_extents_are_rejected_at_open(
        self, directory, tmp_path, damage, verify
    ):
        copy = tmp_path / "copy"
        shutil.copytree(directory, copy)
        root, tree_settings = htree.load_tree(copy / "htree.bin")
        leaves = list(root.iter_leaves_inorder())
        if damage == "swap":
            first, second = leaves[1], leaves[2]
            first.file_position, second.file_position = (
                second.file_position, first.file_position,
            )
            named = first
        elif damage == "empty":
            leaves[1].size = 0
            named = leaves[1]
        elif damage == "gap":
            leaves[1].size -= 1
            named = leaves[2]
        elif damage == "huge":
            # Past int64: the array check must not wrap it into a tiling.
            leaves[1].size = 2**64 - 1
            named = leaves[2]
        else:
            leaves[-1].size -= 1
            named = None
        # Same byte size, so the quick level's size check passes.
        htree.save_tree(copy / "htree.bin", root, tree_settings)
        message = f"leaf {named.node_id}:" if named else "sum to 99"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(StorageError, match=message):
                HerculesIndex.open(copy, verify=verify)
            gc.collect()
        # The rejected open closes the lrd.bin handle it had opened.
        assert not [w for w in caught if "lrd.bin" in str(w.message)]
