"""Open builds the flat table straight from htree.bin's node records.

* The table the record walk builds equals, array for array, the table
  flattened from the node tree, and the tree :func:`load_tree` builds
  from the same walk serializes back to the file byte for byte.
* No query process constructs a :class:`~repro.core.node.Node`: an
  opened index answers every query mode, and a sharded one answers
  through its worker pool, with ``Node.__init__`` patched to raise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import HerculesConfig, HerculesIndex
from repro.core import ShardedIndex
from repro.core.leaf_table import LeafTable
from repro.core.node import Node
from repro.storage import htree
from repro.types import DISTANCE_DTYPE

from ..conftest import make_random_walks


def reference_table(root: Node, num_series: int) -> dict:
    """The table's arrays flattened from a node tree, node by node."""
    nodes = list(root.iter_nodes_preorder())
    leaves = [node for node in nodes if node.is_leaf]
    positions = np.array([leaf.file_position for leaf in leaves], dtype=np.int64)
    segmentations = [node.segmentation for node in nodes]
    starts = np.concatenate([s.starts_array for s in segmentations])
    ends = np.concatenate([s.ends_array for s in segmentations])
    width = int(ends.max()) + 1
    distinct, segment_ids = np.unique(starts * width + ends, return_inverse=True)
    seg_starts, seg_ends = np.divmod(distinct, width)
    leaf_rows = np.flatnonzero([node.is_leaf for node in nodes])
    rows = {node: row for row, node in enumerate(nodes)}
    parent = np.array([rows.get(node.parent, 0) for node in nodes])
    paths = [leaf_rows]
    while paths[-1].any():
        paths.append(parent[paths[-1]])
    return {
        "leaf_rows": leaf_rows,
        "positions": positions,
        "sizes": np.diff(positions, append=num_series),
        "row_starts": np.cumsum([0] + [s.num_segments for s in segmentations[:-1]]),
        "segment_ids": segment_ids,
        "seg_starts": seg_starts,
        "seg_ends": seg_ends,
        "seg_weights": (ends - starts).astype(DISTANCE_DTYPE),
        "synopses": np.ascontiguousarray(
            np.concatenate([node.synopsis for node in nodes]).T
        ),
        "parent": parent,
        "paths": np.stack(paths),
    }


def assert_table_matches(table: LeafTable, reference: dict) -> None:
    assert table.num_leaves == len(reference["leaf_rows"])
    for name, expected in reference.items():
        actual = getattr(table, name)
        assert actual.dtype == expected.dtype, name
        np.testing.assert_array_equal(actual, expected, err_msg=name)


def build(data, directory, **options):
    config = HerculesConfig(
        leaf_capacity=12,
        initial_segments=4,
        **options,
    )
    return HerculesIndex.build(data, config, directory=directory)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    count=st.integers(1, 400),
    length=st.sampled_from([16, 32, 48]),
    seed=st.integers(0, 10_000),
)
@example(count=1, length=32, seed=0)  # a one-leaf tree
@example(count=600, length=32, seed=3)  # V-splits below the root
def test_record_walk_table_equals_the_flattened_tree(tmp_path_factory, count, length, seed):
    directory = tmp_path_factory.mktemp("walk") / "index"
    data = make_random_walks(count, length, seed=seed)
    with build(data, directory) as built:
        reference = reference_table(built.root, count)
        assert_table_matches(built._table, reference)
        built_leaves = [(leaf.file_position, leaf.size) for leaf in built.leaves]
    with HerculesIndex.open(directory) as index:
        assert_table_matches(index._table, reference)
        # The tree the same walk builds round-trips to the file.
        blob = (directory / "htree.bin").read_bytes()
        root, tree_settings = htree.load_tree(directory / "htree.bin")
        assert htree.serialize_tree(root, tree_settings) == blob
        assert htree.serialize_tree(index.root, tree_settings) == blob
        assert [node.node_id for node in root.iter_nodes_preorder()] == list(
            range(len(reference["parent"]))
        )
        assert [(leaf.file_position, leaf.size) for leaf in index.leaves] == built_leaves


def test_reference_trees_include_v_splits(tmp_path):
    """The second explicit example above exercises re-segmented children."""
    with build(make_random_walks(600, 32, seed=3), tmp_path / "index") as index:
        policies = [
            node.policy for node in index.root.iter_nodes_preorder() if not node.is_leaf
        ]
        assert any(policy.vertical for policy in policies)
        assert index._table.synopses.shape[1] > index._table.seg_starts.shape[0]


@pytest.fixture(scope="module")
def directories(tmp_path_factory):
    base = tmp_path_factory.mktemp("no-node")
    data = make_random_walks(300, 32, seed=21)
    config = HerculesConfig(leaf_capacity=20)
    with HerculesIndex.build(data, config, directory=base / "plain") as index:
        extents = [(leaf.file_position, leaf.size) for leaf in index.leaves]
    ShardedIndex.build(
        data,
        config.with_options(num_shards=2, shard_workers=1),
        directory=base / "sharded",
    ).close()
    return base / "plain", base / "sharded", extents


def test_no_query_path_builds_a_node(directories, monkeypatch):
    plain, sharded, extents = directories
    queries = make_random_walks(5, 32, seed=22)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a query process built a Node")

    monkeypatch.setattr(Node, "__init__", refuse)
    index = HerculesIndex.open(plain)
    try:
        index.knn(queries[0], k=3)
        index.knn_batch(queries, k=3)
        index.knn_approx(queries[1], k=3)
        assert list(index.knn_progressive(queries[2], k=3))
        # A one-worker pool forks after the patch, so it holds there too.
        with ShardedIndex.open(sharded, workers=1) as pooled:
            pooled.knn(queries[0], k=3)
            pooled.knn_batch(queries, k=3)
        monkeypatch.undo()
        assert [(leaf.file_position, leaf.size) for leaf in index.leaves] == extents
    finally:
        index.close()
