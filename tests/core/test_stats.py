"""Unit tests for tree statistics."""

import pytest

from repro import HerculesConfig, HerculesIndex
from repro.core.stats import tree_statistics

from ..conftest import make_random_walks


@pytest.fixture(scope="module")
def index(tmp_path_factory):
    data = make_random_walks(600, 32, seed=150)
    config = HerculesConfig(
        leaf_capacity=40,
        sax_segments=8,
    )
    idx = HerculesIndex.build(
        data, config, directory=tmp_path_factory.mktemp("stats")
    )
    yield idx
    idx.close()


class TestTreeStatistics:
    def test_counts_are_consistent(self, index):
        stats = tree_statistics(index.root, index.config.leaf_capacity)
        assert stats.num_leaves == index.num_leaves
        assert stats.num_internal == stats.num_leaves - 1  # full binary tree
        assert stats.num_nodes == 2 * stats.num_leaves - 1
        assert stats.num_series == index.num_series

    def test_leaf_sizes_respect_capacity(self, index):
        stats = tree_statistics(index.root, index.config.leaf_capacity)
        assert 0 < stats.min_leaf_size <= stats.mean_leaf_size
        assert stats.mean_leaf_size <= stats.max_leaf_size
        assert stats.max_leaf_size <= index.config.leaf_capacity
        assert 0.0 < stats.fill_factor <= 1.0

    def test_split_counts_sum_to_internal_nodes(self, index):
        stats = tree_statistics(index.root, index.config.leaf_capacity)
        assert stats.horizontal_splits + stats.vertical_splits == stats.num_internal
        assert stats.mean_routed_splits + stats.std_routed_splits == stats.num_internal

    def test_depths_and_segments(self, index):
        stats = tree_statistics(index.root, index.config.leaf_capacity)
        assert stats.max_depth >= stats.mean_leaf_depth > 0
        assert stats.min_segments >= 1
        assert stats.max_segments >= stats.min_segments
        # Vertical splits can only add segments beyond the initial count.
        assert stats.min_segments >= index.config.initial_segments

    def test_single_leaf_tree(self):
        from repro.core.node import Node
        from repro.summarization.eapca import Segmentation

        leaf = Node(0, Segmentation([8]))
        leaf.size = 3
        stats = tree_statistics(leaf)
        assert stats.num_nodes == 1
        assert stats.num_leaves == 1
        assert stats.max_depth == 0
        assert stats.fill_factor is None

    def test_format_is_readable(self, index):
        stats = tree_statistics(index.root, index.config.leaf_capacity)
        text = stats.format()
        assert "leaves" in text
        assert "fill factor" in text
        assert "vertical" in text
