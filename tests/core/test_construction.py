"""Integration tests for index building (Algorithms 1-5)."""

import numpy as np
import pytest

from repro.core.config import HerculesConfig
from repro.core.construction import (
    build_tree,
    leaf_data,
    new_build_context,
)
from repro.distance.lower_bounds import MU_MAX, MU_MIN, SD_MAX, SD_MIN
from repro.errors import ConfigError
from repro.storage.dataset import Dataset
from repro.storage.files import SeriesFile
from repro.summarization.eapca import segment_stats

from ..conftest import make_random_walks


def build(tmp_path, data, **config_kwargs):
    config = HerculesConfig(**config_kwargs)
    dataset = Dataset.from_array(data)
    spill = SeriesFile(tmp_path / "spill.bin", data.shape[1])
    ctx = build_tree(dataset, config, spill)
    return ctx, spill


def collect_all_series(ctx):
    """Every series stored in the tree, via leaf data, as one matrix."""
    parts = [leaf_data(ctx, leaf) for leaf in ctx.root.iter_leaves_inorder()]
    return np.concatenate([p for p in parts if p.shape[0]], axis=0)


def assert_tree_invariants(ctx, data):
    """Structural invariants shared by every construction test."""
    total = 0
    for leaf in ctx.root.iter_leaves_inorder():
        rows = leaf_data(ctx, leaf)
        assert rows.shape[0] == leaf.size
        total += leaf.size
        # Leaf synopsis is the exact box of the leaf's series.
        means, stds = segment_stats(rows, leaf.segmentation)
        np.testing.assert_allclose(
            leaf.synopsis[:, MU_MIN], means.min(axis=0), atol=1e-6
        )
        np.testing.assert_allclose(
            leaf.synopsis[:, MU_MAX], means.max(axis=0), atol=1e-6
        )
        np.testing.assert_allclose(
            leaf.synopsis[:, SD_MIN], stds.min(axis=0), atol=1e-6
        )
        np.testing.assert_allclose(
            leaf.synopsis[:, SD_MAX], stds.max(axis=0), atol=1e-6
        )
    assert total == data.shape[0]
    # No series lost or duplicated: multiset of rows matches the dataset.
    stored = collect_all_series(ctx)
    order_stored = np.lexsort(stored.T[::-1])
    order_data = np.lexsort(data.T[::-1])
    np.testing.assert_array_equal(stored[order_stored], data[order_data])


class TestSequentialBuild:
    def test_preserves_every_series(self, tmp_path):
        data = make_random_walks(500, 32, seed=80)
        ctx, _ = build(
            tmp_path, data, leaf_capacity=40
        )
        assert_tree_invariants(ctx, data)

    def test_leaves_respect_capacity(self, tmp_path):
        data = make_random_walks(500, 32, seed=81)
        ctx, _ = build(
            tmp_path, data, leaf_capacity=40
        )
        for leaf in ctx.root.iter_leaves_inorder():
            assert leaf.size <= 40

    def test_routing_sends_each_leaf_series_to_it(self, tmp_path):
        from repro.core.construction import route_to_leaf
        from repro.summarization.eapca import SeriesSketch

        data = make_random_walks(300, 32, seed=82)
        ctx, _ = build(
            tmp_path, data, leaf_capacity=30
        )
        for leaf in ctx.root.iter_leaves_inorder():
            for row in leaf_data(ctx, leaf)[:3]:
                assert route_to_leaf(ctx.root, SeriesSketch(row)) is leaf

    def test_spilling_path_with_tiny_buffer(self, tmp_path):
        data = make_random_walks(400, 32, seed=83)
        ctx, spill = build(
            tmp_path,
            data,
            leaf_capacity=50,
            buffer_capacity=64,
            db_size=32,
        )
        assert ctx.flushes > 0
        assert spill.num_series > 0
        assert_tree_invariants(ctx, data)

    def test_large_magnitude_series_still_split(self, tmp_path):
        # Split scores square value ranges: at x 1e20 they must not
        # overflow into "no split", which let one leaf hold everything.
        data = make_random_walks(2000, 64, seed=85) * np.float32(1e20)
        ctx, _ = build(
            tmp_path, data, leaf_capacity=100
        )
        leaves = list(ctx.root.iter_leaves_inorder())
        assert len(leaves) > 1
        assert all(leaf.size <= 100 for leaf in leaves)

    def test_identical_series_overflow_leaf_without_split(self, tmp_path):
        data = np.tile(make_random_walks(1, 16, seed=84), (50, 1))
        ctx, _ = build(
            tmp_path, data, leaf_capacity=10
        )
        assert ctx.root.is_leaf
        assert ctx.root.size == 50


    def test_single_batch_dataset(self, tmp_path):
        data = make_random_walks(50, 16, seed=87)
        ctx, _ = build(tmp_path, data, leaf_capacity=10, db_size=256)
        assert_tree_invariants(ctx, data)


class TestValidation:
    def test_region_smaller_than_db_size_rejected(self, tmp_path):
        data = make_random_walks(100, 16, seed=89)
        dataset = Dataset.from_array(data)
        config = HerculesConfig(db_size=64, buffer_capacity=50)
        spill = SeriesFile(tmp_path / "spill.bin", 16)
        with pytest.raises(ConfigError):
            new_build_context(dataset, config, spill)

    def test_initial_segments_longer_than_series_rejected(self, tmp_path):
        data = make_random_walks(10, 4, seed=90)
        dataset = Dataset.from_array(data)
        spill = SeriesFile(tmp_path / "spill.bin", 4)
        with pytest.raises(ConfigError):
            new_build_context(
                dataset, HerculesConfig(initial_segments=8), spill
            )
