"""Integration tests for index writing (Algorithms 6-9)."""

import numpy as np
import pytest

from repro.core.config import HerculesConfig
from repro.core.construction import build_tree
from repro.core.writing import (
    HTREE_FILENAME,
    LRD_FILENAME,
    LSD_FILENAME,
    write_index,
)
from repro.distance.lower_bounds import MU_MAX, MU_MIN, SD_MAX, SD_MIN
from repro.storage.dataset import Dataset
from repro.storage.files import SeriesFile, SymbolFile
from repro.summarization.eapca import segment_stats
from repro.summarization.paa import paa
from repro.summarization.sax import SaxSpace

from ..conftest import make_random_walks


def build_and_write(tmp_path, data, **config_kwargs):
    config = HerculesConfig(**config_kwargs)
    dataset = Dataset.from_array(data)
    spill = SeriesFile(tmp_path / "spill.bin", data.shape[1])
    ctx = build_tree(dataset, config, spill)
    sax_space = SaxSpace(config.sax_segments, config.sax_alphabet)
    result = write_index(ctx, tmp_path / "index", sax_space, settings={"v": 1})
    return ctx, result, sax_space


def subtree_series(ctx, node):
    """All raw series below a node, via the materialized LRDFile order."""
    lrd = SeriesFile(
        ctx_dir(ctx) / LRD_FILENAME, ctx.hbuffer.series_length, read_only=True
    )
    parts = [
        lrd.read_range(leaf.file_position, leaf.size)
        for leaf in node.iter_leaves_inorder()
        if leaf.size
    ]
    lrd.close()
    return np.concatenate(parts, axis=0)


def ctx_dir(ctx):
    return ctx._written_dir  # set by the helper below


@pytest.fixture
def written(tmp_path):
    data = make_random_walks(800, 64, seed=91)
    ctx, result, sax_space = build_and_write(
        tmp_path,
        data,
        leaf_capacity=60,
        db_size=128,
        sax_segments=8,
    )
    ctx._written_dir = result.directory
    return data, ctx, result, sax_space


class TestMaterialization:
    def test_three_files_exist(self, written):
        _, ctx, result, _ = written
        for name in (LRD_FILENAME, LSD_FILENAME, HTREE_FILENAME):
            assert (result.directory / name).exists()

    def test_lrd_holds_every_series_in_leaf_inorder(self, written):
        data, ctx, result, _ = written
        lrd = SeriesFile(
            result.directory / LRD_FILENAME, data.shape[1], read_only=True
        )
        assert lrd.num_series == data.shape[0]
        # Leaf file positions tile [0, N) in inorder without gaps.
        expected = 0
        for leaf in ctx.root.iter_leaves_inorder():
            assert leaf.file_position == expected
            expected += leaf.size
        assert expected == data.shape[0]
        # Contents: multiset of rows matches the dataset.
        stored = lrd.read_range(0, lrd.num_series)
        np.testing.assert_array_equal(
            stored[np.lexsort(stored.T[::-1])], data[np.lexsort(data.T[::-1])]
        )
        lrd.close()

    def test_lsd_words_match_recomputed_sax(self, written):
        data, ctx, result, sax_space = written
        lrd = SeriesFile(
            result.directory / LRD_FILENAME, data.shape[1], read_only=True
        )
        lsd = SymbolFile(
            result.directory / LSD_FILENAME, sax_space.segments, read_only=True
        )
        stored = lrd.read_range(0, lrd.num_series)
        words = lsd.read_all()
        expected = sax_space.symbolize(paa(stored, sax_space.segments))
        np.testing.assert_array_equal(words, expected)
        lrd.close()
        lsd.close()


class TestSynopsisCompletion:
    def assert_internal_synopses_exact(self, data, ctx, result):
        """Every internal node's synopsis equals the exact box of its subtree."""
        lrd = SeriesFile(
            result.directory / LRD_FILENAME, data.shape[1], read_only=True
        )
        for node in ctx.root.iter_nodes_preorder():
            parts = [
                lrd.read_range(leaf.file_position, leaf.size)
                for leaf in node.iter_leaves_inorder()
                if leaf.size
            ]
            rows = np.concatenate(parts, axis=0)
            means, stds = segment_stats(rows, node.segmentation)
            np.testing.assert_allclose(
                node.synopsis[:, MU_MIN], means.min(axis=0), atol=1e-6
            )
            np.testing.assert_allclose(
                node.synopsis[:, MU_MAX], means.max(axis=0), atol=1e-6
            )
            np.testing.assert_allclose(
                node.synopsis[:, SD_MIN], stds.min(axis=0), atol=1e-6
            )
            np.testing.assert_allclose(
                node.synopsis[:, SD_MAX], stds.max(axis=0), atol=1e-6
            )
        lrd.close()

    def test_writing_completes_internal_synopses(self, written):
        data, ctx, result, _ = written
        self.assert_internal_synopses_exact(data, ctx, result)

    def test_sequential_writing_matches(self, tmp_path):
        data = make_random_walks(500, 32, seed=92)
        ctx, result, _ = build_and_write(
            tmp_path,
            data,
            leaf_capacity=40,
            sax_segments=8,
        )
        self.assert_internal_synopses_exact(data, ctx, result)

    def test_vsplit_heavy_tree_synopses_exact(self, tmp_path):
        """Small initial segmentation forces vertical splits."""
        data = make_random_walks(600, 64, seed=93)
        ctx, result, _ = build_and_write(
            tmp_path,
            data,
            leaf_capacity=30,
            initial_segments=1,
            sax_segments=8,
        )
        assert any(
            node.policy is not None and node.policy.vertical
            for node in ctx.root.iter_nodes_preorder()
            if not node.is_leaf
        ), "expected at least one vertical split with initial_segments=1"
        self.assert_internal_synopses_exact(data, ctx, result)


class TestWriteResult:
    def test_counts(self, written):
        data, ctx, result, _ = written
        assert result.num_series == data.shape[0]
        assert result.num_leaves == sum(
            1 for _ in ctx.root.iter_leaves_inorder()
        )
        assert result.series_length == data.shape[1]
