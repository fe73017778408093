"""Focused tests of flushing (Algorithm 3's spill).

The observable contract: data survives arbitrary buffer pressure,
flushes happen when (and only when) the HBuffer cannot absorb the next
batch, the HBuffer empties after each flush, and leaves accumulate spill
extents that splits and the writing phase can read back.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import HerculesConfig
from repro.core.construction import (
    build_tree,
    leaf_data,
    materialize_flush,
    new_build_context,
)
from repro.storage.dataset import Dataset
from repro.storage.files import SeriesFile

from ..conftest import make_random_walks


def build_ctx(tmp_path, data, **config_kwargs):
    config = HerculesConfig(**config_kwargs)
    spill = SeriesFile(tmp_path / "spill.bin", data.shape[1])
    ctx = new_build_context(Dataset.from_array(data), config, spill)
    return ctx, spill


class TestMaterializeFlush:
    def test_moves_memory_series_to_spill(self, tmp_path):
        data = make_random_walks(50, 16, seed=180)
        ctx, spill = build_ctx(
            tmp_path, data, leaf_capacity=100
        )
        from repro.core.construction import insert_series

        for row in data:
            insert_series(ctx, row)
        assert ctx.hbuffer.free_slots() == ctx.hbuffer.capacity - 50
        materialize_flush(ctx)
        assert ctx.hbuffer.free_slots() == ctx.hbuffer.capacity
        root = ctx.root
        assert root.sbuffer == []
        assert sum(e.count for e in root.spill_extents) == 50
        np.testing.assert_array_equal(
            np.sort(leaf_data(ctx, root), axis=0),
            np.sort(data, axis=0),
        )
        spill.close()

    def test_flush_is_idempotent_on_empty_buffers(self, tmp_path):
        data = make_random_walks(10, 16, seed=181)
        ctx, spill = build_ctx(
            tmp_path, data, leaf_capacity=100
        )
        materialize_flush(ctx)
        assert ctx.flushes == 1
        assert spill.num_series == 0
        spill.close()


class TestFlushUnderPressure:
    def test_flush_count_grows_with_pressure(self, tmp_path):
        data = make_random_walks(600, 16, seed=182)

        def flushes(buffer_capacity):
            config = dict(
                leaf_capacity=50,
                db_size=32,
                buffer_capacity=buffer_capacity,
            )
            ctx, spill = build_ctx(tmp_path / str(buffer_capacity), data,
                                   **config)
            build_tree(Dataset.from_array(data), ctx.config, spill, context=ctx)
            spill.close()
            return ctx.flushes

        tight = flushes(128)
        loose = flushes(600)
        assert tight > loose
        assert tight >= 3

    def test_split_reads_back_spilled_series(self, tmp_path):
        """Splits after a flush must merge spill extents with memory."""
        data = make_random_walks(300, 16, seed=183)
        config = dict(
            leaf_capacity=120,
            db_size=32,
            buffer_capacity=64,
        )
        ctx, spill = build_ctx(tmp_path, data, **config)
        build_tree(Dataset.from_array(data), ctx.config, spill, context=ctx)
        # With capacity 64 and leaf threshold 120, the first split can
        # only have happened after at least one flush.
        assert ctx.flushes >= 1
        assert ctx.splits >= 1
        total = sum(leaf.size for leaf in ctx.root.iter_leaves_inorder())
        assert total == 300
        # Children carry fresh spill extents written by the split.
        spilled = [
            leaf
            for leaf in ctx.root.iter_leaves_inorder()
            if leaf.spill_extents
        ]
        assert spilled
        spill.close()

    def test_spill_file_contains_dead_extents_after_splits(self, tmp_path):
        """The append-only spill file grows past the live data (documented
        behaviour: old extents become dead space on split)."""
        data = make_random_walks(400, 16, seed=184)
        config = dict(
            leaf_capacity=60,
            db_size=32,
            buffer_capacity=64,
        )
        ctx, spill = build_ctx(tmp_path, data, **config)
        build_tree(Dataset.from_array(data), ctx.config, spill, context=ctx)
        live = sum(
            e.count
            for leaf in ctx.root.iter_leaves_inorder()
            for e in leaf.spill_extents
        )
        assert spill.num_series >= live
        spill.close()


class TestEndToEndWithPressure:
    def test_full_index_from_heavily_flushed_build(self, tmp_path):
        """Build with severe pressure, then query: answers stay exact."""
        from repro import HerculesIndex

        data = make_random_walks(500, 32, seed=185)
        config = HerculesConfig(
            leaf_capacity=40,
            db_size=32,
            buffer_capacity=80,
            l_max=3,
            sax_segments=8,
        )
        index = HerculesIndex.build(data, config, directory=tmp_path / "idx")
        assert index.build_report.flushes >= 3
        query = make_random_walks(1, 32, seed=186)[0]
        answer = index.knn(query, k=5)
        d = np.sqrt(
            ((data.astype(np.float64) - query.astype(np.float64)) ** 2).sum(1)
        )
        np.testing.assert_allclose(answer.distances, np.sort(d)[:5], atol=1e-5)
        index.close()
