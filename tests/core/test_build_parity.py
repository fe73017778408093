"""Bit-for-bit parity of grouped batch insertion vs the per-row path.

Grouped batch insertion (``batched_inserts=True``, the default) promises
a tree *identical* to the per-row reference path — not equivalent,
identical: same node ids, same segmentations and split policies, same
synopsis bytes, same per-leaf series in the same order.  These tests pin
that promise at leaf capacities small enough to force splits in the
middle of batches, across batch sizes (including pathological ones), and
through flush/spill cycles.  A default build is reproducible: building
the same data twice writes the same index bytes.

HBuffer slot *numbers* are allowed to differ (groups store contiguously,
rows store in arrival order); leaf contents via :func:`leaf_data` are
not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import HerculesConfig, HerculesIndex
from repro.cli import main
from repro.core.construction import build_tree, leaf_data
from repro.storage.dataset import Dataset
from repro.storage.files import SeriesFile
from repro.summarization.eapca import segment_stats

from ..conftest import make_random_walks


def build(tmp_path, data, tag, **config_kwargs):
    config = HerculesConfig(**config_kwargs)
    spill = SeriesFile(tmp_path / f"spill-{tag}.bin", data.shape[1])
    ctx = build_tree(Dataset.from_array(data), config, spill)
    return ctx, spill


def tree_fingerprint(ctx, include_storage: bool = True):
    """Everything observable about a tree, as comparable plain data.

    ``include_storage=False`` drops spill extents and HBuffer bookkeeping
    (used when comparing builds whose flush points legitimately differ —
    the *series* of every leaf are still compared byte-for-byte).
    """
    nodes = []
    for node in ctx.root.iter_nodes_preorder():
        policy = node.policy
        entry = {
            "id": node.node_id,
            "leaf": node.is_leaf,
            "size": node.size,
            "ends": node.segmentation.ends,
            "synopsis": node.synopsis.tobytes(),
            "policy": None
            if policy is None
            else (
                policy.split_segment,
                policy.vertical,
                policy.use_std,
                policy.threshold,
                policy.route_start,
                policy.route_end,
                policy.child_segmentation.ends,
            ),
        }
        if node.is_leaf:
            entry["data"] = leaf_data(ctx, node).tobytes()
            if include_storage:
                entry["extents"] = [
                    (e.position, e.count) for e in node.spill_extents
                ]
        nodes.append(entry)
    return {"nodes": nodes, "splits": ctx.splits, "next_id": ctx.node_ids}


class TestSequentialParity:
    """Per-row vs batched: full identity."""

    def test_batched_matches_per_row(self, tmp_path):
        data = make_random_walks(600, 32, seed=200)
        kwargs = dict(leaf_capacity=10)
        per_row, _ = build(
            tmp_path, data, "row", batched_inserts=False, **kwargs
        )
        batched, _ = build(
            tmp_path, data, "batch", batched_inserts=True, **kwargs
        )
        assert tree_fingerprint(batched) == tree_fingerprint(per_row)

    def test_batch_size_is_immaterial(self, tmp_path):
        # Any batch decomposition — row-at-a-time, a prime stride, whole
        # default batches — must produce the identical tree.  Capacity 10
        # with batches of 64 forces splits in the middle of every group.
        data = make_random_walks(500, 32, seed=201)
        kwargs = dict(leaf_capacity=10)
        reference, _ = build(
            tmp_path, data, "row", batched_inserts=False, **kwargs
        )
        expected = tree_fingerprint(reference)
        for db_size in (1, 7, 64, 256):
            ctx, _ = build(
                tmp_path, data, f"batch-{db_size}",
                batched_inserts=True, db_size=db_size, **kwargs,
            )
            assert tree_fingerprint(ctx) == expected, f"db_size={db_size}"

    def test_parity_through_flush_and_spill_cycles(self, tmp_path):
        # A small HBuffer forces repeated flushes; split redistribution
        # then re-spills leaf data.  Flush points depend only on batch
        # boundaries, so even spill extents must line up exactly.
        data = make_random_walks(700, 32, seed=202)
        kwargs = dict(
            leaf_capacity=25,
            db_size=64,
            buffer_capacity=192,
        )
        per_row, _ = build(
            tmp_path, data, "row", batched_inserts=False, **kwargs
        )
        batched, _ = build(
            tmp_path, data, "batch", batched_inserts=True, **kwargs
        )
        assert per_row.flushes > 0  # the scenario exercises flushes
        assert tree_fingerprint(batched) == tree_fingerprint(per_row)

    def test_parity_on_degenerate_data(self, tmp_path):
        # Identical series defeat every split statistic: leaves go over
        # capacity through degenerate splits, which the batched path must
        # emulate row by row (insert one, retry) to keep id parity.
        data = np.ones((120, 16), dtype=np.float32)
        kwargs = dict(leaf_capacity=8)
        per_row, _ = build(
            tmp_path, data, "row", batched_inserts=False, **kwargs
        )
        batched, _ = build(
            tmp_path, data, "batch", batched_inserts=True, **kwargs
        )
        assert tree_fingerprint(batched) == tree_fingerprint(per_row)


_INDEX_FILES = ("htree.bin", "lrd.bin", "lsd.bin", "norms.bin")


def _build_with_library(data, directory):
    HerculesIndex.build(
        data, HerculesConfig(leaf_capacity=20), directory=directory
    ).close()


def _build_with_cli(data, directory):
    dataset = directory.parent / f"{directory.name}.bin"
    Dataset.write(dataset, data).close()
    code = main(
        ["build", "--dataset", str(dataset), "--length",
         str(data.shape[1]), "--output", str(directory),
         "--leaf-capacity", "20"]
    )
    assert code == 0


class TestReproducibleBuild:
    @pytest.mark.parametrize(
        "build_index", [_build_with_library, _build_with_cli],
        ids=["library", "cli"],
    )
    def test_default_builds_are_byte_identical(self, tmp_path, build_index):
        # Defaults throughout (only the leaf capacity lowered, so the
        # tree splits often): two builds of the same data write the same
        # tree, the same leaf layout and the same iSAX words.
        data = make_random_walks(3000, 32, seed=204)
        files = []
        for run in ("first", "second"):
            directory = tmp_path / run
            build_index(data, directory)
            files.append(
                {name: (directory / name).read_bytes() for name in _INDEX_FILES}
            )
        for name in _INDEX_FILES:
            assert files[0][name] == files[1][name], name


class TestQueryParity:
    def test_exact_answers_identical_across_build_modes(self, tmp_path):
        # A per-row index and a batched index must return the same
        # distances — and the same *series* — for every query.
        # (Positions are LRDFile offsets, which depend on the leaf
        # layout, so the answers are compared by content.)
        data = make_random_walks(600, 64, seed=205)
        queries = make_random_walks(10, 64, seed=206)
        ref = HerculesIndex.build(
            data,
            HerculesConfig(leaf_capacity=32, batched_inserts=False),
            directory=tmp_path / "ref",
        )
        fast = HerculesIndex.build(
            data,
            HerculesConfig(leaf_capacity=32, batched_inserts=True),
            directory=tmp_path / "fast",
        )
        try:
            for query in queries:
                a = ref.knn(query, k=5)
                b = fast.knn(query, k=5)
                np.testing.assert_array_equal(a.distances, b.distances)
                rows_a = np.stack(
                    [ref._lrd.read_series(int(p)) for p in a.positions]
                )
                rows_b = np.stack(
                    [fast._lrd.read_series(int(p)) for p in b.positions]
                )
                np.testing.assert_array_equal(rows_a, rows_b)
        finally:
            ref.close()
            fast.close()


class TestHBufferBoundary:
    def test_batch_exactly_filling_region_does_not_flush(self, tmp_path):
        # 96-slot HBuffer, 32-series batches: the third batch lands the
        # buffer at exactly full.  The free-slots check must admit it
        # (free == batch size) and flush only before the *fourth* batch.
        data = make_random_walks(200, 16, seed=207)
        for batched in (False, True):
            ctx, _ = build(
                tmp_path, data, f"boundary-{batched}",
                leaf_capacity=30,
                db_size=32, buffer_capacity=96, batched_inserts=batched,
            )
            # 200 series = 96 + 96 + 8: exactly two flushes, never one
            # triggered by the exactly-full boundary itself.
            assert ctx.flushes == 2
            total = sum(
                leaf.size for leaf in ctx.root.iter_leaves_inorder()
            )
            assert total == data.shape[0]


# Building per example is expensive; keep the example count modest.
_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SETTINGS
@given(
    count=st.integers(80, 300),
    leaf_capacity=st.integers(5, 40),
    db_size=st.sampled_from([1, 13, 64, 256]),
    seed=st.integers(0, 10_000),
)
def test_leaf_synopses_bound_their_rows(
    tmp_path_factory, count, leaf_capacity, db_size, seed
):
    """Every leaf's synopsis is a bounding box of its stored rows."""
    from repro.distance.lower_bounds import MU_MAX, MU_MIN, SD_MAX, SD_MIN

    data = make_random_walks(count, 32, seed=seed)
    tmp = tmp_path_factory.mktemp("parity-prop")
    ctx, _ = build(
        tmp, data, "prop",
        leaf_capacity=leaf_capacity, batched_inserts=True, db_size=db_size,
    )
    for leaf in ctx.root.iter_leaves_inorder():
        rows = leaf_data(ctx, leaf)
        assert rows.shape[0] == leaf.size
        means, stds = segment_stats(rows, leaf.segmentation)
        syn = leaf.synopsis
        assert np.all(syn[:, MU_MIN] <= means.min(axis=0) + 1e-9)
        assert np.all(syn[:, MU_MAX] >= means.max(axis=0) - 1e-9)
        assert np.all(syn[:, SD_MIN] <= stds.min(axis=0) + 1e-9)
        assert np.all(syn[:, SD_MAX] >= stds.max(axis=0) - 1e-9)
