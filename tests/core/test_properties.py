"""Property-based tests on core index invariants (hypothesis).

These complement the example-based suites with randomized coverage of
the invariants everything else rests on:

* every series inserted into a tree is stored exactly once and routes
  back to its own leaf;
* internal synopses after index writing are exact bounding boxes;
* the full query pipeline is exact for arbitrary datasets, shapes, and
  configurations;
* HTree serialization round-trips arbitrary trees built from data.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import HerculesConfig, HerculesIndex
from repro.core.construction import build_tree, leaf_data
from repro.core.config import HerculesConfig as Config
from repro.storage.dataset import Dataset
from repro.storage.files import SeriesFile
from repro.storage import htree

from ..conftest import make_random_walks

# Building indexes per example is expensive; keep example counts modest
# and suppress the too-slow health check explicitly.
_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def dataset_strategy():
    return st.tuples(
        st.integers(60, 220),   # series count
        st.sampled_from([16, 32, 48]),  # length
        st.integers(0, 10_000),  # seed
    )


@_SETTINGS
@given(shape=dataset_strategy(), leaf_capacity=st.integers(8, 40))
def test_tree_stores_every_series_exactly_once(tmp_path_factory, shape, leaf_capacity):
    count, length, seed = shape
    data = make_random_walks(count, length, seed=seed)
    tmp = tmp_path_factory.mktemp("prop")
    config = Config(
        leaf_capacity=leaf_capacity,
        initial_segments=min(4, length),
    )
    spill = SeriesFile(tmp / "spill.bin", length)
    ctx = build_tree(Dataset.from_array(data), config, spill)
    stored = np.concatenate(
        [leaf_data(ctx, leaf) for leaf in ctx.root.iter_leaves_inorder()]
    )
    assert stored.shape == data.shape
    np.testing.assert_array_equal(
        stored[np.lexsort(stored.T[::-1])], data[np.lexsort(data.T[::-1])]
    )
    spill.close()


@_SETTINGS
@given(shape=dataset_strategy(), k=st.integers(1, 10))
def test_query_pipeline_is_exact(tmp_path_factory, shape, k):
    count, length, seed = shape
    data = make_random_walks(count, length, seed=seed)
    query = make_random_walks(1, length, seed=seed + 1)[0]
    config = HerculesConfig(
        leaf_capacity=20,
        initial_segments=min(4, length),
        sax_segments=min(8, length),
        l_max=2,
    )
    index = HerculesIndex.build(data, config)
    try:
        answer = index.knn(query, k=k)
        d = np.sqrt(
            ((data.astype(np.float64) - query.astype(np.float64)) ** 2).sum(1)
        )
        np.testing.assert_allclose(
            answer.distances, np.sort(d)[:k], atol=1e-5
        )
    finally:
        index.close()


@_SETTINGS
@given(shape=dataset_strategy())
def test_htree_roundtrip_preserves_query_answers(tmp_path_factory, shape):
    count, length, seed = shape
    data = make_random_walks(count, length, seed=seed)
    tmp = tmp_path_factory.mktemp("roundtrip")
    config = HerculesConfig(
        leaf_capacity=25,
        initial_segments=min(4, length),
        sax_segments=min(8, length),
        l_max=2,
    )
    index = HerculesIndex.build(data, config, directory=tmp)
    query = make_random_walks(1, length, seed=seed + 2)[0]
    before = index.knn(query, k=3)
    index.close()
    reopened = HerculesIndex.open(tmp)
    after = reopened.knn(query, k=3)
    np.testing.assert_allclose(before.distances, after.distances, atol=1e-9)
    np.testing.assert_array_equal(before.positions, after.positions)
    reopened.close()


@_SETTINGS
@given(shape=dataset_strategy())
def test_serialized_tree_structure_matches(tmp_path_factory, shape):
    count, length, seed = shape
    data = make_random_walks(count, length, seed=seed)
    tmp = tmp_path_factory.mktemp("ser")
    config = Config(
        leaf_capacity=25,
        initial_segments=min(4, length),
    )
    spill = SeriesFile(tmp / "spill.bin", length)
    ctx = build_tree(Dataset.from_array(data), config, spill)
    # Leaves need file positions to serialize; assign inorder.
    position = 0
    for leaf in ctx.root.iter_leaves_inorder():
        leaf.file_position = position
        position += leaf.size
    htree.save_tree(tmp / "t.bin", ctx.root, {"n": count})
    loaded, meta = htree.load_tree(tmp / "t.bin")
    assert meta == {"n": count}

    originals = list(ctx.root.iter_nodes_preorder())
    restored = list(loaded.iter_nodes_preorder())
    assert len(originals) == len(restored)
    for original, copy in zip(originals, restored):
        assert original.is_leaf == copy.is_leaf
        assert original.size == copy.size
        assert original.segmentation == copy.segmentation
        np.testing.assert_allclose(original.synopsis, copy.synopsis)
        if not original.is_leaf:
            assert original.policy == copy.policy
        else:
            assert original.file_position == copy.file_position
    spill.close()


@_SETTINGS
@given(
    shape=dataset_strategy(),
    buffer_fraction=st.sampled_from([0.25, 0.5, 1.0]),
)
def test_build_with_random_buffer_pressure(
    tmp_path_factory, shape, buffer_fraction
):
    """Flush stress: random small HBuffers must never lose data."""
    count, length, seed = shape
    data = make_random_walks(count, length, seed=seed)
    tmp = tmp_path_factory.mktemp("pressure")
    db_size = 32
    capacity = max(int(count * buffer_fraction), db_size)
    config = Config(
        leaf_capacity=20,
        db_size=db_size,
        buffer_capacity=capacity,
        initial_segments=min(4, length),
    )
    spill = SeriesFile(tmp / "spill.bin", length)
    ctx = build_tree(Dataset.from_array(data), config, spill)
    total = sum(leaf.size for leaf in ctx.root.iter_leaves_inorder())
    assert total == count
    spill.close()
