"""Unit tests for Euclidean distance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.euclidean import (
    batch_squared_euclidean,
    early_abandon_squared,
    euclidean,
    knn_from_distances,
    squared_euclidean,
)

from ..conftest import make_random_walks


class TestScalarKernels:
    def test_squared_euclidean_known_value(self):
        a = np.array([0.0, 0.0, 0.0])
        b = np.array([1.0, 2.0, 2.0])
        assert squared_euclidean(a, b) == 9.0
        assert euclidean(a, b) == 3.0

    def test_symmetry_and_identity(self):
        a = make_random_walks(1, 32, seed=1)[0]
        b = make_random_walks(1, 32, seed=2)[0]
        assert squared_euclidean(a, b) == pytest.approx(squared_euclidean(b, a))
        assert squared_euclidean(a, a) == 0.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            squared_euclidean(np.zeros(3), np.zeros(4))


class TestBatchKernel:
    def test_matches_scalar_loop(self, small_dataset):
        query = small_dataset[0]
        batch = batch_squared_euclidean(query, small_dataset)
        for i in range(10):
            assert batch[i] == pytest.approx(
                squared_euclidean(query, small_dataset[i])
            )

    def test_accepts_single_candidate(self):
        q = np.array([1.0, 2.0])
        assert batch_squared_euclidean(q, np.array([3.0, 4.0])).shape == (1,)

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            batch_squared_euclidean(np.zeros(3), np.zeros((2, 4)))


class TestEarlyAbandon:
    def test_matches_batch_when_cutoff_infinite(self, small_dataset):
        query = small_dataset[0]
        full = batch_squared_euclidean(query, small_dataset)
        abandoned, compared = early_abandon_squared(query, small_dataset, np.inf)
        np.testing.assert_allclose(abandoned, full, rtol=1e-10)
        assert compared == small_dataset.size

    def test_abandoned_rows_truly_exceed_cutoff(self, small_dataset):
        query = small_dataset[0]
        full = batch_squared_euclidean(query, small_dataset)
        cutoff = float(np.median(full))
        result, compared = early_abandon_squared(query, small_dataset, cutoff)
        surviving = np.isfinite(result)
        np.testing.assert_allclose(result[surviving], full[surviving], rtol=1e-10)
        assert np.all(full[~surviving] > cutoff)
        assert compared < small_dataset.size  # abandoning saved work

    def test_tight_cutoff_prunes_everything_but_self(self, small_dataset):
        query = small_dataset[3]
        result, _ = early_abandon_squared(query, small_dataset, 1e-12)
        assert np.isfinite(result[3])
        assert result[3] == pytest.approx(0.0, abs=1e-12)

    def test_block_size_does_not_change_results(self, small_dataset):
        query = small_dataset[0]
        cutoff = 50.0
        r1, _ = early_abandon_squared(query, small_dataset, cutoff, block=8)
        r2, _ = early_abandon_squared(query, small_dataset, cutoff, block=64)
        finite1 = np.isfinite(r1)
        finite2 = np.isfinite(r2)
        np.testing.assert_array_equal(finite1, finite2)
        np.testing.assert_allclose(r1[finite1], r2[finite2], rtol=1e-10)

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            early_abandon_squared(np.zeros(4), np.zeros((1, 4)), 1.0, block=0)


class TestEarlyAbandonEdges:
    """Edge cases of the blocked kernel the squared pipeline leans on."""

    def test_empty_candidate_matrix(self):
        distances, compared = early_abandon_squared(
            np.zeros(8), np.empty((0, 8)), 1.0
        )
        assert distances.shape == (0,)
        assert compared == 0

    def test_single_row_one_dimensional(self):
        q = np.array([1.0, 2.0, 3.0])
        distances, compared = early_abandon_squared(
            q, np.array([2.0, 2.0, 3.0]), np.inf
        )
        assert distances.shape == (1,)
        assert distances[0] == pytest.approx(1.0)
        assert compared == 3

    def test_block_larger_than_length(self, small_dataset):
        query = small_dataset[0]
        full = batch_squared_euclidean(query, small_dataset)
        distances, compared = early_abandon_squared(
            query, small_dataset, np.inf, block=10_000
        )
        np.testing.assert_array_equal(distances, full)
        assert compared == small_dataset.size

    def test_nan_cutoff_behaves_like_infinite(self, small_dataset):
        query = small_dataset[0]
        full = batch_squared_euclidean(query, small_dataset)
        distances, compared = early_abandon_squared(
            query, small_dataset, float("nan")
        )
        np.testing.assert_array_equal(distances, full)
        assert compared == small_dataset.size

    def test_survivors_agree_with_batch_exactly(self, small_dataset):
        # Bit-for-bit, not approximately: the squared pipeline depends
        # on surviving rows matching the unblocked kernel so answers are
        # identical whichever code path computed them.
        query = small_dataset[0]
        full = batch_squared_euclidean(query, small_dataset)
        cutoff = float(np.quantile(full, 0.4))
        for block in (1, 7, 32, 200):
            distances, _ = early_abandon_squared(
                query, small_dataset, cutoff, block=block
            )
            alive = np.isfinite(distances)
            np.testing.assert_array_equal(distances[alive], full[alive])

    def test_compared_counts_bounded_by_total(self, small_dataset):
        query = small_dataset[0]
        full = batch_squared_euclidean(query, small_dataset)
        cutoff = float(np.quantile(full, 0.1))
        _, compared = early_abandon_squared(query, small_dataset, cutoff)
        assert 0 < compared < small_dataset.size


class TestKnnSelection:
    def test_returns_sorted_smallest(self):
        dist = np.array([5.0, 1.0, 3.0, 0.5, 4.0])
        idx, values = knn_from_distances(dist, 3)
        assert list(idx) == [3, 1, 2]
        np.testing.assert_allclose(values, [0.5, 1.0, 3.0])

    def test_k_larger_than_input(self):
        idx, values = knn_from_distances(np.array([2.0, 1.0]), 5)
        assert list(idx) == [1, 0]

    def test_k_zero(self):
        idx, values = knn_from_distances(np.array([1.0]), 0)
        assert idx.shape == (0,)
        assert values.shape == (0,)

    def test_handles_infinities(self):
        dist = np.array([np.inf, 2.0, np.inf, 1.0])
        idx, values = knn_from_distances(dist, 2)
        assert list(idx) == [3, 1]


def _reference_early_abandon(query, candidates, cutoff_squared, block=32):
    """The kernel as first written: a float64 copy of the block, a fancy
    gather of the live rows per column block, scatter-adds into one
    partial vector.  The copy-free kernel must report exactly this."""
    q = np.asarray(query, dtype=np.float64)
    cands = np.asarray(candidates, dtype=np.float64)
    count, n = cands.shape
    if not cutoff_squared < np.inf:
        return batch_squared_euclidean(q, cands), count * n
    partial = np.zeros(count)
    alive = np.arange(count)
    points_compared = 0
    for start in range(0, n, block):
        end = min(start + block, n)
        diff = cands[alive, start:end] - q[start:end]
        partial[alive] += np.einsum("ij,ij->i", diff, diff)
        points_compared += alive.shape[0] * (end - start)
        alive = alive[partial[alive] <= cutoff_squared]
        if alive.shape[0] == 0:
            break
    distances = np.full(count, np.inf)
    if alive.shape[0]:
        diff = cands[alive] - q
        distances[alive] = np.einsum("ij,ij->i", diff, diff)
    return distances, points_compared


class TestEarlyAbandonProperty:
    """The copy-free kernel against the loop it replaced, on the block
    dtypes refinement feeds it (float32 as read, float64 from callers
    that converted) and at every kind of cutoff."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 150),  # spans several 64-row whole-row passes
        length=st.sampled_from([1, 31, 32, 33, 96, 100]),
        dtype=st.sampled_from([np.float32, np.float64]),
        quantile=st.one_of(
            st.floats(0.0, 1.0), st.sampled_from([np.inf, np.nan, -1.0])
        ),
    )
    def test_matches_reference(self, seed, rows, length, dtype, quantile):
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((rows, length)).astype(dtype)
        # Duplicate rows land exactly on the cutoff when it is one of them.
        block[rng.integers(rows)] = block[0]
        query = rng.standard_normal(length)
        truth = batch_squared_euclidean(query, block)
        cutoff = (
            float(np.quantile(truth, quantile)) if 0.0 <= quantile <= 1.0 else quantile
        )
        distances, compared = early_abandon_squared(query, block, cutoff)
        expected, expected_compared = _reference_early_abandon(query, block, cutoff)

        np.testing.assert_array_equal(distances, expected)
        assert compared == expected_compared
        survivors = np.isfinite(distances)
        # Survivors carry the unblocked kernel's value bit for bit, and
        # only a row at or beyond the cutoff may report inf.  "At": blocked
        # partial sums round differently from the whole-row sum, so a row
        # tied with the cutoff to the last ulps can fall either way (as in
        # the reference); one clearly inside never does.
        np.testing.assert_array_equal(distances[survivors], truth[survivors])
        assert np.all(truth[~survivors] >= cutoff * (1.0 - 1e-12))
        if not cutoff < np.inf:  # the inf / NaN cutoff path abandons nothing
            assert survivors.all() and compared == block.size
