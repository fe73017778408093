"""Unit tests for the thread-safe k-best result set."""

import threading

import numpy as np
import pytest

from repro.core.results import ResultSet


class TestResultSet:
    def test_bsf_is_infinite_until_k_answers(self):
        rs = ResultSet(3)
        rs.update(1.0, 0)
        rs.update(2.0, 1)
        assert rs.bsf == np.inf
        rs.update(3.0, 2)
        assert rs.bsf == 3.0

    def test_update_replaces_worst(self):
        rs = ResultSet(2)
        rs.update(5.0, 0)
        rs.update(4.0, 1)
        assert rs.update(3.0, 2)
        distances, positions = rs.items()
        np.testing.assert_allclose(distances, [3.0, 4.0])
        assert list(positions) == [2, 1]

    def test_rejects_worse_than_bsf(self):
        rs = ResultSet(1)
        rs.update(1.0, 0)
        assert not rs.update(2.0, 1)
        assert not rs.update(1.0, 2)  # ties do not displace

    def test_update_batch_matches_serial_updates(self):
        rng = np.random.default_rng(95)
        distances = rng.uniform(0, 10, size=200)
        positions = np.arange(200)
        serial = ResultSet(10)
        for d, p in zip(distances, positions):
            serial.update(float(d), int(p))
        batched = ResultSet(10)
        batched.update_batch_squared(np.square(distances), positions)
        np.testing.assert_allclose(serial.items()[0], batched.items()[0])

    def test_items_sorted_ascending(self):
        rs = ResultSet(5)
        for d in (3.0, 1.0, 4.0, 1.5, 9.0, 2.6):
            rs.update(d, int(d * 10))
        distances, _ = rs.items()
        assert list(distances) == sorted(distances)
        assert len(rs) == 5

    def test_concurrent_updates_keep_global_top_k(self):
        rng = np.random.default_rng(96)
        all_distances = rng.uniform(0, 100, size=4000)
        chunks = np.array_split(np.arange(4000), 8)
        rs = ResultSet(25)

        def worker(idx):
            for i in idx:
                rs.update(float(all_distances[i]), int(i))

        threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = np.sort(all_distances)[:25]
        np.testing.assert_allclose(rs.items()[0], expected)

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            ResultSet(0)


class TestSquaredInterface:
    def test_bsf_squared_is_square_of_bsf(self):
        rs = ResultSet(2)
        rs.update(3.0, 0)
        rs.update(4.0, 1)
        assert rs.bsf_squared == 16.0
        assert rs.bsf == 4.0

    def test_update_squared_matches_linear_update(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0, 10, size=100)
        linear = ResultSet(7)
        squared = ResultSet(7)
        for i, v in enumerate(values):
            linear.update(float(v), i)
            squared.update_squared(float(v) * float(v), i)
        np.testing.assert_array_equal(linear.items()[0], squared.items()[0])
        np.testing.assert_array_equal(linear.items()[1], squared.items()[1])

    def test_update_batch_squared_drops_infinite_rows(self):
        # Abandoned candidates arrive as inf; they must never enter.
        rs = ResultSet(3)
        rs.update_batch_squared(
            np.array([np.inf, 4.0, np.inf, 1.0, 9.0]),
            np.arange(5),
        )
        distances, positions = rs.items()
        np.testing.assert_allclose(distances, [1.0, 2.0, 3.0])
        assert list(positions) == [3, 1, 4]

    def test_update_batch_squared_rejects_shape_mismatch(self):
        rs = ResultSet(2)
        with pytest.raises(ValueError):
            rs.update_batch_squared(np.zeros(3), np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            rs.update_batch_squared(np.zeros((2, 2)), np.zeros(4, dtype=np.int64))

    def test_duplicate_positions_survive_prefilter(self):
        # The vectorized pre-filter must not defeat the member guard:
        # the same position offered many times (as happens when racing
        # workers scan one leaf twice) occupies a single slot.
        rs = ResultSet(4)
        distances = np.array([5.0, 5.0, 5.0, 2.0, 2.0, 7.0])
        positions = np.array([9, 9, 9, 9, 9, 11], dtype=np.int64)
        rs.update_batch_squared(distances, positions)
        got_d, got_p = rs.items()
        assert list(got_p) == [9, 11]
        np.testing.assert_allclose(got_d, [np.sqrt(2.0), np.sqrt(7.0)])

    def test_duplicate_positions_across_batches(self):
        # A position already in the set is never re-entered (seed
        # semantics): one slot per series, first admission wins.
        rs = ResultSet(2)
        rs.update_batch_squared(np.array([4.0]), np.array([3], dtype=np.int64))
        rs.update_batch_squared(
            np.array([1.0, 4.0]), np.array([3, 3], dtype=np.int64)
        )
        got_d, got_p = rs.items()
        assert list(got_p) == [3]
        np.testing.assert_allclose(got_d, [2.0])


class TestConcurrentBatches:
    def test_eight_thread_hammer_matches_single_threaded(self):
        rng = np.random.default_rng(97)
        total = 16_000
        # Duplicate positions across threads stress the member guard; as
        # in the real pipeline, a position's distance is a function of
        # the position (same series, same query), so the final top-k is
        # order-independent.
        positions = rng.integers(0, total // 2, size=total).astype(np.int64)
        per_position = rng.uniform(0.0, 100.0, size=total // 2)
        all_squared = per_position[positions]

        reference = ResultSet(25)
        for start in range(0, total, 64):
            reference.update_batch_squared(
                all_squared[start : start + 64], positions[start : start + 64]
            )

        hammered = ResultSet(25)
        chunks = np.array_split(np.arange(total), 8)
        barrier = threading.Barrier(8)

        def worker(idx):
            barrier.wait()
            for start in range(0, idx.shape[0], 64):
                sel = idx[start : start + 64]
                hammered.update_batch_squared(all_squared[sel], positions[sel])

        threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        np.testing.assert_array_equal(
            reference.items()[0], hammered.items()[0]
        )
        np.testing.assert_array_equal(
            reference.items()[1], hammered.items()[1]
        )
