"""Unit tests for counted binary/series/symbol files."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.leaf_table import extent_rows
from repro.errors import StorageError
from repro.storage import faults
from repro.storage.cache import LeafCache
from repro.storage.files import READ_RETRIES, BinaryFile, SeriesFile, SymbolFile
from repro.storage.iostats import IOSnapshot, IOStats


class TestBinaryFile:
    def test_append_then_read_roundtrip(self, tmp_path):
        with BinaryFile(tmp_path / "blob.bin") as f:
            off1 = f.append(b"hello")
            off2 = f.append(b"world")
            assert off1 == 0 and off2 == 5
            assert f.read(0, 5) == b"hello"
            assert f.read(5, 5) == b"world"

    def test_sequential_vs_random_classification(self, tmp_path):
        stats = IOStats()
        with BinaryFile(tmp_path / "blob.bin", stats=stats) as f:
            f.append(b"0123456789")
            f.read(0, 4)   # first read after a write -> random (seek to 0)
            f.read(4, 4)   # continues -> sequential
            f.read(0, 2)   # rewind -> random
        snap = stats.snapshot()
        assert snap.read_calls == 3
        assert snap.sequential_reads == 1
        assert snap.random_seeks == 2
        assert snap.bytes_read == 10

    def test_short_read_raises(self, tmp_path):
        with BinaryFile(tmp_path / "blob.bin") as f:
            f.append(b"abc")
            with pytest.raises(StorageError):
                f.read(0, 10)

    def test_read_only_rejects_writes_and_missing_files(self, tmp_path):
        path = tmp_path / "ro.bin"
        with pytest.raises(StorageError):
            BinaryFile(path, read_only=True)
        path.write_bytes(b"data")
        with BinaryFile(path, read_only=True) as f:
            with pytest.raises(StorageError):
                f.append(b"x")

    def test_write_at_patches_in_place(self, tmp_path):
        with BinaryFile(tmp_path / "blob.bin") as f:
            f.append(b"xxxxx")
            f.write_at(1, b"abc")
            assert f.read(0, 5) == b"xabcx"

    def test_read_after_append_is_random(self, tmp_path):
        """Writes move the file offset, so the next read cannot be a
        sequential continuation — regression for the stale ``_next_offset``
        misclassification after ``append``."""
        stats = IOStats()
        with BinaryFile(tmp_path / "blob.bin", stats=stats) as f:
            f.append(b"0123456789")
            f.read(0, 4)      # offset 0 right after an append -> random
            f.read(4, 4)      # true continuation -> sequential
            f.append(b"ab")
            f.read(8, 2)      # would continue read@4, but the append moved
            #                   the cursor to EOF -> random
        snap = stats.snapshot()
        assert snap.read_calls == 3
        assert snap.random_seeks == 2
        assert snap.sequential_reads == 1

    def test_read_after_write_at_is_random(self, tmp_path):
        stats = IOStats()
        with BinaryFile(tmp_path / "blob.bin", stats=stats) as f:
            f.append(b"0123456789")
            f.read(0, 4)
            f.write_at(0, b"zz")
            f.read(4, 4)      # continuation of read@0, but write_at seeked
        snap = stats.snapshot()
        assert snap.random_seeks == 2
        assert snap.sequential_reads == 0

    def test_retry_backoff_sleeps_without_the_lock(self, tmp_path, monkeypatch):
        """Another thread may use the file while a read backs off, for a
        plain doubling delay: 2 ms, then 4 ms."""
        from repro.storage import files

        slept = []
        with BinaryFile(tmp_path / "blob.bin") as f:
            f.append(b"0123456789")
            monkeypatch.setattr(
                files.time, "sleep",
                lambda delay: slept.append((delay, f._lock.locked())),
            )
            plan = faults.FaultPlan(op="read", at=2, mode="transient", failures=2)
            with faults.inject(plan):
                assert f.readv([0, 6], [4, 4], into=bytearray(8)) is None
        assert slept == [(0.002, False), (0.004, False)]

    def test_sync_makes_bytes_visible_on_disk(self, tmp_path):
        path = tmp_path / "blob.bin"
        with BinaryFile(path) as f:
            f.append(b"durable")
            f.sync()
            assert path.read_bytes() == b"durable"


class TestSeriesFile:
    def test_append_batch_and_read_range(self, tmp_path):
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        with SeriesFile(tmp_path / "s.bin", series_length=4) as f:
            pos = f.append_batch(data)
            assert pos == 0
            assert f.num_series == 3
            np.testing.assert_array_equal(f.read_range(1, 2), data[1:])
            np.testing.assert_array_equal(f.read_series(0), data[0])

    def test_reads_back_appends_never_flushed(self, tmp_path):
        """The build's spill file is read back while its appends may still
        sit in the write buffer: a positional read must see them."""
        data = np.arange(40, dtype=np.float32).reshape(10, 4)
        with SeriesFile(tmp_path / "spill.bin", series_length=4) as f:
            f.append_batch(data[:6])
            np.testing.assert_array_equal(f.read_range(2, 3), data[2:5])
            f.append_batch(data[6:])
            got = f.read_range(np.array([1, 5, 9]), np.array([2, 3, 1]))
            np.testing.assert_array_equal(got, data[[1, 2, 5, 6, 7, 9]])
        assert (tmp_path / "spill.bin").read_bytes() == data.tobytes()

    def test_positions_accumulate_across_appends(self, tmp_path):
        with SeriesFile(tmp_path / "s.bin", series_length=2) as f:
            assert f.append_batch(np.zeros((2, 2), dtype=np.float32)) == 0
            assert f.append_batch(np.ones((3, 2), dtype=np.float32)) == 2
            assert f.num_series == 5

    def test_single_series_append(self, tmp_path):
        with SeriesFile(tmp_path / "s.bin", series_length=3) as f:
            f.append_batch(np.array([1.0, 2.0, 3.0], dtype=np.float32))
            np.testing.assert_array_equal(f.read_series(0), [1.0, 2.0, 3.0])

    def test_rejects_wrong_length(self, tmp_path):
        with SeriesFile(tmp_path / "s.bin", series_length=4) as f:
            with pytest.raises(StorageError):
                f.append_batch(np.zeros((1, 5), dtype=np.float32))

    def test_rejects_out_of_bounds_read(self, tmp_path):
        with SeriesFile(tmp_path / "s.bin", series_length=4) as f:
            f.append_batch(np.zeros((2, 4), dtype=np.float32))
            with pytest.raises(StorageError):
                f.read_range(1, 2)

    def test_rejects_misaligned_existing_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 10)  # not a multiple of 16
        with pytest.raises(StorageError):
            SeriesFile(path, series_length=4)

    def test_read_positions_rejects_unsorted(self, tmp_path):
        with SeriesFile(tmp_path / "s.bin", series_length=2) as f:
            f.append_batch(np.zeros((5, 2), dtype=np.float32))
            with pytest.raises(ValueError):
                f.read_positions(np.array([3, 1, 4]))

    def test_read_positions_rejects_duplicates(self, tmp_path):
        with SeriesFile(tmp_path / "s.bin", series_length=2) as f:
            f.append_batch(np.zeros((5, 2), dtype=np.float32))
            with pytest.raises(ValueError):
                f.read_positions(np.array([1, 2, 2, 3]))

    def test_read_positions_empty_is_fine(self, tmp_path):
        with SeriesFile(tmp_path / "s.bin", series_length=2) as f:
            f.append_batch(np.zeros((5, 2), dtype=np.float32))
            rows = f.read_positions(np.array([], dtype=np.int64))
            assert rows.shape == (0, 2)


class TestReadRangeOut:
    """``read_range(out=)``: the allocating read, minus the allocation."""

    ROWS, LENGTH = 64, 8

    @pytest.fixture
    def data(self):
        return np.arange(self.ROWS * self.LENGTH, dtype=np.float32).reshape(
            self.ROWS, self.LENGTH
        )

    def _file(self, tmp_path, data, **kwargs):
        path = tmp_path / "s.bin"
        data.tofile(path)
        return SeriesFile(path, series_length=self.LENGTH, read_only=True, **kwargs)

    def test_rows_equal_the_allocating_read(self, tmp_path, data):
        buffer = np.full((16, self.LENGTH), -1.0, dtype=np.float32)
        with self._file(tmp_path, data) as f:
            got = f.read_range(5, 7, out=buffer[2:9])
            assert got.base is buffer  # the caller's rows, not a new array
            np.testing.assert_array_equal(got, f.read_range(5, 7))
            np.testing.assert_array_equal(buffer[2:9], data[5:12])
            assert (buffer[:2] == -1.0).all() and (buffer[9:] == -1.0).all()
            assert f.read_range(3, 0, out=buffer[:0]).shape == (0, self.LENGTH)

    def test_iostats_identical_to_the_allocating_path(self, tmp_path, data):
        reads = [(0, 4), (4, 8), (30, 2), (32, 1), (0, 64), (10, 0)]
        snapshots = []
        for into in (False, True):
            stats = IOStats()
            with self._file(tmp_path, data, stats=stats) as f:
                for position, count in reads:
                    out = np.empty((count, self.LENGTH), np.float32) if into else None
                    f.read_range(position, count, out=out)
            snapshots.append(stats.snapshot())
        assert snapshots[0] == snapshots[1]
        assert snapshots[1].sequential_reads == 3 and snapshots[1].random_seeks == 3

    def test_short_read_raises(self, tmp_path, data):
        with self._file(tmp_path, data) as f:
            os.truncate(f.path, (self.ROWS - 2) * self.LENGTH * 4)
            out = np.empty((4, self.LENGTH), dtype=np.float32)
            with pytest.raises(StorageError, match="short read"):
                f.read_range(self.ROWS - 4, 4, out=out)

    def test_transient_fault_is_retried_and_crash_propagates(self, tmp_path, data):
        stats = IOStats()
        out = np.empty((3, self.LENGTH), dtype=np.float32)
        with self._file(tmp_path, data, stats=stats) as f:
            plan = faults.FaultPlan(op="read", at=1, mode="transient", failures=2)
            with faults.inject(plan) as injector:
                np.testing.assert_array_equal(f.read_range(7, 3, out=out), data[7:10])
            assert injector.counts["read"] == 3  # 2 failures + 1 success
            assert stats.snapshot().read_calls == 1  # only the success is recorded
            with faults.inject(faults.FaultPlan(op="read", at=1, mode="crash")) as injector:
                with pytest.raises(faults.CrashFault):
                    f.read_range(7, 3, out=out)
            assert injector.counts["read"] == 1  # one attempt, no retries

    def test_rejects_an_out_it_cannot_fill(self, tmp_path, data):
        read_only = np.empty((4, self.LENGTH), dtype=np.float32)
        read_only.flags.writeable = False
        bad = [
            np.empty((3, self.LENGTH), dtype=np.float32),  # wrong rows
            np.empty((4, self.LENGTH + 1), dtype=np.float32),  # wrong length
            np.empty((4, self.LENGTH), dtype=np.float64),  # wrong dtype
            np.empty((8, self.LENGTH), dtype=np.float32)[::2],  # not contiguous
            read_only,
        ]
        stats = IOStats()
        with self._file(tmp_path, data, stats=stats) as f:
            for out in bad:
                with pytest.raises(ValueError, match="out must be"):
                    f.read_range(0, 4, out=out)
        assert stats.snapshot().read_calls == 0

    def test_threads_with_their_own_buffers(self, tmp_path, data):
        errors = []

        def reader(worker, f):
            buffer = np.empty((8, self.LENGTH), dtype=np.float32)
            rng = np.random.default_rng(worker)
            try:
                for _ in range(300):
                    count = int(rng.integers(1, 9))
                    position = int(rng.integers(0, self.ROWS - count + 1))
                    rows = f.read_range(position, count, out=buffer[:count])
                    if not np.array_equal(rows, data[position : position + count]):
                        errors.append((worker, position, count))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        with self._file(tmp_path, data) as f:
            threads = [
                threading.Thread(target=reader, args=(worker, f)) for worker in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        assert not errors

    def test_cached_block_is_copied_out(self, tmp_path, data):
        stats = IOStats()
        out = np.empty((4, self.LENGTH), dtype=np.float32)
        with self._file(tmp_path, data, stats=stats, cache=LeafCache(1 << 16)) as f:
            f.read_range(8, 4)
            np.testing.assert_array_equal(f.read_range(8, 4, out=out), data[8:12])
            out[:] = 0.0  # the caller's rows are its own, not the cache's
            np.testing.assert_array_equal(f.read_range(8, 4), data[8:12])
        assert stats.snapshot().read_calls == 1


ROWS, LENGTH = 64, 8


@st.composite
def extent_lists(draw, min_size=0):
    """File-ordered, non-overlapping extents of a ``ROWS``-series file as
    ``(starts, sizes)``; a zero gap makes two extents file-adjacent."""
    pieces = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 5)), min_size=min_size, max_size=16)
    )
    starts, sizes, position = [], [], 0
    for gap, size in pieces:
        position += gap
        if position + size > ROWS:
            break
        starts.append(position)
        sizes.append(size)
        position += size
    if len(starts) < min_size:
        starts, sizes = [0], [1]
    return np.array(starts, dtype=np.int64), np.array(sizes, dtype=np.int64)


def read_runs_of(starts, sizes, cached):
    """``[start, count]`` of each read the per-extent loop makes: one per
    extent under a leaf cache, else one per run of file-adjacent extents."""
    runs = []
    for start, size in zip(starts.tolist(), sizes.tolist()):
        if not cached and runs and sum(runs[-1]) == start:
            runs[-1][1] += size
        else:
            runs.append([start, size])
    return runs


class TestReadRangeExtents:
    """``read_range`` over arrays of extents: one call, the I/O of the
    per-extent loop it replaces."""

    @pytest.fixture(scope="class")
    def data_path(self, tmp_path_factory):
        data = np.arange(ROWS * LENGTH, dtype=np.float32).reshape(ROWS, LENGTH)
        path = tmp_path_factory.mktemp("extents") / "s.bin"
        data.tofile(path)
        return data, path

    @staticmethod
    def _open(path, cached):
        cache = LeafCache(1 << 20) if cached else None
        return SeriesFile(path, LENGTH, stats=IOStats(), read_only=True, cache=cache)

    @settings(max_examples=60, deadline=None)
    @given(extents=extent_lists(), cached=st.booleans(), prelude=st.booleans())
    def test_matches_the_per_extent_loop(self, data_path, extents, cached, prelude):
        data, path = data_path
        starts, sizes = extents
        runs = read_runs_of(starts, sizes, cached)
        with self._open(path, cached) as got_file, self._open(path, cached) as want_file:
            for f in (got_file, want_file):
                if prelude and len(starts) and starts[0]:
                    f.read_range(int(starts[0]) - 1, 1)  # the first extent continues it
            for rerun in range(2 if cached else 1):  # a second pass hits the cache
                want = [want_file.read_range(start, count) for start, count in runs]
                want = np.concatenate(want) if want else np.empty((0, LENGTH), np.float32)
                with faults.inject([]) as injector:
                    got = got_file.read_range(starts, sizes)
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(got, data[extent_rows(starts, sizes)])
                assert got_file.stats.snapshot() == want_file.stats.snapshot()
                assert injector.counts["read"] == (0 if rerun else len(runs))
                if cached:
                    assert got_file.cache.snapshot() == want_file.cache.snapshot()
            if prelude and len(starts) and starts[0] and not cached:
                assert got_file.stats.snapshot().sequential_reads >= 1

    @settings(max_examples=30, deadline=None)
    @given(extents=extent_lists(min_size=1), data=st.data())
    def test_a_transient_fault_on_a_run_is_absorbed(self, data_path, extents, data):
        rows, path = data_path
        starts, sizes = extents
        runs = read_runs_of(starts, sizes, cached=False)
        run = data.draw(st.integers(0, len(runs) - 1))
        failures = data.draw(st.integers(1, READ_RETRIES - 1))
        plan = faults.FaultPlan(op="read", at=run + 1, mode="transient", failures=failures)
        with self._open(path, cached=False) as f:
            with faults.inject(plan) as injector:
                got = f.read_range(starts, sizes)
            np.testing.assert_array_equal(got, rows[extent_rows(starts, sizes)])
            assert injector.counts["read"] == len(runs) + failures
            snapshot = f.stats.snapshot()
        assert snapshot.read_calls == len(runs)  # only the successes
        assert snapshot.bytes_read == got.nbytes

    @settings(max_examples=30, deadline=None)
    @given(extents=extent_lists(min_size=1), data=st.data())
    def test_a_crash_on_a_run_propagates(self, data_path, extents, data):
        _, path = data_path
        starts, sizes = extents
        runs = read_runs_of(starts, sizes, cached=False)
        run = data.draw(st.integers(0, len(runs) - 1))
        with self._open(path, cached=False) as f:
            with faults.inject(faults.FaultPlan(op="read", at=run + 1)) as injector:
                with pytest.raises(faults.CrashFault):
                    f.read_range(starts, sizes)
            assert injector.counts["read"] == run + 1  # no retry, no later run
            snapshot = f.stats.snapshot()
        # The runs read before the crash are recorded, as separate calls were.
        assert snapshot.read_calls == run
        assert snapshot.bytes_read == sum(count for _, count in runs[:run]) * LENGTH * 4

    def test_an_out_of_range_extent_names_the_file(self, data_path):
        _, path = data_path
        with self._open(path, cached=False) as f:
            for starts, sizes in (([0, ROWS - 1], [2, 2]), ([-1, 4], [1, 1]), ([3], [-1])):
                with pytest.raises(StorageError, match=r"read_range.* outside .*s\.bin"):
                    f.read_range(np.array(starts), np.array(sizes))
            assert f.stats.snapshot() == IOSnapshot()

    def test_zero_extents(self, data_path):
        _, path = data_path
        empty = np.empty(0, dtype=np.int64)
        with self._open(path, cached=False) as f:
            with faults.inject([]) as injector:
                assert f.read_range(empty, empty).shape == (0, LENGTH)
                out = np.empty((0, LENGTH), dtype=np.float32)
                assert f.read_range(empty, empty, out=out) is out
            assert injector.counts["read"] == 0
            assert f.stats.snapshot() == IOSnapshot()


class TestSymbolFile:
    def test_roundtrip_and_read_all(self, tmp_path):
        words = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8)
        with SymbolFile(tmp_path / "w.bin", segments=3) as f:
            assert f.append_batch(words) == 0
            assert f.num_words == 2
            np.testing.assert_array_equal(f.read_all(), words)

    def test_rejects_wrong_width(self, tmp_path):
        with SymbolFile(tmp_path / "w.bin", segments=3) as f:
            with pytest.raises(StorageError):
                f.append_batch(np.zeros((1, 4), dtype=np.uint8))
