"""Failure injection: errors must propagate, never corrupt.

These tests inject faults into the construction and writing phases and
assert that the error surfaces at the build call site, and that damaged
artifacts are rejected.
"""

from __future__ import annotations

import threading

import pytest

from repro import HerculesConfig, HerculesIndex
from repro.core import construction, writing
from repro.errors import StorageError
from repro.storage.dataset import Dataset
from repro.storage.files import SeriesFile

from ..conftest import make_random_walks


class TestConstructionFailures:
    def test_spill_error_propagates_from_sequential_build(
        self, tmp_path, monkeypatch
    ):
        data = make_random_walks(200, 32, seed=161)
        config = HerculesConfig(
            leaf_capacity=30,
            buffer_capacity=64,
            db_size=32,
        )
        spill = SeriesFile(tmp_path / "spill.bin", 32)

        def broken_append(batch):
            raise StorageError("injected spill failure")

        monkeypatch.setattr(spill, "append_batch", broken_append)
        with pytest.raises(StorageError, match="injected spill failure"):
            construction.build_tree(Dataset.from_array(data), config, spill)
        spill.close()


class TestWritingFailures:
    def test_process_leaf_error_propagates_and_releases_threads(
        self, tmp_path, monkeypatch
    ):
        """A leaf that fails post-processing mid-way through the write
        pass fails the build with that error, the pass stops there, and
        the build leaves no thread behind."""
        data = make_random_walks(400, 32, seed=162)
        calls = {"count": 0}
        original = writing.process_leaf

        def flaky(ctx, leaf, sax_space):
            calls["count"] += 1
            if calls["count"] == 3:
                raise RuntimeError("injected leaf failure")
            return original(ctx, leaf, sax_space)

        monkeypatch.setattr(writing, "process_leaf", flaky)
        config = HerculesConfig(leaf_capacity=40, db_size=128)
        threads_before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="injected leaf failure"):
            HerculesIndex.build(data, config, directory=tmp_path / "idx")
        assert calls["count"] == 3  # the pass stopped at the failing leaf
        assert set(threading.enumerate()) <= threads_before

    def test_sequential_writing_error_propagates(self, tmp_path, monkeypatch):
        data = make_random_walks(200, 32, seed=163)

        def broken(ctx, leaf, sax_space):
            raise RuntimeError("injected sequential failure")

        monkeypatch.setattr(writing, "process_leaf", broken)
        config = HerculesConfig(leaf_capacity=40)
        with pytest.raises(RuntimeError, match="injected sequential failure"):
            HerculesIndex.build(data, config, directory=tmp_path / "idx")


class TestCorruptArtifacts:
    @pytest.fixture
    def built(self, tmp_path):
        data = make_random_walks(300, 32, seed=164)
        config = HerculesConfig(
            leaf_capacity=50
        )
        index = HerculesIndex.build(data, config, directory=tmp_path / "idx")
        index.close()
        return tmp_path / "idx"

    def test_truncated_lrd_rejected(self, built):
        lrd = built / "lrd.bin"
        blob = lrd.read_bytes()
        lrd.write_bytes(blob[:-7])  # no longer record-aligned
        with pytest.raises(StorageError):
            HerculesIndex.open(built)

    def test_missing_lsd_rejected(self, built):
        (built / "lsd.bin").unlink()
        with pytest.raises(StorageError):
            HerculesIndex.open(built)

    def test_corrupt_htree_rejected(self, built):
        path = built / "htree.bin"
        blob = bytearray(path.read_bytes())
        blob[0:8] = b"GARBAGE!"
        path.write_bytes(bytes(blob))
        with pytest.raises(StorageError):
            HerculesIndex.open(built)

    def test_lost_series_detected_at_build(self, tmp_path, monkeypatch):
        """The facade cross-checks written counts against the dataset."""
        from repro.core import index as index_module

        data = make_random_walks(100, 32, seed=165)
        original = index_module.write_index

        def lossy(ctx, directory, sax_space, settings, stats=None):
            result = original(ctx, directory, sax_space, settings, stats)
            result.num_series -= 1  # simulate silent loss
            return result

        monkeypatch.setattr(index_module, "write_index", lossy)
        config = HerculesConfig(
            leaf_capacity=50
        )
        from repro.errors import IndexStateError

        with pytest.raises(IndexStateError, match="lost during construction"):
            HerculesIndex.build(data, config, directory=tmp_path / "idx")
