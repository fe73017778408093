"""Open-time verification of sharded directories: every failure names the shard."""

import numpy as np
import pytest

from repro.core import HerculesConfig, HerculesIndex, ShardedIndex
from repro.errors import (
    ChecksumError,
    ManifestError,
    ReproError,
    StorageError,
)
from repro.storage import manifest as manifest_mod

from ..conftest import make_random_walks


@pytest.fixture
def sharded_dir(tmp_path):
    data = make_random_walks(120, 32, seed=3)
    config = HerculesConfig(
        leaf_capacity=20,
        num_shards=3,
        shard_workers=1,
    )
    index = ShardedIndex.build(data, config, directory=tmp_path / "index")
    index.close()
    return tmp_path / "index", data


def _flip(path, offset=50):
    blob = bytearray(path.read_bytes())
    blob[offset % len(blob)] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestVerifyLevels:
    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_healthy_directory_opens(self, sharded_dir, level):
        directory, data = sharded_dir
        with ShardedIndex.open(directory, verify=level) as index:
            assert index.num_shards == 3
            answer = index.knn(data[7], k=1)
            np.testing.assert_allclose(answer.distances[0], 0.0, atol=1e-4)

    def test_unknown_level_rejected(self, sharded_dir):
        directory, _ = sharded_dir
        for level in ("paranoid", "off"):
            with pytest.raises(ValueError, match="verify"):
                ShardedIndex.open(directory, verify=level)


class TestDamageNamesTheShard:
    def test_corrupted_shard_manifest(self, sharded_dir):
        directory, _ = sharded_dir
        _flip(directory / "shard-0001" / manifest_mod.MANIFEST_FILENAME)
        with pytest.raises(ReproError, match="shard-0001"):
            ShardedIndex.open(directory, verify="quick")

    def test_missing_shard_directory(self, sharded_dir):
        directory, _ = sharded_dir
        import shutil

        shutil.rmtree(directory / "shard-0002")
        with pytest.raises(StorageError, match="shard-0002"):
            ShardedIndex.open(directory, verify="quick")

    def test_truncated_artifact_caught_at_quick(self, sharded_dir):
        directory, _ = sharded_dir
        lrd = directory / "shard-0000" / "lrd.bin"
        lrd.write_bytes(lrd.read_bytes()[:-8])
        with pytest.raises(ChecksumError, match="shard-0000") as excinfo:
            ShardedIndex.open(directory, verify="quick")
        assert "lrd.bin" in str(excinfo.value)

    def test_flipped_byte_caught_only_at_full(self, sharded_dir):
        directory, data = sharded_dir
        _flip(directory / "shard-0002" / "lsd.bin", offset=200)
        # Same size, wrong bytes: quick passes, full recomputes the CRC.
        index = ShardedIndex.open(directory, verify="quick")
        index.close()
        with pytest.raises(ChecksumError, match="shard-0002") as excinfo:
            ShardedIndex.open(directory, verify="full")
        assert "lsd.bin" in str(excinfo.value)

    def test_swapped_shard_is_a_mixed_generation(self, sharded_dir):
        directory, data = sharded_dir
        # Rebuild shard-0001 in place from different rows: its own
        # manifest is self-consistent, but the committed SHARDS.json
        # fingerprint no longer matches.
        rebuilt = HerculesIndex.build(
            make_random_walks(40, 32, seed=99),
            HerculesConfig(
                leaf_capacity=20
            ),
            directory=directory / "shard-0001",
        )
        rebuilt.close()
        with pytest.raises(ChecksumError, match="shard-0001") as excinfo:
            ShardedIndex.open(directory, verify="quick")
        assert "mixed generations" in str(excinfo.value)

    def test_corrupted_top_level_manifest(self, sharded_dir):
        directory, _ = sharded_dir
        (directory / manifest_mod.SHARDS_FILENAME).write_text("{not json")
        with pytest.raises(ManifestError):
            ShardedIndex.open(directory, verify="quick")

    def test_failure_closes_already_opened_shards(self, sharded_dir):
        directory, _ = sharded_dir
        # Damage the *last* shard so the first two open before the raise;
        # the open must not leak their file handles.
        _flip(directory / "shard-0002" / manifest_mod.MANIFEST_FILENAME)
        with pytest.raises(ReproError, match="shard-0002"):
            ShardedIndex.open(directory, verify="quick")
