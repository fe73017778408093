"""Open-time verification levels, legacy directories, and damage reporting."""

import logging

import numpy as np
import pytest

from repro.core import HerculesConfig, HerculesIndex
from repro.errors import ChecksumError, ManifestError, StorageError
from repro.storage import htree
from repro.storage import manifest as manifest_mod

from ..conftest import make_random_walks


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    data = make_random_walks(100, 32, seed=9)
    directory = tmp_path_factory.mktemp("verify") / "index"
    config = HerculesConfig(leaf_capacity=20, num_build_threads=1, flush_threshold=1)
    index = HerculesIndex.build(data, config, directory=directory)
    answer = index.knn(data[0], k=2)
    index.close()
    return directory, data, answer


def _flip(path, offset=50):
    blob = bytearray(path.read_bytes())
    blob[offset % len(blob)] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestVerifyLevels:
    def test_build_commits_a_manifest(self, built):
        directory, _, _ = built
        manifest = manifest_mod.load_manifest(directory)
        assert set(manifest.artifacts) == {"lrd.bin", "lsd.bin", "htree.bin"}
        assert manifest.num_series == 100

    def test_full_open_matches_build_answers(self, built):
        directory, data, ref = built
        with HerculesIndex.open(directory, verify="full") as index:
            answer = index.knn(data[0], k=2)
            np.testing.assert_allclose(answer.distances, ref.distances)

    def test_invalid_level_rejected(self, built):
        directory, _, _ = built
        with pytest.raises(ValueError):
            HerculesIndex.open(directory, verify="paranoid")

    def test_default_level_is_quick(self, built, tmp_path):
        import shutil

        directory, _, _ = built
        copy = tmp_path / "copy"
        shutil.copytree(directory, copy)
        _flip(copy / "lrd.bin")
        # quick (default) does not hash artifact bytes...
        HerculesIndex.open(copy).close()
        # ...full does.
        with pytest.raises(ChecksumError, match="lrd.bin"):
            HerculesIndex.open(copy, verify="full")


class TestLegacyDirectories:
    def test_manifestless_directory_opens_with_warning(
        self, built, tmp_path, caplog
    ):
        import shutil

        directory, data, ref = built
        legacy = tmp_path / "legacy"
        shutil.copytree(directory, legacy)
        (legacy / manifest_mod.MANIFEST_FILENAME).unlink()
        with caplog.at_level(logging.WARNING, logger="repro.core.index"):
            index = HerculesIndex.open(legacy)
        assert any("pre-manifest" in r.message for r in caplog.records)
        answer = index.knn(data[0], k=2)
        np.testing.assert_allclose(answer.distances, ref.distances)
        index.close()

    def test_legacy_full_open_still_checks_invariants(self, built, tmp_path):
        import shutil

        directory, _, _ = built
        legacy = tmp_path / "legacy-torn"
        shutil.copytree(directory, legacy)
        (legacy / manifest_mod.MANIFEST_FILENAME).unlink()
        # Drop the last LSD word: counts now disagree across artifacts.
        lsd = legacy / "lsd.bin"
        lsd.write_bytes(lsd.read_bytes()[:-16])
        with pytest.raises(StorageError, match="lsd.bin"):
            HerculesIndex.open(legacy, verify="full")
        # Phase 3 indexes the words by row, so no level lets this through.
        with pytest.raises(StorageError, match="lsd.bin"):
            HerculesIndex.open(legacy, verify="off")

    @pytest.mark.parametrize(
        "level,manifest",
        [("off", True), ("off", False), ("quick", False), ("full", False)],
    )
    def test_short_lsd_rejected(
        self, built, tmp_path, level, manifest
    ):
        """A short lsd.bin used to open at these levels and make phase 3
        slice a leaf's words short, silently dropping its last series
        from SCList."""
        import shutil

        directory, _, _ = built
        torn = tmp_path / "short-lsd"
        shutil.copytree(directory, torn)
        if not manifest:
            (torn / manifest_mod.MANIFEST_FILENAME).unlink()
        lsd = torn / "lsd.bin"
        lsd.write_bytes(lsd.read_bytes()[:-16])
        with pytest.raises(
            StorageError, match="lsd.bin holds 99 words.*mixed generations"
        ):
            HerculesIndex.open(torn, verify=level)


class TestDamageDetection:
    @pytest.mark.parametrize("artifact", ["lrd.bin", "lsd.bin", "htree.bin"])
    def test_single_flipped_byte_detected_at_full(
        self, built, tmp_path, artifact
    ):
        import shutil

        directory, _, _ = built
        copy = tmp_path / f"flip-{artifact}"
        shutil.copytree(directory, copy)
        _flip(copy / artifact)
        with pytest.raises(ChecksumError, match=artifact):
            HerculesIndex.open(copy, verify="full")

    def test_flipped_manifest_byte_detected(self, built, tmp_path):
        import shutil

        directory, _, _ = built
        copy = tmp_path / "flip-manifest"
        shutil.copytree(directory, copy)
        _flip(copy / manifest_mod.MANIFEST_FILENAME)
        with pytest.raises(ManifestError):
            HerculesIndex.open(copy)

    def test_truncation_detected_at_quick(self, built, tmp_path):
        import shutil

        directory, _, _ = built
        copy = tmp_path / "trunc"
        shutil.copytree(directory, copy)
        lrd = copy / "lrd.bin"
        lrd.write_bytes(lrd.read_bytes()[:-128])
        with pytest.raises(ChecksumError, match="lrd.bin"):
            HerculesIndex.open(copy)  # quick already catches size damage

    def test_missing_artifact_detected_at_quick(self, built, tmp_path):
        import shutil

        directory, _, _ = built
        copy = tmp_path / "missing"
        shutil.copytree(directory, copy)
        (copy / "lsd.bin").unlink()
        with pytest.raises(StorageError, match="lsd.bin"):
            HerculesIndex.open(copy)


@pytest.fixture(scope="module")
def built_by_older_release(tmp_path_factory):
    """A ``--prefilter`` directory as releases before the single SAX tier
    wrote it: a ``signatures.bin`` beside the three artifacts, listed in
    the manifest (its content is junk on purpose — nothing may parse
    it), and the since-retired ``prefilter_hamming`` and
    ``shard_poll_seconds`` knobs among the persisted settings.
    """
    data = make_random_walks(100, 32, seed=29)
    directory = tmp_path_factory.mktemp("verify-prefilter") / "index"
    config = HerculesConfig(
        leaf_capacity=20,
        num_build_threads=1,
        flush_threshold=1,
        l_max=2,
        prefilter=True,
        prefilter_bits=4,
    )
    index = HerculesIndex.build(data, config, directory=directory)
    answers = [index.knn(query, k=2) for query in data[:5]]
    index.close()
    (directory / "signatures.bin").write_bytes(b"HSIG" + bytes(800))
    root, settings = htree.load_tree(directory / "htree.bin")
    settings["config"]["prefilter_hamming"] = True
    settings["config"]["shard_poll_seconds"] = 1.0
    htree.save_tree(directory / "htree.bin", root, settings)
    manifest = manifest_mod.load_manifest(directory)
    for name in ("signatures.bin", "htree.bin"):
        manifest.artifacts[name] = manifest_mod.record_artifact(
            directory / name, format_version=1
        )
    manifest_mod.save_manifest(directory, manifest)
    return directory, data, config, answers


class TestPrefilterDirectories:
    """``signatures.bin`` is no longer written or read; a directory that
    still has one opens and answers as before, and the manifest that
    lists it keeps verifying it like any other file."""

    @pytest.mark.parametrize("level", ["off", "quick", "full"])
    def test_older_directory_still_answers(
        self, built_by_older_release, level
    ):
        directory, data, _, ref = built_by_older_release
        with HerculesIndex.open(directory, verify=level) as index:
            assert index.signatures.bits == 4
            for query, expected in zip(data[:5], ref):
                answer = index.knn(query, k=2)
                np.testing.assert_array_equal(
                    answer.distances, expected.distances
                )
                np.testing.assert_array_equal(
                    answer.positions, expected.positions
                )
        assert (directory / "signatures.bin").exists()

    def test_rebuild_drops_the_stale_file(
        self, built_by_older_release, tmp_path
    ):
        import shutil

        directory, data, config, _ = built_by_older_release
        copy = tmp_path / "rebuilt"
        shutil.copytree(directory, copy)
        HerculesIndex.build(data, config, directory=copy).close()
        assert not (copy / "signatures.bin").exists()
        assert set(manifest_mod.load_manifest(copy).artifacts) == {
            "lrd.bin",
            "lsd.bin",
            "htree.bin",
        }
        HerculesIndex.open(copy, verify="full").close()

    def test_flipped_signature_byte_detected_at_full(
        self, built_by_older_release, tmp_path
    ):
        import shutil

        directory = built_by_older_release[0]
        copy = tmp_path / "flip-signatures"
        shutil.copytree(directory, copy)
        _flip(copy / "signatures.bin")
        with pytest.raises(ChecksumError, match="signatures.bin"):
            HerculesIndex.open(copy, verify="full")

    def test_manifested_but_missing_signatures_is_loud(
        self, built_by_older_release, tmp_path
    ):
        import shutil

        directory = built_by_older_release[0]
        copy = tmp_path / "torn"
        shutil.copytree(directory, copy)
        (copy / "signatures.bin").unlink()
        # The manifest still lists the file: this is a torn or tampered
        # directory, whoever reads the file or not.
        with pytest.raises(StorageError, match="signatures.bin"):
            HerculesIndex.open(copy)
