"""Open-time verification levels, legacy directories, and damage reporting."""

import numpy as np
import pytest

from repro.core import HerculesConfig, HerculesIndex, ShardedIndex
from repro.distance.euclidean import _row_norms
from repro.errors import ChecksumError, ManifestError, StorageError
from repro.storage import htree
from repro.storage import manifest as manifest_mod

from ..conftest import make_random_walks


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    data = make_random_walks(100, 32, seed=9)
    directory = tmp_path_factory.mktemp("verify") / "index"
    config = HerculesConfig(leaf_capacity=20)
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
        assert set(manifest.artifacts) == {"lrd.bin", "lsd.bin", "norms.bin", "htree.bin"}
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
    """Every directory this code writes has a manifest, so a directory
    without one is damage at every level, not an older layout."""

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_manifestless_directory_is_rejected(self, built, tmp_path, level):
        import shutil

        directory, _, _ = built
        legacy = tmp_path / "legacy"
        shutil.copytree(directory, legacy)
        (legacy / manifest_mod.MANIFEST_FILENAME).unlink()
        with pytest.raises(ManifestError, match="no manifest"):
            HerculesIndex.open(legacy, verify=level)

    def test_legacy_full_open_still_checks_invariants(self, built, tmp_path):
        import shutil

        directory, _, _ = built
        legacy = tmp_path / "legacy-torn"
        shutil.copytree(directory, legacy)
        (legacy / manifest_mod.MANIFEST_FILENAME).unlink()
        # Drop the last LSD word: counts now disagree across artifacts,
        # and with no manifest to vouch for them neither level opens.
        lsd = legacy / "lsd.bin"
        lsd.write_bytes(lsd.read_bytes()[:-16])
        for level in ("quick", "full"):
            with pytest.raises(ManifestError, match="no manifest"):
                HerculesIndex.open(legacy, verify=level)

    @pytest.mark.parametrize(
        "level,manifest", [("quick", True), ("quick", False), ("full", False)]
    )
    def test_short_lsd_rejected(
        self, built, tmp_path, level, manifest
    ):
        """A short lsd.bin would make phase 3 slice a leaf's words short,
        silently dropping its last series from SCList.  With the built
        manifest its size record catches it; with ``manifest=False`` the
        manifest is re-committed over the torn file, so the open's own
        row count must."""
        import shutil

        directory, _, _ = built
        torn = tmp_path / "short-lsd"
        shutil.copytree(directory, torn)
        lsd = torn / "lsd.bin"
        lsd.write_bytes(lsd.read_bytes()[:-16])
        if not manifest:
            committed = manifest_mod.load_manifest(torn)
            committed.artifacts["lsd.bin"] = manifest_mod.record_artifact(
                lsd, format_version=committed.artifacts["lsd.bin"].format_version
            )
            manifest_mod.save_manifest(torn, committed)
        message = "lsd.bin" if manifest else "lsd.bin holds 99 words.*mixed generations"
        with pytest.raises(StorageError, match=message):
            HerculesIndex.open(torn, verify=level)


class TestDamageDetection:
    @pytest.mark.parametrize("artifact", ["lrd.bin", "lsd.bin", "norms.bin", "htree.bin"])
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


def _stored_norms(directory):
    return np.fromfile(directory / "norms.bin", dtype=np.float32)


def _lrd_norms(directory, length=32):
    rows = np.fromfile(directory / "lrd.bin", dtype=np.float32).reshape(-1, length)
    return _row_norms(rows)


def _recommit(directory, name):
    """Re-commit the manifest over the current bytes of ``name``, so only
    the open's own checks can catch what was done to it."""
    manifest = manifest_mod.load_manifest(directory)
    manifest.artifacts[name] = manifest_mod.record_artifact(
        directory / name, format_version=manifest.artifacts[name].format_version
    )
    manifest_mod.save_manifest(directory, manifest)


class TestNormsColumn:
    """``norms.bin``: every series' float32 |x|², in LRDFile order, which
    the refinement kernel's screen reads instead of recomputing."""

    def test_column_is_row_norms_of_lrd(self, built):
        directory, _, _ = built
        stored, expected = _stored_norms(directory), _lrd_norms(directory)
        assert stored.shape == (100,)
        # Bit for bit, not approximately.
        np.testing.assert_array_equal(stored.view(np.uint32), expected.view(np.uint32))

    def test_each_shard_holds_its_own_column(self, tmp_path):
        data = make_random_walks(150, 32, seed=31)
        config = HerculesConfig(leaf_capacity=20, num_shards=3, shard_workers=1)
        directory = tmp_path / "sharded"
        ShardedIndex.build(data, config, directory=directory).close()
        shards = sorted(directory.glob("shard-*"))
        assert len(shards) == 3
        for shard in shards:
            assert "norms.bin" in manifest_mod.load_manifest(shard).artifacts
            np.testing.assert_array_equal(
                _stored_norms(shard).view(np.uint32), _lrd_norms(shard).view(np.uint32)
            )

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_manifested_but_missing_is_loud(self, built, tmp_path, level):
        import shutil

        directory, _, _ = built
        copy = tmp_path / "no-norms"
        shutil.copytree(directory, copy)
        (copy / "norms.bin").unlink()
        with pytest.raises(StorageError, match="norms.bin"):
            HerculesIndex.open(copy, verify=level)

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_short_column_rejected(self, built, tmp_path, level):
        """A short column would hand the kernel another row's norm; with
        the manifest re-committed over it, the open's row count is what
        rejects it."""
        import shutil

        directory, _, _ = built
        torn = tmp_path / "short-norms"
        shutil.copytree(directory, torn)
        norms = torn / "norms.bin"
        norms.write_bytes(norms.read_bytes()[:-4])
        with pytest.raises(ChecksumError, match="norms.bin"):
            HerculesIndex.open(torn, verify=level)
        _recommit(torn, "norms.bin")
        with pytest.raises(StorageError, match="norms.bin holds 99 norms.*mixed generations"):
            HerculesIndex.open(torn, verify=level)

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_directory_without_the_column_computes_it(self, built, tmp_path, level):
        """A directory from a release before the column: its manifest does
        not list ``norms.bin``.  It opens at both levels, computes the
        column from LRDFile at open — the values a build stores — and
        answers identically."""
        import shutil

        directory, data, expected = built
        older = tmp_path / "older"
        shutil.copytree(directory, older)
        (older / "norms.bin").unlink()
        manifest = manifest_mod.load_manifest(older)
        del manifest.artifacts["norms.bin"]
        manifest_mod.save_manifest(older, manifest)
        with HerculesIndex.open(older, verify=level) as index:
            np.testing.assert_array_equal(
                index._norms.view(np.uint32), _stored_norms(directory).view(np.uint32)
            )
            answer = index.knn(data[0], k=2)
        np.testing.assert_array_equal(answer.distances, expected.distances)
        np.testing.assert_array_equal(answer.positions, expected.positions)
        assert not (older / "norms.bin").exists()


@pytest.fixture(scope="module")
def built_by_older_release(tmp_path_factory):
    """A ``--prefilter`` directory as releases before the single SAX tier
    wrote it: a ``signatures.bin`` beside the three artifacts, listed in
    the manifest (its content is junk on purpose — nothing may parse
    it), and the since-retired ``prefilter``, ``prefilter_bits``,
    ``prefilter_hamming`` and ``shard_poll_seconds`` knobs among the
    persisted settings.
    """
    data = make_random_walks(100, 32, seed=29)
    directory = tmp_path_factory.mktemp("verify-prefilter") / "index"
    config = HerculesConfig(leaf_capacity=20, l_max=2)
    index = HerculesIndex.build(data, config, directory=directory)
    answers = [index.knn(query, k=2) for query in data[:5]]
    index.close()
    (directory / "signatures.bin").write_bytes(b"HSIG" + bytes(800))
    root, settings = htree.load_tree(directory / "htree.bin")
    settings["config"].update(prefilter=True, prefilter_bits=4)
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

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_older_directory_still_answers(
        self, built_by_older_release, level
    ):
        directory, data, _, ref = built_by_older_release
        with HerculesIndex.open(directory, verify=level) as index:
            # The retired ``prefilter_bits=4`` is ignored: the tier is
            # always at the words' full resolution.
            assert index.signatures.bits == 8
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
            "norms.bin",
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


class TestRetiredShardKnobs:
    """Retired knobs are no longer configuration: a failed shard task is
    re-sent once with no backoff, the worker join timeouts and the build
    stall watchdog are constants of the shard supervisor, and index
    writing is one sequential pass with no thread count or switch.  A
    directory whose persisted settings still carry them opens
    unchanged."""

    RETIRED = dict(
        shard_retry_backoff=0.2,
        shard_retry_jitter=0.25,
        build_join_timeout=5.0,
        query_join_timeout=5.0,
        num_write_threads=2,
        parallel_writing=True,
        num_build_threads=4,
        flush_threshold=2,
        claim_size=64,
        num_query_threads=2,
        prefilter=False,
        prefilter_bits=4,
        max_worker_restarts=5,
        shard_retry_attempts=4,
        query_deadline=3.0,
        build_stall_timeout=60.0,
    )

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_settings_with_retired_knobs_open(self, built, tmp_path, level):
        import shutil

        source, data, expected = built
        directory = tmp_path / "older"
        shutil.copytree(source, directory)
        root, settings = htree.load_tree(directory / "htree.bin")
        settings["config"].update(self.RETIRED)
        htree.save_tree(directory / "htree.bin", root, settings)
        manifest = manifest_mod.load_manifest(directory)
        manifest.artifacts["htree.bin"] = manifest_mod.record_artifact(
            directory / "htree.bin", format_version=htree.FORMAT_VERSION
        )
        manifest_mod.save_manifest(directory, manifest)
        with HerculesIndex.open(directory, verify=level) as index:
            assert index.config == HerculesConfig(
                leaf_capacity=20
            )
            for name in self.RETIRED:
                assert not hasattr(index.config, name)
            answer = index.knn(data[0], k=2)
        np.testing.assert_array_equal(answer.distances, expected.distances)
        np.testing.assert_array_equal(answer.positions, expected.positions)
