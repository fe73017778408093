"""Fuzz tests: the HTree loader must reject garbage, never crash oddly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.htree import MAGIC, load_tree, save_tree


@settings(max_examples=60, deadline=None)
@given(blob=st.binary(min_size=0, max_size=400))
def test_random_bytes_never_crash(tmp_path_factory, blob):
    """Arbitrary bytes: StorageError or nothing, never another exception."""
    path = tmp_path_factory.mktemp("fuzz") / "t.bin"
    path.write_bytes(blob)
    try:
        load_tree(path)
    except StorageError:
        pass  # the only acceptable failure mode


@settings(max_examples=40, deadline=None)
@given(
    cut=st.integers(1, 200),
    flip_at=st.integers(0, 199),
    flip_to=st.integers(0, 255),
)
def test_mutated_valid_tree_never_crashes(tmp_path_factory, cut, flip_at, flip_to):
    """Truncations and byte flips of a real file: StorageError or a loaded
    (possibly semantically different) tree — never an uncontrolled error."""
    from repro.core.node import Node
    from repro.summarization.eapca import Segmentation

    tmp = tmp_path_factory.mktemp("fuzz2")
    leaf = Node(0, Segmentation([4, 8]))
    leaf.size = 3
    leaf.file_position = 0
    save_tree(tmp / "ok.bin", leaf, {"n": 3})
    blob = bytearray((tmp / "ok.bin").read_bytes())

    mutated = bytearray(blob[: max(len(blob) - cut, 12)])
    if flip_at < len(mutated):
        mutated[flip_at] = flip_to
    (tmp / "bad.bin").write_bytes(bytes(mutated))
    try:
        load_tree(tmp / "bad.bin")
    except StorageError:
        pass


# ---------------------------------------------------------------------------
# Byte-level corruption sweep over the data artifacts (not just htree.bin):
# verify="full" must catch every flip via the manifest checksums, and every
# level must catch a truncation via the manifest sizes.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def built_index(tmp_path_factory):
    from repro.core import HerculesConfig, HerculesIndex

    from ..conftest import make_random_walks

    directory = tmp_path_factory.mktemp("corrupt") / "index"
    data = make_random_walks(60, 16, seed=13)
    config = HerculesConfig(
        leaf_capacity=12
    )
    HerculesIndex.build(data, config, directory=directory).close()
    return directory


@settings(max_examples=25, deadline=None)
@given(
    artifact=st.sampled_from(["lrd.bin", "lsd.bin"]),
    offset=st.integers(0, 10_000),
    flip=st.integers(1, 255),
)
def test_data_artifact_flip_sweep(built_index, tmp_path_factory, artifact, offset, flip):
    """A flipped byte anywhere in LRD/LSD raises ChecksumError at full
    verification, while quick verification (sizes only) still opens the
    directory, and the tree still parses."""
    import shutil

    from repro.core import HerculesIndex
    from repro.errors import ChecksumError

    copy = tmp_path_factory.mktemp("flip") / "index"
    shutil.copytree(built_index, copy)
    path = copy / artifact
    blob = bytearray(path.read_bytes())
    blob[offset % len(blob)] ^= flip
    path.write_bytes(bytes(blob))

    with pytest.raises(ChecksumError):
        HerculesIndex.open(copy, verify="full")
    HerculesIndex.open(copy, verify="quick").close()
    load_tree(copy / "htree.bin")


@settings(max_examples=15, deadline=None)
@given(artifact=st.sampled_from(["lrd.bin", "lsd.bin"]), cut=st.integers(1, 500))
def test_data_artifact_truncation_sweep(built_index, tmp_path_factory, artifact, cut):
    """Truncation is caught at every verification level via the manifest
    size, and never reaches the tree parser."""
    import shutil

    from repro.core import HerculesIndex
    from repro.errors import ChecksumError

    copy = tmp_path_factory.mktemp("cut") / "index"
    shutil.copytree(built_index, copy)
    path = copy / artifact
    blob = path.read_bytes()
    path.write_bytes(blob[: max(len(blob) - cut, 1)])

    for level in ("quick", "full"):
        with pytest.raises(ChecksumError):
            HerculesIndex.open(copy, verify=level)
    load_tree(copy / "htree.bin")


def test_valid_magic_with_huge_settings_length(tmp_path):
    """A header claiming more settings bytes than exist must not hang."""
    import struct

    path = tmp_path / "t.bin"
    path.write_bytes(struct.pack("<8sII", MAGIC, 1, 10_000_000) + b"{}")
    with pytest.raises(StorageError):
        load_tree(path)


@settings(max_examples=60, deadline=None)
@given(
    offset=st.integers(0, 10_000),
    flip=st.integers(1, 255),
    cut=st.sampled_from([0, 0, 0, 1, 9, 40]),
)
def test_mutated_htree_opens_or_raises_storage_error(
    built_index, tmp_path_factory, offset, flip, cut
):
    """What an open reads of htree.bin goes through the record walk and
    the flat table: a flipped byte (same size, so the quick level's size
    check passes) or a truncation opens, or raises StorageError — never
    anything else."""
    import shutil

    from repro.core import HerculesIndex

    copy = tmp_path_factory.mktemp("tree-flip") / "index"
    shutil.copytree(built_index, copy)
    path = copy / "htree.bin"
    blob = bytearray(path.read_bytes())
    blob[offset % len(blob)] ^= flip
    path.write_bytes(bytes(blob[: len(blob) - cut]))
    try:
        index = HerculesIndex.open(copy, verify="quick")
    except StorageError:
        return
    index.close()
