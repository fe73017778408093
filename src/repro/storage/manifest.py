"""MANIFEST.json: the durable commit record of a materialized index.

The index-writing phase stages LRDFile, LSDFile, and HTree under temporary
names, fsyncs them, publishes each with an atomic rename, and finally
commits the generation by publishing ``MANIFEST.json`` the same way.  The
manifest names every artifact with its byte size, streamed CRC32, and
format version, plus build metadata (series/leaf counts, a digest of the
configuration) — enough for :meth:`HerculesIndex.open` to prove the
directory is a single, complete generation before serving queries from it.

The manifest protects itself too: the file embeds a ``manifest_crc32``
computed over the canonical JSON encoding of every other field, so a
single flipped byte anywhere in ``MANIFEST.json`` surfaces as a
:class:`~repro.errors.ManifestError` rather than a quietly different
configuration.

See ``docs/file-formats.md`` for the schema and the commit sequence.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from repro.errors import ChecksumError, ManifestError, StorageError

PathLike = Union[str, Path]

MANIFEST_FILENAME = "MANIFEST.json"
MANIFEST_VERSION = 1
#: Top-level manifest of a *sharded* index directory: lists the shard
#: sub-directories (each with its own MANIFEST.json) plus a generation
#: counter bumped by every rebuild into the same directory.
SHARDS_FILENAME = "SHARDS.json"
SHARDS_VERSION = 1
#: Raw-record artifacts have no header of their own; their format version
#: lives here.  HTree carries its version in its header and mirrors it.
LRD_FORMAT_VERSION = 1
LSD_FORMAT_VERSION = 1
NORMS_FORMAT_VERSION = 1

_CRC_CHUNK = 1 << 20
_STAGING_SUFFIX = ".tmp"


# ---------------------------------------------------------------------------
# Atomic publish primitives
# ---------------------------------------------------------------------------


def fsync_path(path: PathLike) -> None:
    """fsync a file (or directory) by path, making prior writes durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish(staged: PathLike, final: PathLike) -> None:
    """Atomically move a fully-written staged file to its final name.

    fsyncs the staged file, renames with :func:`os.replace` (atomic on
    POSIX), then fsyncs the parent directory so the rename itself is
    durable.  A crash at any point leaves either the old file or the new
    one — never a mix.
    """
    staged, final = Path(staged), Path(final)
    fsync_path(staged)
    os.replace(staged, final)
    fsync_path(final.parent)


def staging_path(final: PathLike) -> Path:
    """The temporary name an artifact is staged under before publish."""
    final = Path(final)
    return final.with_name(final.name + _STAGING_SUFFIX)


def clear_staging(directory: PathLike, names: list[str]) -> None:
    """Remove leftover staging files of a previous crashed build."""
    directory = Path(directory)
    for name in names:
        staging_path(directory / name).unlink(missing_ok=True)
    staging_path(directory / MANIFEST_FILENAME).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Checksums
# ---------------------------------------------------------------------------


def stream_crc32(path: PathLike, chunk_size: int = _CRC_CHUNK) -> int:
    """CRC32 of a file, streamed in chunks (artifacts can exceed memory)."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def config_digest(config: dict) -> str:
    """A short stable digest of a configuration dict (build provenance)."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Manifest model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArtifactRecord:
    """One artifact's identity: exact size, checksum, format version."""

    name: str
    size: int
    crc32: int
    format_version: int


@dataclass
class Manifest:
    """The committed state of one index generation."""

    num_series: int
    series_length: int
    num_leaves: int
    config_digest: str
    artifacts: dict[str, ArtifactRecord] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    def to_document(self) -> dict:
        return {
            "version": self.version,
            "num_series": self.num_series,
            "series_length": self.series_length,
            "num_leaves": self.num_leaves,
            "config_digest": self.config_digest,
            "artifacts": {
                name: {
                    "size": rec.size,
                    "crc32": rec.crc32,
                    "format_version": rec.format_version,
                }
                for name, rec in sorted(self.artifacts.items())
            },
        }

    @classmethod
    def from_document(cls, doc: dict) -> "Manifest":
        try:
            artifacts = {
                name: ArtifactRecord(
                    name=name,
                    size=int(rec["size"]),
                    crc32=int(rec["crc32"]),
                    format_version=int(rec["format_version"]),
                )
                for name, rec in doc["artifacts"].items()
            }
            return cls(
                num_series=int(doc["num_series"]),
                series_length=int(doc["series_length"]),
                num_leaves=int(doc["num_leaves"]),
                config_digest=str(doc["config_digest"]),
                artifacts=artifacts,
                version=int(doc["version"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ManifestError(f"manifest is missing or malformed: {exc}") from exc


def record_artifact(path: PathLike, format_version: int) -> ArtifactRecord:
    """Fingerprint a staged artifact file (size + streamed CRC32)."""
    path = Path(path)
    name = path.name
    if name.endswith(_STAGING_SUFFIX):
        name = name[: -len(_STAGING_SUFFIX)]
    return ArtifactRecord(
        name=name,
        size=path.stat().st_size,
        crc32=stream_crc32(path),
        format_version=format_version,
    )


# ---------------------------------------------------------------------------
# Load / save
# ---------------------------------------------------------------------------


def _canonical(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_manifest(directory: PathLike, manifest: Manifest) -> Path:
    """Atomically publish ``MANIFEST.json`` — the commit point of a build."""
    directory = Path(directory)
    doc = manifest.to_document()
    doc["manifest_crc32"] = zlib.crc32(_canonical(doc))
    final = directory / MANIFEST_FILENAME
    staged = staging_path(final)
    with open(staged, "wb") as handle:
        handle.write(json.dumps(doc, sort_keys=True, indent=2).encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())
    publish(staged, final)
    return final


def load_manifest(directory: PathLike) -> Manifest:
    """Load and integrity-check ``MANIFEST.json``.

    Raises :class:`ManifestError` if the file is absent, unparseable, or
    fails its embedded checksum.
    """
    path = Path(directory) / MANIFEST_FILENAME
    if not path.exists():
        raise ManifestError(f"no manifest at {path}")
    try:
        doc = json.loads(path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{path}: unparseable manifest: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    stored_crc = doc.pop("manifest_crc32", None)
    if stored_crc is None:
        raise ManifestError(f"{path}: manifest has no integrity checksum")
    actual_crc = zlib.crc32(_canonical(doc))
    if stored_crc != actual_crc:
        raise ManifestError(
            f"{path}: manifest integrity checksum mismatch "
            f"(stored {stored_crc}, computed {actual_crc})"
        )
    manifest = Manifest.from_document(doc)
    if manifest.version != MANIFEST_VERSION:
        raise ManifestError(
            f"{path}: manifest version {manifest.version} unsupported "
            f"(expected {MANIFEST_VERSION})"
        )
    return manifest


# ---------------------------------------------------------------------------
# Sharded-index top-level manifest (SHARDS.json)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardRecord:
    """One shard's identity inside a sharded index directory.

    ``row_base`` is the shard's offset in the global position space:
    global answer position = ``row_base`` + the shard-local LRDFile
    position.  ``manifest_crc32`` fingerprints the shard's own
    MANIFEST.json bytes, so the top-level manifest detects a shard that
    was rebuilt or swapped out from under the committed generation.
    """

    name: str
    row_base: int
    num_series: int
    num_leaves: int
    manifest_crc32: int


@dataclass
class ShardManifest:
    """The committed state of one sharded index generation."""

    num_shards: int
    num_series: int
    series_length: int
    generation: int
    config_digest: str
    shards: list = field(default_factory=list)
    version: int = SHARDS_VERSION

    def to_document(self) -> dict:
        return {
            "version": self.version,
            "generation": self.generation,
            "num_shards": self.num_shards,
            "num_series": self.num_series,
            "series_length": self.series_length,
            "config_digest": self.config_digest,
            "shards": [
                {
                    "name": rec.name,
                    "row_base": rec.row_base,
                    "num_series": rec.num_series,
                    "num_leaves": rec.num_leaves,
                    "manifest_crc32": rec.manifest_crc32,
                }
                for rec in self.shards
            ],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "ShardManifest":
        try:
            shards = [
                ShardRecord(
                    name=str(rec["name"]),
                    row_base=int(rec["row_base"]),
                    num_series=int(rec["num_series"]),
                    num_leaves=int(rec["num_leaves"]),
                    manifest_crc32=int(rec["manifest_crc32"]),
                )
                for rec in doc["shards"]
            ]
            return cls(
                num_shards=int(doc["num_shards"]),
                num_series=int(doc["num_series"]),
                series_length=int(doc["series_length"]),
                generation=int(doc["generation"]),
                config_digest=str(doc["config_digest"]),
                shards=shards,
                version=int(doc["version"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ManifestError(
                f"shard manifest is missing or malformed: {exc}"
            ) from exc


def shard_dirname(shard_id: int) -> str:
    """The canonical sub-directory name of one shard (``shard-0000``)."""
    return f"shard-{shard_id:04d}"


def save_shard_manifest(directory: PathLike, manifest: ShardManifest) -> Path:
    """Atomically publish ``SHARDS.json`` — the sharded commit point.

    Every shard sub-directory has already committed its own generation
    (per-shard MANIFEST.json published last by :func:`~repro.core.
    writing.write_index`); publishing the top-level manifest afterwards
    makes the set of shards itself crash-safe: a crash mid-build leaves
    either the previous SHARDS.json (old generation, old shard set) or
    none, never a half-listed shard set.
    """
    directory = Path(directory)
    doc = manifest.to_document()
    doc["manifest_crc32"] = zlib.crc32(_canonical(doc))
    final = directory / SHARDS_FILENAME
    staged = staging_path(final)
    with open(staged, "wb") as handle:
        handle.write(json.dumps(doc, sort_keys=True, indent=2).encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())
    publish(staged, final)
    return final


def load_shard_manifest(directory: PathLike) -> ShardManifest:
    """Load and integrity-check ``SHARDS.json``."""
    path = Path(directory) / SHARDS_FILENAME
    if not path.exists():
        raise ManifestError(f"no shard manifest at {path}")
    try:
        doc = json.loads(path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{path}: unparseable shard manifest: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: shard manifest must be a JSON object")
    stored_crc = doc.pop("manifest_crc32", None)
    if stored_crc is None:
        raise ManifestError(f"{path}: shard manifest has no integrity checksum")
    actual_crc = zlib.crc32(_canonical(doc))
    if stored_crc != actual_crc:
        raise ManifestError(
            f"{path}: shard manifest integrity checksum mismatch "
            f"(stored {stored_crc}, computed {actual_crc})"
        )
    manifest = ShardManifest.from_document(doc)
    if manifest.version != SHARDS_VERSION:
        raise ManifestError(
            f"{path}: shard manifest version {manifest.version} unsupported "
            f"(expected {SHARDS_VERSION})"
        )
    if len(manifest.shards) != manifest.num_shards:
        raise ManifestError(
            f"{path}: shard manifest lists {len(manifest.shards)} shards "
            f"but records num_shards={manifest.num_shards}"
        )
    return manifest


def next_generation(directory: PathLike) -> int:
    """The generation number a rebuild into ``directory`` should commit.

    1 for a fresh directory; previous + 1 when a readable SHARDS.json is
    already present (an unreadable one restarts at 1 — the damaged
    generation was never servable anyway).
    """
    try:
        return load_shard_manifest(directory).generation + 1
    except ManifestError:
        return 1


def is_sharded_directory(directory: PathLike) -> bool:
    """True when ``directory`` holds a sharded (SHARDS.json) index."""
    return (Path(directory) / SHARDS_FILENAME).exists()


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

VERIFY_LEVELS = ("quick", "full")


def check_artifact(
    directory: PathLike,
    record: ArtifactRecord,
    level: str = "quick",
    expected_version: int | None = None,
) -> None:
    """Validate one artifact against its manifest record.

    ``quick`` checks presence, byte size, and format version; ``full``
    additionally re-reads the file to recompute its CRC32.  Failures name
    the damaged artifact.
    """
    path = Path(directory) / record.name
    if not path.exists():
        raise StorageError(f"artifact {record.name} is missing from {directory}")
    if expected_version is not None and record.format_version != expected_version:
        raise StorageError(
            f"artifact {record.name}: format version {record.format_version} "
            f"unsupported (expected {expected_version})"
        )
    size = path.stat().st_size
    if size != record.size:
        raise ChecksumError(
            f"artifact {record.name}: size {size} != manifest size "
            f"{record.size} (truncated or torn write)"
        )
    if level == "full":
        crc = stream_crc32(path)
        if crc != record.crc32:
            raise ChecksumError(
                f"artifact {record.name}: CRC32 {crc:#010x} != manifest "
                f"CRC32 {record.crc32:#010x} (corrupted bytes)"
            )


def verify_directory(
    directory: PathLike,
    manifest: Manifest,
    level: str = "quick",
    expected_versions: dict[str, int] | None = None,
) -> None:
    """Run :func:`check_artifact` over every artifact in the manifest."""
    expected_versions = expected_versions or {}
    for name, record in sorted(manifest.artifacts.items()):
        check_artifact(
            directory, record, level=level,
            expected_version=expected_versions.get(name),
        )


def verify_shard_record(directory: PathLike, record: ShardRecord) -> Manifest:
    """Validate one shard sub-directory against its top-level record.

    Checks that the shard directory and its MANIFEST.json exist, that
    the sub-manifest's bytes still carry the CRC32 the top-level
    manifest committed (a mismatch means the shard was rebuilt or
    swapped after the generation was published — mixed generations),
    and that the series/leaf counts agree.  Returns the loaded shard
    manifest so callers can continue into per-artifact checks.  Raised
    errors name the shard.
    """
    shard_dir = Path(directory) / record.name
    if not shard_dir.is_dir():
        raise StorageError(
            f"shard {record.name}: directory missing from {directory}"
        )
    manifest_path = shard_dir / MANIFEST_FILENAME
    if not manifest_path.exists():
        raise ManifestError(f"shard {record.name}: no {MANIFEST_FILENAME}")
    crc = stream_crc32(manifest_path)
    if crc != record.manifest_crc32:
        raise ChecksumError(
            f"shard {record.name}: {MANIFEST_FILENAME} CRC32 {crc:#010x} != "
            f"committed {record.manifest_crc32:#010x} (mixed generations "
            "or corrupted shard manifest)"
        )
    try:
        manifest = load_manifest(shard_dir)
    except StorageError as exc:
        raise type(exc)(f"shard {record.name}: {exc}") from exc
    if manifest.num_series != record.num_series:
        raise ManifestError(
            f"shard {record.name}: holds {manifest.num_series} series but "
            f"the shard manifest records {record.num_series}"
        )
    if manifest.num_leaves != record.num_leaves:
        raise ManifestError(
            f"shard {record.name}: holds {manifest.num_leaves} leaves but "
            f"the shard manifest records {record.num_leaves}"
        )
    return manifest
