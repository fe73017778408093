"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so downstream users can catch one base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value was supplied."""


class StorageError(ReproError):
    """An on-disk structure is missing, corrupt, or incompatible."""


class ManifestError(StorageError):
    """An index MANIFEST.json is missing a required entry, unparseable,
    or fails its own integrity checksum."""


class ChecksumError(StorageError):
    """An index artifact's bytes do not match the manifest (wrong size or
    CRC32): the file was torn, truncated, or silently corrupted."""


class IndexStateError(ReproError):
    """An operation was attempted in an invalid index lifecycle state.

    For example, querying an index that has not been written to disk yet,
    or inserting into an index that has already been finalized.
    """


class WorkloadError(ReproError):
    """A query workload or dataset could not be generated or loaded."""


class ShardError(ReproError):
    """A shard worker process failed or answered out of protocol.

    The message carries the worker-side traceback (or exit status) so
    failures in build/query worker processes surface in the coordinator
    with their original context.
    """


class ShardTimeoutError(ShardError):
    """A shard attempt, and then its re-send, exceeded the per-shard
    timeout."""


class WorkerSupervisionError(ShardError):
    """Worker supervision gave up: a shard's build worker died twice, a
    worker failed to start, or a build made no progress for the stall
    timeout."""
