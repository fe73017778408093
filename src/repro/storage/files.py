"""Counted binary files and fixed-record series files.

:class:`BinaryFile` is a byte-level file handle whose reads and writes are
recorded in an :class:`~repro.storage.iostats.IOStats`.  Reads that resume
exactly where the previous read on the same handle ended are counted as
sequential; anything else is a random seek.

:class:`SeriesFile` layers fixed-size float32 records on top — the format
of the paper's raw-data files (a headerless concatenation of series, as in
the original Hercules/DSTree tooling).  LRDFile, the spill file, and the
dataset input file are all SeriesFiles.  :class:`SymbolFile` is the same
idea for LSDFile's fixed-width uint8 iSAX words.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.errors import StorageError
from repro.storage import faults
from repro.storage.cache import LeafCache
from repro.storage.iostats import IOSnapshot, IOStats
from repro.types import SERIES_DTYPE, SYMBOL_DTYPE

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

#: Bounded retry of transient read errors: attempts and base backoff.
#: Exponential: 2ms, 4ms, 8ms — enough to absorb a flaky NFS/EIO blip
#: without turning a genuinely dead disk into a hang.
READ_RETRIES = 4
_RETRY_BACKOFF_SECONDS = 0.002


def adjacent_runs(values: np.ndarray, step=1) -> tuple[np.ndarray, np.ndarray]:
    """Index bounds ``(starts, ends)`` of the maximal runs of ``values``
    in which every element is its predecessor plus ``step``.

    Run ``i`` is ``values[starts[i]:ends[i]]``.  With the default step the
    runs of a sorted position list are the stretches one contiguous read
    covers; ``step=0`` gives the runs of equal values; an array (one step
    per element but the last) takes extent sizes and gives the runs of
    file-adjacent extents.
    """
    breaks = np.empty(len(values) + 1, dtype=bool)
    breaks[0] = breaks[-1] = True
    np.not_equal(values[1:], values[:-1] + step, out=breaks[1:-1])
    edges = breaks.nonzero()[0]
    return edges[:-1], edges[1:]


class BinaryFile:
    """A byte-addressed file with I/O accounting.

    The handle is opened lazily in ``r+b`` (created when missing unless
    ``read_only``) and is safe for concurrent use: a lock serializes the
    positional reads and the seek+write pairs, which also keeps the
    sequential/random classification coherent.
    """

    def __init__(
        self,
        path: PathLike,
        stats: Optional[IOStats] = None,
        read_only: bool = False,
        injector: Optional[faults.FaultInjector] = None,
    ) -> None:
        self.path = Path(path)
        self.stats = stats if stats is not None else IOStats()
        self.read_only = read_only
        self._injector = injector
        self._lock = threading.Lock()
        self._next_offset = 0  # where a sequential read would continue
        if read_only:
            if not self.path.exists():
                raise StorageError(f"file not found: {self.path}")
            self._handle = open(self.path, "rb")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            mode = "r+b" if self.path.exists() else "w+b"
            self._handle = open(self.path, mode)
        # Tracked explicitly: appends through the buffered handle are not
        # visible to fstat until flushed.
        self._size = os.fstat(self._handle.fileno()).st_size

    @property
    def size(self) -> int:
        return self._size

    def _active_injector(self) -> Optional[faults.FaultInjector]:
        return self._injector if self._injector is not None else faults.active_injector()

    def read(self, offset: int, nbytes: int, into=None) -> Optional[bytes]:
        """Read ``nbytes`` starting at ``offset``, recording the access:
        as a new ``bytes`` object, or into the writable contiguous buffer
        ``into`` (of exactly ``nbytes``) when given, returning None.  The
        one-run case of :meth:`readv`.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError(f"invalid read range ({offset}, {nbytes})")
        return self.readv([offset], [nbytes], into)

    def readv(self, offsets: list, sizes: list, into=None) -> Optional[bytes]:
        """Read the byte runs ``[offsets[i], offsets[i] + sizes[i])``, packed
        in order into the writable contiguous buffer ``into`` — or, for one
        run without ``into``, as a new ``bytes``.

        One lock acquisition for all runs; per run, one positional read,
        the injector hook, the sequential/random classification and up to
        :data:`READ_RETRIES` attempts on a transient :class:`OSError`
        (flaky NFS, an injected ``TransientFault``), backing off with the
        lock released.  Crash faults, persistent errors and short reads
        propagate; the runs done by then are recorded in :attr:`stats`, in
        one update as on success.
        """
        view = None if into is None else memoryview(into)
        if view is not None and view.nbytes:  # an empty view cannot be cast
            view = view.cast("B")
        fd = self._handle.fileno()
        done = filled = sequential = attempt = 0
        data = None
        try:
            while done < len(offsets):
                injector = self._active_injector()
                try:
                    with self._lock:
                        if not self.read_only:
                            # Appends may still sit in the write buffer.
                            self._handle.flush()
                        for offset, size in zip(offsets[done:], sizes[done:]):
                            if injector is not None:
                                injector.on_read(self.path)
                            if view is None:
                                data = os.pread(fd, size, offset)
                                got = len(data)
                            else:
                                got = os.preadv(fd, [view[filled : filled + size]], offset)
                            if got != size:
                                self._next_offset = offset + got
                                raise StorageError(
                                    f"short read from {self.path}: wanted {size} "
                                    f"bytes at {offset}, got {got}"
                                )
                            sequential += offset == self._next_offset
                            self._next_offset = offset + size
                            filled += size
                            done += 1
                            attempt = 0
                except faults.CrashFault:
                    raise
                except OSError as exc:
                    if attempt == READ_RETRIES - 1:
                        raise
                    delay = _RETRY_BACKOFF_SECONDS * 2**attempt
                    logger.warning(
                        "transient read error on %s (attempt %d/%d), retrying "
                        "in %.0f ms: %s",
                        self.path, attempt + 1, READ_RETRIES, delay * 1e3, exc,
                    )
                    time.sleep(delay)
                    attempt += 1
        finally:
            if done:
                self.stats.record_reads(done, filled, sequential)
        return data

    def io_checkpoint(self) -> IOSnapshot:
        """A snapshot of :attr:`stats` that starts a new accounting span:
        the read cursor is forgotten, so the span's first read counts as
        a seek whatever an earlier span read last."""
        with self._lock:
            self._next_offset = -1
            return self.stats.snapshot()

    def append(self, data: bytes) -> int:
        """Append ``data``, returning the offset it was written at."""
        self._check_writable()
        injector = self._active_injector()
        fault: Optional[BaseException] = None
        if injector is not None:
            data, fault = injector.intercept_write(self.path, data)
        with self._lock:
            self._handle.seek(0, os.SEEK_END)
            offset = self._handle.tell()
            self._handle.write(data)
            self._size = offset + len(data)
            # The file cursor no longer matches any read position, so the
            # next read must be classified as a seek, not a continuation.
            self._next_offset = -1
        self.stats.record_write(len(data))
        if fault is not None:
            # A torn write persists its prefix — flush it through the
            # buffered handle so the damage is visible on disk, as after
            # a real mid-write crash.
            self._handle.flush()
            raise fault
        return offset

    def write_at(self, offset: int, data: bytes) -> None:
        """Write ``data`` at an absolute offset (used to patch headers)."""
        self._check_writable()
        injector = self._active_injector()
        fault: Optional[BaseException] = None
        if injector is not None:
            data, fault = injector.intercept_write(self.path, data)
        with self._lock:
            self._handle.seek(offset)
            self._handle.write(data)
            self._size = max(self._size, offset + len(data))
            self._next_offset = -1
        self.stats.record_write(len(data))
        if fault is not None:
            self._handle.flush()
            raise fault

    def flush(self) -> None:
        injector = self._active_injector()
        if injector is not None:
            injector.on_flush(self.path)
        self._handle.flush()

    def sync(self) -> None:
        """Flush and fsync: the contents are durable when this returns."""
        self.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()

    def _check_writable(self) -> None:
        if self.read_only:
            raise StorageError(f"{self.path} is read-only")

    def __enter__(self) -> "BinaryFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SeriesFile:
    """Fixed-record file of float32 data series.

    Records are addressed by *position* (series index), matching the
    paper's FilePosition vocabulary: a leaf's raw data is
    ``read_range(first_position, count)``.
    """

    def __init__(
        self,
        path: PathLike,
        series_length: int,
        stats: Optional[IOStats] = None,
        read_only: bool = False,
        cache: Optional[LeafCache] = None,
    ) -> None:
        if series_length <= 0:
            raise ValueError(f"series length must be positive, got {series_length}")
        self.series_length = series_length
        self.record_size = series_length * SERIES_DTYPE.itemsize
        self.cache = cache
        self._file = BinaryFile(path, stats=stats, read_only=read_only)
        if self._file.size % self.record_size != 0:
            raise StorageError(
                f"{self._file.path} size {self._file.size} is not a multiple "
                f"of the record size {self.record_size}"
            )

    @property
    def path(self) -> Path:
        return self._file.path

    @property
    def stats(self) -> IOStats:
        return self._file.stats

    @property
    def num_series(self) -> int:
        return self._file.size // self.record_size

    def io_checkpoint(self) -> IOSnapshot:
        """:meth:`BinaryFile.io_checkpoint` of the underlying file."""
        return self._file.io_checkpoint()

    def read_range(self, position, count, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Read ``count`` consecutive series starting at ``position`` — or,
        given 1-D integer arrays, the extents ``[position[i], position[i]
        + count[i])``, file-ordered, packed in that order.

        ``out``, a writable C-contiguous ``(rows, series_length)`` float32
        array, receives the rows and is returned in place of a new array:
        the file is read straight into it, so a caller that reuses one
        buffer allocates nothing per read.

        Extents are one :meth:`BinaryFile.readv` call, one read per run of
        file-adjacent extents — or, with a
        :class:`~repro.storage.cache.LeafCache` attached, one block per
        extent, keyed ``(position, count)``: only an extent's own block
        repeats across queries, a merged run never does.  Repeat reads of
        a block are served from memory: no file I/O is performed (and
        none is recorded in :attr:`stats`), which is what warm-workload
        IOStats assertions rely on; ``out`` then receives a copy of the
        cached block.
        """
        num_series = self.num_series
        extents = isinstance(position, np.ndarray)
        if extents:
            bad = np.flatnonzero((position < 0) | (count < 0) | (position + count > num_series))
            bad = (int(position[bad[0]]), int(count[bad[0]])) if len(bad) else None
        elif position < 0 or count < 0 or position + count > num_series:
            bad = (position, count)
        else:
            bad = None
        if bad is not None:
            raise StorageError(f"read_range{bad} outside {self.path} ({num_series} series)")
        shape = (int(count.sum()) if extents else count, self.series_length)
        if out is not None and not (
            out.shape == shape
            and out.dtype == SERIES_DTYPE
            and out.flags.c_contiguous
            and out.flags.writeable
        ):
            raise ValueError(
                f"out must be a writable C-contiguous {SERIES_DTYPE} array of "
                f"shape {shape}"
            )
        if extents:
            out = np.empty(shape, dtype=SERIES_DTYPE) if out is None else out
            if self.cache is not None:
                rows_before = (np.cumsum(count) - count).tolist()
                for start, size, row in zip(position.tolist(), count.tolist(), rows_before):
                    self.read_range(start, size, out=out[row : row + size])
            elif len(position):
                run_lo, run_hi = adjacent_runs(position, count[:-1])
                starts, ends = position[run_lo], (position + count)[run_hi - 1]
                self._file.readv(
                    (starts * self.record_size).tolist(),
                    ((ends - starts) * self.record_size).tolist(),
                    into=out,
                )
            return out
        offset, nbytes = position * self.record_size, count * self.record_size

        def load() -> np.ndarray:
            raw = self._file.read(offset, nbytes)
            return np.frombuffer(raw, dtype=SERIES_DTYPE).reshape(shape)

        cache = self.cache
        if cache is None:
            if out is None:
                return load()
            self._file.read(offset, nbytes, into=out)
            return out
        # Singleflight: concurrent misses of the same block run one disk
        # read; the other threads wait on it and take the hit.
        block = cache.get_or_load((position, count), load)
        if out is None:
            return block
        np.copyto(out, block)
        return out

    def read_series(self, position: int) -> np.ndarray:
        """Read one series (a single random access in the worst case)."""
        return self.read_range(position, 1)[0]

    def read_positions(self, positions: np.ndarray) -> np.ndarray:
        """Read series at sorted positions, coalescing consecutive runs.

        One ``read_range`` call over one-series extents, so the I/O
        accounting sees one read (one seek at most) per run of adjacent
        positions — what page-level reads of a real system would do.
        Positions must be strictly increasing (sorted, no duplicates), as
        a skip-sequential pass visits them; anything else raises
        :class:`ValueError`.
        """
        pos = np.asarray(positions, dtype=np.int64)
        if pos.ndim != 1:
            raise ValueError(f"positions must be 1-D, got ndim={pos.ndim}")
        if pos.shape[0] and (np.diff(pos) <= 0).any():
            raise ValueError(
                "positions must be strictly increasing (sorted, unique); "
                "got an unsorted or duplicated sequence"
            )
        return self.read_range(pos, np.ones_like(pos))

    def append_batch(self, data: np.ndarray) -> int:
        """Append a batch, returning the position of its first series."""
        arr = np.ascontiguousarray(data, dtype=SERIES_DTYPE)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.shape[1] != self.series_length:
            raise StorageError(
                f"appending series of length {arr.shape[1]} to a file of "
                f"length-{self.series_length} records"
            )
        offset = self._file.append(arr.tobytes())
        if self.cache is not None:
            # Coarse but safe: appended data never invalidates existing
            # records, yet a (position, count) block ending at the old EOF
            # could now be read with a larger count — drop everything
            # rather than reason about overlap.
            self.cache.clear()
        return offset // self.record_size

    def flush(self) -> None:
        self._file.flush()

    def sync(self) -> None:
        self._file.sync()

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "SeriesFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SymbolFile:
    """Fixed-record file of uint8 iSAX words (the LSDFile format).

    Word ``i`` summarizes the series at position ``i`` of the companion
    :class:`SeriesFile` — the paper stores LSDFile in LRDFile order so one
    position addresses both.
    """

    def __init__(
        self,
        path: PathLike,
        segments: int,
        stats: Optional[IOStats] = None,
        read_only: bool = False,
    ) -> None:
        if segments <= 0:
            raise ValueError(f"segments must be positive, got {segments}")
        self.segments = segments
        self.record_size = segments * SYMBOL_DTYPE.itemsize
        self._file = BinaryFile(path, stats=stats, read_only=read_only)
        if self._file.size % self.record_size != 0:
            raise StorageError(
                f"{self._file.path} size {self._file.size} is not a multiple "
                f"of the word size {self.record_size}"
            )

    @property
    def path(self) -> Path:
        return self._file.path

    @property
    def num_words(self) -> int:
        return self._file.size // self.record_size

    def append_batch(self, words: np.ndarray) -> int:
        arr = np.ascontiguousarray(words, dtype=SYMBOL_DTYPE)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.shape[1] != self.segments:
            raise StorageError(
                f"appending {arr.shape[1]}-segment words to a "
                f"{self.segments}-segment file"
            )
        offset = self._file.append(arr.tobytes())
        return offset // self.record_size

    def read_all(self) -> np.ndarray:
        """Load the whole file (pre-loaded in memory during querying)."""
        count = self.num_words
        raw = self._file.read(0, count * self.record_size)
        return np.frombuffer(raw, dtype=SYMBOL_DTYPE).reshape(count, self.segments)

    def flush(self) -> None:
        self._file.flush()

    def sync(self) -> None:
        self._file.sync()

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "SymbolFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
