"""I/O accounting.

The paper's query-time story is driven by how many *random* I/O operations
each method issues and how much data it touches (Figures 10 and 11 report
the percentage of accessed data next to every timing).  Because this
reproduction runs at laptop scale, wall-clock alone would under-represent
disk effects; every file in :mod:`repro.storage` therefore routes its reads
and writes through an :class:`IOStats` instance so harnesses can report
hardware-independent cost metrics.

A read is *sequential* when it starts exactly where the previous read on
the same file ended, and a *random seek* otherwise — the same accounting a
rotating-disk cost model would use.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class IOSnapshot:
    """An immutable copy of the counters at one point in time."""

    read_calls: int = 0
    write_calls: int = 0
    random_seeks: int = 0
    sequential_reads: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            read_calls=self.read_calls - other.read_calls,
            write_calls=self.write_calls - other.write_calls,
            random_seeks=self.random_seeks - other.random_seeks,
            sequential_reads=self.sequential_reads - other.sequential_reads,
            bytes_read=self.bytes_read - other.bytes_read,
            bytes_written=self.bytes_written - other.bytes_written,
        )

    def __add__(self, other: "IOSnapshot") -> "IOSnapshot":
        """Combine counters from independent sources (e.g. index shards)."""
        return IOSnapshot(
            read_calls=self.read_calls + other.read_calls,
            write_calls=self.write_calls + other.write_calls,
            random_seeks=self.random_seeks + other.random_seeks,
            sequential_reads=self.sequential_reads + other.sequential_reads,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
        )


class IOStats:
    """Thread-safe I/O counters shared by every file of one index/method."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._read_calls = 0
        self._write_calls = 0
        self._random_seeks = 0
        self._sequential_reads = 0
        self._bytes_read = 0
        self._bytes_written = 0

    def record_read(self, nbytes: int, sequential: bool) -> None:
        self.record_reads(1, nbytes, int(sequential))

    def record_reads(self, calls: int, nbytes: int, sequential: int) -> None:
        """Record ``calls`` reads of ``nbytes`` in all, ``sequential`` of them sequential."""
        with self._lock:
            self._read_calls += calls
            self._bytes_read += nbytes
            self._sequential_reads += sequential
            self._random_seeks += calls - sequential

    def record_write(self, nbytes: int) -> None:
        with self._lock:
            self._write_calls += 1
            self._bytes_written += nbytes

    def snapshot(self) -> IOSnapshot:
        with self._lock:
            return IOSnapshot(
                read_calls=self._read_calls,
                write_calls=self._write_calls,
                random_seeks=self._random_seeks,
                sequential_reads=self._sequential_reads,
                bytes_read=self._bytes_read,
                bytes_written=self._bytes_written,
            )

    def reset(self) -> None:
        with self._lock:
            self._read_calls = 0
            self._write_calls = 0
            self._random_seeks = 0
            self._sequential_reads = 0
            self._bytes_read = 0
            self._bytes_written = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snap = self.snapshot()
        return (
            f"IOStats(reads={snap.read_calls}, writes={snap.write_calls}, "
            f"random={snap.random_seeks}, seq={snap.sequential_reads}, "
            f"MB_read={snap.bytes_read / 1e6:.2f})"
        )
