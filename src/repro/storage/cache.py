"""Byte-budgeted LRU cache of leaf blocks read from a SeriesFile.

Query workloads are skewed: hard queries revisit the same hot leaves of
LRDFile hundreds of times (every skip-sequential fallback walks LCList
again), yet the seed pipeline re-read each leaf from disk on every query.
:class:`LeafCache` sits under :meth:`repro.storage.files.SeriesFile.read_range`
and keeps whole read blocks — keyed by ``(position, count)`` — inside a
fixed byte budget with LRU eviction.

Cached arrays are the read-only views ``read_range`` already produces
(``np.frombuffer`` over immutable bytes), so one block can be handed to
any number of concurrent queries without copying.

Accounting is first-class: hits, misses, and evictions are counted under
the cache lock, exposed as immutable :class:`CacheSnapshot` values (with
``-`` for per-query deltas, mirroring ``IOSnapshot``), and optionally
mirrored into a :class:`~repro.obs.metrics.MetricsRegistry` via
:meth:`LeafCache.bind_registry` under ``cache.leaf.*`` counter names.

Sharded indexes split one user-facing budget across independent caches:
each of the N shards owns its own LeafCache sized ``cache_bytes // N``,
held by the query pool worker that serves the shard.  Their hits and
misses come home in each answer's per-shard profile.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from repro import obs

__all__ = ["CacheSnapshot", "LeafCache"]

#: Metric-name prefix used by :meth:`LeafCache.bind_registry` by default.
DEFAULT_METRIC_PREFIX = "cache.leaf"

#: Evictions accumulated before one ``cache_eviction_pressure`` event is
#: emitted (throttling: eviction is per-block and hot loops evict
#: thousands of times; the journal wants the trend, not every block).
PRESSURE_EVENT_EVERY = 64


@dataclass(frozen=True)
class CacheSnapshot:
    """An immutable copy of the cache counters at one point in time."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Bytes resident when the snapshot was taken (not delta-meaningful).
    current_bytes: int = 0
    #: Entries resident when the snapshot was taken.
    entries: int = 0

    def __sub__(self, other: "CacheSnapshot") -> "CacheSnapshot":
        """Counter delta between two snapshots (occupancy stays absolute)."""
        return CacheSnapshot(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
            current_bytes=self.current_bytes,
            entries=self.entries,
        )

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 when nothing was looked up."""
        total = self.lookups
        return self.hits / total if total else 0.0


class LeafCache:
    """Thread-safe LRU mapping of block keys to immutable ndarrays.

    ``budget_bytes`` bounds the summed ``nbytes`` of resident entries;
    inserting past the budget evicts least-recently-used entries first.
    A block larger than the whole budget is simply not admitted (the
    read still succeeds, the cache just refuses to thrash itself).
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError(
                f"budget_bytes must be positive, got {budget_bytes} "
                "(pass no cache at all to disable caching)"
            )
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()
        #: Per-key singleflight: key -> Event set when the in-flight
        #: load finishes (see :meth:`get_or_load`).
        self._inflight: dict = {}
        self._current_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._pressure_pending = 0
        self._registry = None
        self._metric_prefix = DEFAULT_METRIC_PREFIX

    # -- lookup / insert -----------------------------------------------------

    def get(self, key: Hashable) -> Optional[np.ndarray]:
        """The cached block for ``key``, refreshing its recency, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                registry = self._registry
            else:
                self._entries.move_to_end(key)
                self._hits += 1
                registry = self._registry
        if registry is not None:
            name = "hits" if entry is not None else "misses"
            registry.counter(f"{self._metric_prefix}.{name}").inc()
        return entry

    def get_or_load(self, key: Hashable, loader) -> np.ndarray:
        """The cached block for ``key``, loading it at most once.

        Closes the redundant-read window of the get/put protocol: two
        threads missing the same key concurrently used to both run the
        disk read.  Here the first miss becomes the *leader* — it runs
        ``loader()`` and admits the result — while followers wait on a
        per-key in-flight event and then take the cache hit.  A loader
        failure wakes the followers, and the next one retries the load
        itself; a block the budget refuses simply degrades to per-caller
        loads, exactly the old behavior.
        """
        while True:
            leader = False
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    registry = self._registry
                else:
                    registry = self._registry
                    flight = self._inflight.get(key)
                    if flight is None:
                        # This thread leads the load for everyone.
                        flight = threading.Event()
                        self._inflight[key] = flight
                        self._misses += 1
                        leader = True
            if entry is not None:
                if registry is not None:
                    registry.counter(f"{self._metric_prefix}.hits").inc()
                return entry
            if not leader:
                # Follower: the leader will admit the block (or fail);
                # either way the event fires and the loop re-checks.
                flight.wait()
                continue
            if registry is not None:
                registry.counter(f"{self._metric_prefix}.misses").inc()
            try:
                block = loader()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                flight.set()
                raise
            self.put(key, block)
            with self._lock:
                self._inflight.pop(key, None)
            flight.set()
            return block

    def put(self, key: Hashable, block: np.ndarray) -> bool:
        """Admit ``block`` under ``key``; False when it exceeds the budget.

        Admitted blocks are marked read-only — they are shared across
        queries and threads, so nobody may write through a cached view.
        """
        nbytes = int(block.nbytes)
        if nbytes > self.budget_bytes:
            return False
        if block.flags.writeable:
            block = block.view()
            block.flags.writeable = False
        evicted = 0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return True
            while self._current_bytes + nbytes > self.budget_bytes:
                _, dropped = self._entries.popitem(last=False)
                self._current_bytes -= dropped.nbytes
                evicted += 1
            self._entries[key] = block
            self._current_bytes += nbytes
            self._evictions += evicted
            registry = self._registry
            pressure = 0
            if evicted:
                self._pressure_pending += evicted
                if self._pressure_pending >= PRESSURE_EVENT_EVERY:
                    pressure = self._pressure_pending
                    self._pressure_pending = 0
            resident = self._current_bytes
            entries = len(self._entries)
        if registry is not None:
            if evicted:
                registry.counter(f"{self._metric_prefix}.evictions").inc(evicted)
            registry.gauge(f"{self._metric_prefix}.bytes").set(
                self.current_bytes
            )
        if pressure:
            obs.emit_event(
                "cache_eviction_pressure",
                evictions=pressure,
                resident_bytes=resident,
                budget_bytes=self.budget_bytes,
                entries=entries,
            )
        return True

    def clear(self) -> None:
        """Drop every entry (used when the underlying file is appended to)."""
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0

    # -- accounting ----------------------------------------------------------

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._current_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> CacheSnapshot:
        with self._lock:
            return CacheSnapshot(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                current_bytes=self._current_bytes,
                entries=len(self._entries),
            )

    def bind_registry(
        self, registry, prefix: str = DEFAULT_METRIC_PREFIX
    ) -> None:
        """Mirror hit/miss/eviction counts into ``registry`` from now on."""
        with self._lock:
            self._registry = registry
            self._metric_prefix = prefix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snap = self.snapshot()
        return (
            f"LeafCache({snap.entries} entries, "
            f"{snap.current_bytes}/{self.budget_bytes} bytes, "
            f"{snap.hits} hits / {snap.misses} misses)"
        )
