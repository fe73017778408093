"""Time-windowed telemetry: rolling metrics, SLO tracking, the hub.

The PR-3 registry records *cumulative* numbers that only surface
post-hoc.  A serving engine needs the complement: what happened in the
last minute — rolling p50/p95/p99 latency, request rates, SLO burn,
shard health *over time*.  This module provides it:

* :class:`WindowedCounter` / :class:`WindowedHistogram` — a ring of
  fixed-duration buckets keyed by *absolute* epoch
  (``int(clock() // bucket_width)``), so two instruments observing the
  same values under the same clock are value-identical after a merge
  no matter whether they lived in threads of one process or in
  killed-and-respawned shard workers.  The clock is injectable for
  deterministic tests.
* :class:`SloTracker` — configurable latency/coverage objectives with
  windowed attainment and burn-rate readouts.
* :class:`TelemetryHub` — one bundle of registry + event journal + SLO
  tracker, activated per run.  Module-level helpers
  (:func:`observe_query`, :func:`observe_search`, :func:`emit_event`,
  :func:`watch_process`) are single-global-read no-ops when no hub is
  active, so instrumented hot paths stay free in production.

Like the rest of ``repro.obs`` this imports nothing from the rest of
the package; everything here is fork-safe via ``os.register_at_fork``.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import time
import weakref
from typing import Callable, Optional

from repro.obs.events import EventJournal
from repro.obs.metrics import MetricsRegistry, percentile_from_sorted

__all__ = [
    "SloTracker",
    "TelemetryHub",
    "WindowedCounter",
    "WindowedHistogram",
    "emit_event",
    "get_hub",
    "observe_query",
    "observe_search",
    "set_hub",
    "use_hub",
    "watch_process",
]

#: Default rolling window: 60 seconds in 5-second buckets.
DEFAULT_WINDOW_SECONDS = 60.0
DEFAULT_NUM_BUCKETS = 12

#: Live windowed instruments, for post-fork lock re-initialization.
_LIVE_WINDOWED: "weakref.WeakSet" = weakref.WeakSet()


def _reinit_after_fork() -> None:
    global _hub
    _hub = None
    for instrument in list(_LIVE_WINDOWED):
        instrument._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix only
    os.register_at_fork(after_in_child=_reinit_after_fork)


class _Windowed:
    """Shared bucket-ring plumbing for the windowed instruments.

    Buckets are keyed by absolute epoch number so the time axis is a
    property of the *clock*, not of the instrument: merging states that
    were produced by different processes (or by the same instrument
    before and after a fork) aligns buckets exactly.  Expired buckets
    are pruned opportunistically on write.
    """

    __slots__ = ("_lock", "_buckets", "_clock", "window_seconds",
                 "num_buckets", "bucket_width", "__weakref__")

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if window_seconds <= 0 or num_buckets <= 0:
            raise ValueError("window_seconds and num_buckets must be positive")
        self._lock = threading.Lock()
        self._buckets: dict = {}
        self._clock = clock if clock is not None else time.time
        self.window_seconds = float(window_seconds)
        self.num_buckets = int(num_buckets)
        self.bucket_width = self.window_seconds / self.num_buckets
        _LIVE_WINDOWED.add(self)

    def _epoch(self, now: Optional[float] = None) -> int:
        if now is None:
            now = self._clock()
        return int(now // self.bucket_width)

    def _prune(self, current_epoch: int) -> None:
        # Caller holds the lock.  Keep the last ``num_buckets`` epochs.
        floor = current_epoch - self.num_buckets + 1
        if len(self._buckets) > self.num_buckets:
            for epoch in [e for e in self._buckets if e < floor]:
                del self._buckets[epoch]

    def _live_items(self, now: Optional[float] = None) -> list:
        current = self._epoch(now)
        floor = current - self.num_buckets + 1
        with self._lock:
            return sorted(
                (e, v) for e, v in self._buckets.items()
                if floor <= e <= current
            )


class WindowedCounter(_Windowed):
    """A counter with an all-time total plus a rolling-window view."""

    __slots__ = ("_total",)

    def __init__(self, window_seconds=DEFAULT_WINDOW_SECONDS,
                 num_buckets=DEFAULT_NUM_BUCKETS, clock=None) -> None:
        super().__init__(window_seconds, num_buckets, clock)
        self._total = 0.0

    def inc(self, amount: float = 1) -> None:
        epoch = self._epoch()
        with self._lock:
            self._buckets[epoch] = self._buckets.get(epoch, 0.0) + amount
            self._total += amount
            self._prune(epoch)

    add = inc

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    def window_total(self, now: Optional[float] = None) -> float:
        return float(sum(v for _, v in self._live_items(now)))

    def rate(self, now: Optional[float] = None) -> float:
        """Events per second over the covered part of the window.

        The denominator is the span from the oldest live bucket's start
        to *now* (clamped to the window), so a counter that has only
        been alive two seconds reports a two-second rate instead of
        diluting over the full window.
        """
        if now is None:
            now = self._clock()
        items = self._live_items(now)
        if not items:
            return 0.0
        oldest_start = items[0][0] * self.bucket_width
        covered = min(self.window_seconds,
                      max(now - oldest_start, self.bucket_width))
        return float(sum(v for _, v in items)) / covered

    def summary(self, now: Optional[float] = None) -> dict:
        return {
            "total": self.total,
            "window_total": self.window_total(now),
            "rate": self.rate(now),
            "window_seconds": self.window_seconds,
        }

    # -- cross-process flush ------------------------------------------------

    def export_state(self) -> dict:
        with self._lock:
            return {
                "kind": "windowed_counter",
                "window_seconds": self.window_seconds,
                "num_buckets": self.num_buckets,
                "total": self._total,
                "buckets": dict(self._buckets),
            }

    def merge_state(self, state: dict) -> None:
        buckets = state.get("buckets", {})
        with self._lock:
            for epoch, value in buckets.items():
                epoch = int(epoch)
                self._buckets[epoch] = self._buckets.get(epoch, 0.0) + value
            self._total += state.get("total", 0.0)
            if self._buckets:
                self._prune(max(self._epoch(), max(self._buckets)))


class WindowedHistogram(_Windowed):
    """A value distribution over a rolling window: p50/p95/p99, rate.

    Buckets hold the raw observations of their epoch; percentiles over
    the live window are computed from the sorted concatenation, which
    makes them order-independent — thread interleaving or per-process
    merge order cannot change the result.
    """

    __slots__ = ("_total_count",)

    def __init__(self, window_seconds=DEFAULT_WINDOW_SECONDS,
                 num_buckets=DEFAULT_NUM_BUCKETS, clock=None) -> None:
        super().__init__(window_seconds, num_buckets, clock)
        self._total_count = 0

    def observe(self, value: float) -> None:
        epoch = self._epoch()
        with self._lock:
            bucket = self._buckets.get(epoch)
            if bucket is None:
                bucket = self._buckets[epoch] = []
            bucket.append(float(value))
            self._total_count += 1
            self._prune(epoch)

    @property
    def total_count(self) -> int:
        with self._lock:
            return self._total_count

    def window_values(self, now: Optional[float] = None) -> list:
        values: list = []
        for _, bucket in self._live_items(now):
            values.extend(bucket)
        return values

    def rate(self, now: Optional[float] = None) -> float:
        if now is None:
            now = self._clock()
        items = self._live_items(now)
        if not items:
            return 0.0
        oldest_start = items[0][0] * self.bucket_width
        covered = min(self.window_seconds,
                      max(now - oldest_start, self.bucket_width))
        return sum(len(b) for _, b in items) / covered

    def summary(self, now: Optional[float] = None) -> dict:
        values = sorted(self.window_values(now))
        if not values:
            return {"count": 0, "mean": 0.0, "min": 0.0, "p50": 0.0,
                    "p95": 0.0, "p99": 0.0, "max": 0.0, "rate": 0.0,
                    "total_count": self.total_count,
                    "window_seconds": self.window_seconds}
        return {
            "count": len(values),
            "mean": math.fsum(values) / len(values),
            "min": values[0],
            "p50": percentile_from_sorted(values, 50.0),
            "p95": percentile_from_sorted(values, 95.0),
            "p99": percentile_from_sorted(values, 99.0),
            "max": values[-1],
            "rate": self.rate(now),
            "total_count": self.total_count,
            "window_seconds": self.window_seconds,
        }

    # -- cross-process flush ------------------------------------------------

    def export_state(self) -> dict:
        with self._lock:
            return {
                "kind": "windowed_histogram",
                "window_seconds": self.window_seconds,
                "num_buckets": self.num_buckets,
                "total_count": self._total_count,
                "buckets": {e: list(b) for e, b in self._buckets.items()},
            }

    def merge_state(self, state: dict) -> None:
        buckets = state.get("buckets", {})
        with self._lock:
            for epoch, values in buckets.items():
                epoch = int(epoch)
                bucket = self._buckets.get(epoch)
                if bucket is None:
                    bucket = self._buckets[epoch] = []
                bucket.extend(float(v) for v in values)
            self._total_count += int(state.get("total_count", 0))
            if self._buckets:
                self._prune(max(self._epoch(), max(self._buckets)))


class SloTracker:
    """Windowed attainment against latency and coverage objectives.

    ``latency_threshold`` is the "good event" bound (a query is good
    when it completes within it), ``latency_target`` the demanded
    fraction of good events; ``coverage_target`` bounds how much of the
    dataset degraded answers may silently drop on average.  Burn rate
    is the standard SRE readout: observed error rate over the error
    budget — 1.0 means exactly consuming the budget, >1 means burning
    it faster than allowed.
    """

    def __init__(
        self,
        latency_threshold: float = 0.5,
        latency_target: float = 0.99,
        coverage_target: float = 0.999,
        window_seconds: float = 300.0,
        num_buckets: int = 30,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.latency_threshold = float(latency_threshold)
        self.latency_target = float(latency_target)
        self.coverage_target = float(coverage_target)
        kw = dict(window_seconds=window_seconds, num_buckets=num_buckets,
                  clock=clock)
        self._requests = WindowedCounter(**kw)
        self._good = WindowedCounter(**kw)
        self._degraded = WindowedCounter(**kw)
        self._coverage = WindowedHistogram(**kw)

    def observe(self, latency_seconds: float, coverage: float = 1.0,
                degraded: bool = False) -> None:
        self._requests.inc()
        if latency_seconds <= self.latency_threshold:
            self._good.inc()
        if degraded:
            self._degraded.inc()
        self._coverage.observe(float(coverage))

    @staticmethod
    def _burn(error_rate: float, target: float) -> float:
        budget = 1.0 - target
        if budget <= 0.0:
            return 0.0 if error_rate <= 0.0 else math.inf
        return error_rate / budget

    def status(self, now: Optional[float] = None) -> dict:
        requests = self._requests.window_total(now)
        good = self._good.window_total(now)
        degraded = self._degraded.window_total(now)
        coverage = self._coverage.summary(now)
        latency_attainment = good / requests if requests else 1.0
        mean_coverage = coverage["mean"] if coverage["count"] else 1.0
        latency_burn = self._burn(1.0 - latency_attainment,
                                  self.latency_target)
        coverage_burn = self._burn(max(0.0, 1.0 - mean_coverage),
                                   self.coverage_target)
        return {
            "window_seconds": self._requests.window_seconds,
            "requests": requests,
            "latency_threshold": self.latency_threshold,
            "latency_target": self.latency_target,
            "latency_attainment": latency_attainment,
            "latency_burn": latency_burn,
            "coverage_target": self.coverage_target,
            "coverage_attainment": mean_coverage,
            "coverage_burn": coverage_burn,
            "degraded": degraded,
            "healthy": bool(latency_burn <= 1.0 and coverage_burn <= 1.0),
        }

    # -- cross-process flush ------------------------------------------------

    def export_state(self) -> dict:
        return {
            "requests": self._requests.export_state(),
            "good": self._good.export_state(),
            "degraded": self._degraded.export_state(),
            "coverage": self._coverage.export_state(),
        }

    def merge_state(self, state: dict) -> None:
        self._requests.merge_state(state.get("requests", {}))
        self._good.merge_state(state.get("good", {}))
        self._degraded.merge_state(state.get("degraded", {}))
        self._coverage.merge_state(state.get("coverage", {}))


class TelemetryHub:
    """One run's telemetry bundle: registry + journal + SLO tracker.

    The registry carries both the cumulative PR-3 instruments and the
    windowed family (via :meth:`MetricsRegistry.windowed_counter` /
    :meth:`~MetricsRegistry.windowed_histogram`), so one
    ``export_state``/``merge_state`` round-trip moves everything a
    shard worker measured.  An optional resource sampler can be
    attached so instrumented code (shard supervisors) can register
    worker pids as they spawn via :func:`watch_process`.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        journal: Optional[EventJournal] = None,
        slo: Optional[SloTracker] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.clock = clock if clock is not None else time.time
        self.registry = registry if registry is not None else MetricsRegistry()
        self.journal = journal if journal is not None else EventJournal(
            clock=self.clock
        )
        self.slo = slo if slo is not None else SloTracker(clock=self.clock)
        self.sampler = None  # attached by the CLI when /proc is available

    # -- canonical observations ---------------------------------------------

    def observe_query(self, seconds: float, coverage: float = 1.0,
                      degraded: bool = False) -> None:
        """One merged (coordinator-level) query answer."""
        self.registry.windowed_counter("query.requests").inc()
        self.registry.windowed_histogram(
            "query.latency_seconds"
        ).observe(seconds)
        self.registry.windowed_histogram("query.coverage").observe(coverage)
        if degraded:
            self.registry.windowed_counter("query.degraded").inc()
        self.slo.observe(seconds, coverage=coverage, degraded=degraded)

    def observe_search(self, seconds: float) -> None:
        """One engine-level (per-shard) search, distinct from
        coordinator latency so sharded fan-out is not double-counted."""
        self.registry.windowed_counter("engine.searches").inc()
        self.registry.windowed_histogram(
            "engine.search_seconds"
        ).observe(seconds)

    def watch_process(self, label: str, pid: int) -> None:
        sampler = self.sampler
        if sampler is not None:
            sampler.watch(label, pid)

    # -- cross-process flush ------------------------------------------------

    def export_state(self) -> dict:
        return {
            "metrics": self.registry.export_state(),
            "events": self.journal.export_state(),
            "slo": self.slo.export_state(),
        }

    def merge_state(self, state: dict, prefix: str = "",
                    **event_attrs) -> None:
        self.registry.merge_state(state.get("metrics", {}), prefix=prefix)
        self.journal.merge_state(state.get("events", []), **event_attrs)
        if "slo" in state:
            self.slo.merge_state(state["slo"])


# ---------------------------------------------------------------------------
# Module-level activation: one global read on the fast path
# ---------------------------------------------------------------------------

_hub: Optional[TelemetryHub] = None


def get_hub() -> Optional[TelemetryHub]:
    """The active hub, or None when telemetry is off."""
    return _hub


def set_hub(hub: Optional[TelemetryHub]) -> Optional[TelemetryHub]:
    """Install ``hub`` as the active hub; returns the previous one."""
    global _hub
    previous = _hub
    _hub = hub
    return previous


@contextlib.contextmanager
def use_hub(hub: TelemetryHub):
    """Activate ``hub`` for the duration of the block."""
    previous = set_hub(hub)
    try:
        yield hub
    finally:
        set_hub(previous)


def observe_query(seconds: float, coverage: float = 1.0,
                  degraded: bool = False) -> None:
    hub = _hub
    if hub is not None:
        hub.observe_query(seconds, coverage=coverage, degraded=degraded)


def observe_search(seconds: float) -> None:
    hub = _hub
    if hub is not None:
        hub.observe_search(seconds)


def emit_event(etype: str, **attrs) -> None:
    hub = _hub
    if hub is not None:
        hub.journal.emit(etype, **attrs)


def watch_process(label: str, pid: int) -> None:
    hub = _hub
    if hub is not None:
        hub.watch_process(label, pid)
