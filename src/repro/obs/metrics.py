"""Metrics registry: counters, gauges, and summarizing histograms.

The hardware-independent cost metrics the reproduction reports next to
every timing (distance computations, series accessed, pruning ratios,
I/O operation counts) accumulate here instead of in per-harness ad-hoc
lists.  :class:`MetricsRegistry` hands out named instruments that are
individually thread-safe; :func:`record_profile` and :func:`record_io`
bridge the existing :class:`~repro.core.query.QueryProfile` and
:class:`~repro.storage.iostats.IOSnapshot` records into a registry so
every benchmark summary comes from one instrumented source.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Optional

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile_from_sorted",
    "record_answer",
    "record_build",
    "record_io",
    "record_profile",
]


def percentile_from_sorted(values, q: float) -> float:
    """The ``q``-th percentile of already-sorted ``values``.

    Pinned to linear interpolation between closest ranks — the same
    convention as ``numpy.percentile``'s default — but implemented
    explicitly so summaries are deterministic across numpy versions
    and platforms, and so callers holding a sorted array never pay a
    re-sort.  Accepts any indexable sorted sequence.
    """
    n = len(values)
    if n == 0:
        return 0.0
    position = (q / 100.0) * (n - 1)
    lower = int(position)
    upper = min(lower + 1, n - 1)
    fraction = position - lower
    return float(
        values[lower] * (1.0 - fraction) + values[upper] * fraction
    )

#: Every live registry, tracked so locks can be re-initialized in forked
#: children (a lock held by another thread at fork time would deadlock
#: the child forever; see :func:`_reinit_after_fork`).
_LIVE_REGISTRIES: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()


def _reinit_after_fork() -> None:
    """Replace every registry/instrument lock in a freshly forked child.

    The child is single-threaded at this point, so no lock can be
    legitimately held — any lock state inherited from the parent is
    stale.  Instruments keep their values: a shard build worker forked
    mid-benchmark still reports whatever the parent had accumulated plus
    its own work, and the parent-side merge (:meth:`MetricsRegistry.
    merge_state`) is responsible for not double-counting.
    """
    for registry in list(_LIVE_REGISTRIES):
        registry._lock = threading.Lock()
        for instrument in (
            list(registry._counters.values())
            + list(registry._gauges.values())
            + list(registry._histograms.values())
        ):
            instrument._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix only
    os.register_at_fork(after_in_child=_reinit_after_fork)


class Counter:
    """A monotonically increasing, thread-safe count."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    add = inc

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe last-value-wins measurement."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A thread-safe value distribution with percentile summaries.

    Values are kept exactly (benchmark workloads observe at most a few
    thousand per histogram); :meth:`summary` reports count, mean, min,
    p50, p95, and max.  The sorted view is cached and invalidated on
    write, so a monitoring loop that reads summaries every few seconds
    does not re-sort an unchanged distribution — and percentiles use
    the pinned :func:`percentile_from_sorted` interpolation so the
    numbers are identical across platforms and numpy versions.
    """

    __slots__ = ("_lock", "_values", "_sorted")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: list[float] = []
        self._sorted: Optional[np.ndarray] = None

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))
            self._sorted = None

    def extend(self, values) -> None:
        """Bulk-observe raw values (the child-process merge path)."""
        coerced = [float(v) for v in values]
        with self._lock:
            self._values.extend(coerced)
            if coerced:
                self._sorted = None

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._values)

    @property
    def values(self) -> list[float]:
        with self._lock:
            return list(self._values)

    def _sorted_snapshot(self) -> np.ndarray:
        with self._lock:
            if self._sorted is None:
                self._sorted = np.sort(
                    np.asarray(self._values, dtype=np.float64)
                )
            return self._sorted

    def summary(self) -> dict:
        values = self._sorted_snapshot()
        if values.shape[0] == 0:
            return {"count": 0, "mean": 0.0, "min": 0.0, "p50": 0.0,
                    "p95": 0.0, "max": 0.0}
        return {
            "count": int(values.shape[0]),
            "mean": float(values.mean()),
            "min": float(values[0]),
            "p50": percentile_from_sorted(values, 50.0),
            "p95": percentile_from_sorted(values, 95.0),
            "max": float(values[-1]),
        }


class MetricsRegistry:
    """Named instruments, created on first use and safe to share.

    Registries are *fork-safe*: their locks (and every instrument's) are
    re-initialized in forked children, and a child's whole registry can
    be flushed across a process boundary as a plain dict
    (:meth:`export_state`) and folded into the parent's registry
    (:meth:`merge_state`) — counters add, gauges take the child's last
    value, histograms append the child's raw observations.  This is how
    shard build/query workers report `shard.*` metrics to the
    coordinator without ever sharing a lock across processes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._windowed_counters: dict = {}
        self._windowed_histograms: dict = {}
        _LIVE_REGISTRIES.add(self)

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram()
            return instrument

    def windowed_counter(self, name: str, **kwargs):
        """A named :class:`~repro.obs.telemetry.WindowedCounter`.

        Constructor keyword arguments (``window_seconds``,
        ``num_buckets``, ``clock``) only apply on first use; later
        calls return the existing instrument unchanged.
        """
        from repro.obs import telemetry

        with self._lock:
            instrument = self._windowed_counters.get(name)
            if instrument is None:
                instrument = self._windowed_counters[name] = (
                    telemetry.WindowedCounter(**kwargs)
                )
            return instrument

    def windowed_histogram(self, name: str, **kwargs):
        """A named :class:`~repro.obs.telemetry.WindowedHistogram`."""
        from repro.obs import telemetry

        with self._lock:
            instrument = self._windowed_histograms.get(name)
            if instrument is None:
                instrument = self._windowed_histograms[name] = (
                    telemetry.WindowedHistogram(**kwargs)
                )
            return instrument

    def summary(self) -> dict:
        """A JSON-friendly snapshot of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            windowed_counters = dict(self._windowed_counters)
            windowed_histograms = dict(self._windowed_histograms)
        return {
            "counters": {k: v.value for k, v in sorted(counters.items())},
            "gauges": {k: v.value for k, v in sorted(gauges.items())},
            "histograms": {
                k: v.summary() for k, v in sorted(histograms.items())
            },
            "windowed_counters": {
                k: v.summary() for k, v in sorted(windowed_counters.items())
            },
            "windowed_histograms": {
                k: v.summary() for k, v in sorted(windowed_histograms.items())
            },
        }

    def to_openmetrics(self, slo=None) -> str:
        """This registry in OpenMetrics/Prometheus text format."""
        from repro.obs import exporter

        return exporter.render_openmetrics(self, slo=slo)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._windowed_counters.clear()
            self._windowed_histograms.clear()

    # -- cross-process flush --------------------------------------------------

    def export_state(self) -> dict:
        """A picklable snapshot of every instrument, raw values included.

        Unlike :meth:`summary`, histograms are exported as their full
        value lists so a parent-side merge preserves percentiles exactly.
        This is the payload a worker process sends home before exiting.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            windowed_counters = dict(self._windowed_counters)
            windowed_histograms = dict(self._windowed_histograms)
        return {
            "counters": {k: v.value for k, v in counters.items()},
            "gauges": {k: v.value for k, v in gauges.items()},
            "histograms": {k: v.values for k, v in histograms.items()},
            "windowed_counters": {
                k: v.export_state() for k, v in windowed_counters.items()
            },
            "windowed_histograms": {
                k: v.export_state() for k, v in windowed_histograms.items()
            },
        }

    def merge_state(self, state: dict, prefix: str = "") -> None:
        """Fold a child's :meth:`export_state` into this registry.

        Counters accumulate, gauges take the child's value, histogram
        observations append.  Windowed instruments merge bucket-by-
        bucket on the absolute epoch axis, so rolling percentiles come
        out identical no matter which process observed a value.
        ``prefix`` namespaces every merged name (e.g. ``shard.0.``) so
        per-worker provenance survives the merge — windowed instruments
        merge *unprefixed* as well, because a rolling `query.latency`
        must aggregate the whole fleet.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(f"{prefix}{name}").add(int(value))
        for name, value in state.get("gauges", {}).items():
            self.gauge(f"{prefix}{name}").set(value)
        for name, values in state.get("histograms", {}).items():
            self.histogram(f"{prefix}{name}").extend(values)
        for name, wstate in state.get("windowed_counters", {}).items():
            self.windowed_counter(
                name,
                window_seconds=wstate.get("window_seconds", 60.0),
                num_buckets=wstate.get("num_buckets", 12),
            ).merge_state(wstate)
        for name, wstate in state.get("windowed_histograms", {}).items():
            self.windowed_histogram(
                name,
                window_seconds=wstate.get("window_seconds", 60.0),
                num_buckets=wstate.get("num_buckets", 12),
            ).merge_state(wstate)


# ---------------------------------------------------------------------------
# Bridges from the existing measurement records
# ---------------------------------------------------------------------------


def record_io(registry: MetricsRegistry, snapshot, prefix: str = "io") -> None:
    """Accumulate an :class:`IOSnapshot` (usually a delta) into counters."""
    registry.counter(f"{prefix}.read_calls").add(snapshot.read_calls)
    registry.counter(f"{prefix}.write_calls").add(snapshot.write_calls)
    registry.counter(f"{prefix}.random_seeks").add(snapshot.random_seeks)
    registry.counter(f"{prefix}.sequential_reads").add(
        snapshot.sequential_reads
    )
    registry.counter(f"{prefix}.bytes_read").add(snapshot.bytes_read)
    registry.counter(f"{prefix}.bytes_written").add(snapshot.bytes_written)


def record_build(registry: MetricsRegistry, report, prefix: str = "build") -> None:
    """Feed one :class:`~repro.core.index.BuildReport` into the registry.

    Throughput and the per-phase wall-clock breakdown (Table 4's shape:
    routing, HBuffer stores, splits, flushes) land in gauges; the work
    counters accumulate so repeated builds in one process sum up.
    """
    registry.gauge(f"{prefix}.series_per_sec").set(report.series_per_sec)
    registry.gauge(f"{prefix}.build_seconds").set(report.build_seconds)
    registry.gauge(f"{prefix}.write_seconds").set(report.write_seconds)
    registry.gauge(f"{prefix}.route_seconds").set(report.route_seconds)
    registry.gauge(f"{prefix}.store_seconds").set(report.store_seconds)
    registry.gauge(f"{prefix}.split_seconds").set(report.split_seconds)
    registry.gauge(f"{prefix}.flush_seconds").set(report.flush_seconds)
    registry.counter(f"{prefix}.num_series").add(report.num_series)
    registry.counter(f"{prefix}.splits").add(report.splits)
    registry.counter(f"{prefix}.flushes").add(report.flushes)
    # Supervision counters exist only on ShardedBuildReport; a plain
    # BuildReport records nothing (no fake zero-series).
    for name in ("worker_restarts", "requeued_tasks", "task_retries"):
        value = getattr(report, name, 0)
        if value:
            registry.counter(f"{prefix}.{name}").add(int(value))
    if report.io is not None:
        record_io(registry, report.io, prefix=f"{prefix}.io")


def record_profile(
    registry: MetricsRegistry,
    profile,
    num_series: Optional[int] = None,
    prefix: str = "query",
) -> None:
    """Feed one :class:`QueryProfile` into the registry's instruments.

    Timings land in histograms (so summaries report p50/p95/max), work
    counters accumulate, and the per-path count makes access-path
    selection visible (``query.path.<name>``).
    """
    registry.counter(f"{prefix}.count").inc()
    registry.histogram(f"{prefix}.seconds").observe(profile.time_total)
    registry.histogram(f"{prefix}.approx_seconds").observe(profile.time_approx)
    registry.histogram(f"{prefix}.candidates_seconds").observe(
        profile.time_candidates
    )
    registry.histogram(f"{prefix}.refine_seconds").observe(profile.time_refine)
    registry.histogram(f"{prefix}.eapca_pruning").observe(
        profile.eapca_pruning
    )
    if profile.sax_pruning is not None:
        registry.histogram(f"{prefix}.sax_pruning").observe(
            profile.sax_pruning
        )
    registry.counter(f"{prefix}.distance_computations").add(
        profile.distance_computations
    )
    registry.counter(f"{prefix}.series_accessed").add(profile.series_accessed)
    registry.counter(f"{prefix}.points_compared").add(profile.points_compared)
    registry.counter(f"{prefix}.points_total").add(profile.points_total)
    if profile.points_total:
        registry.histogram(f"{prefix}.abandoned_fraction").observe(
            profile.abandoned_fraction
        )
    registry.counter(f"{prefix}.cache.hits").add(profile.cache_hits)
    registry.counter(f"{prefix}.cache.misses").add(profile.cache_misses)
    if profile.cache_hit_rate is not None:
        registry.histogram(f"{prefix}.cache_hit_rate").observe(
            profile.cache_hit_rate
        )
    registry.counter(f"{prefix}.candidate_leaves").add(
        profile.candidate_leaves
    )
    registry.counter(f"{prefix}.candidate_series").add(
        profile.candidate_series
    )
    if profile.prefilter_screened:
        registry.counter(f"{prefix}.prefilter.screened").add(
            profile.prefilter_screened
        )
        registry.counter(f"{prefix}.prefilter.survivors").add(
            profile.prefilter_survivors
        )
        registry.histogram(f"{prefix}.prefilter.pruned_fraction").observe(
            profile.prefilter_pruned_fraction
        )
    if num_series:
        registry.histogram(f"{prefix}.data_accessed_fraction").observe(
            profile.data_accessed_fraction(num_series)
        )
    if profile.path:
        registry.counter(f"{prefix}.path.{profile.path}").inc()
    if profile.io is not None:
        record_io(registry, profile.io, prefix=f"{prefix}.io")
        registry.histogram(f"{prefix}.modeled_io_seconds").observe(
            profile.modeled_io_seconds()
        )


def record_answer(registry: MetricsRegistry, answer, num_series: Optional[int] = None) -> None:
    """Record one k-NN answer, plain or merged from shards.

    Duck-typed on :class:`~repro.core.query.QueryAnswer` (obs never
    imports core).  The answer's profile lands under ``query.*`` and its
    ``query.coverage`` (histogram) is observed for every answer;
    ``shard.retries``, ``query.degraded`` and ``shard.dropped``
    (counters) move only when non-zero, so no retry or degradation is
    ever silent.  Each shard's own profile additionally lands under
    ``shard.<i>.query.*`` so per-shard skew stays visible; a plain
    answer has no shards.
    """
    record_profile(registry, answer.profile, num_series=num_series)
    registry.histogram("query.coverage").observe(answer.coverage)
    if answer.retries:
        registry.counter("shard.retries").add(answer.retries)
    if answer.degraded:
        registry.counter("query.degraded").inc()
        registry.counter("shard.dropped").add(len(answer.shard_errors))
    for shard_id, shard_answer in answer.shard_answers:
        record_profile(registry, shard_answer.profile, prefix=f"shard.{shard_id}.query")


def record_batch_stats(
    registry: MetricsRegistry, stats, prefix: str = "query.batch"
) -> None:
    """Feed one batch execution's :class:`BatchStats` into the registry.

    Duck-typed (any object with the
    :class:`~repro.core.batch_query.BatchStats` fields works — obs never
    imports core).  Counters accumulate raw work so batches sum across a
    workload; the derived sharing ratios land in histograms, one
    observation per batch.
    """
    registry.counter(f"{prefix}.count").inc()
    registry.counter(f"{prefix}.queries").add(stats.num_queries)
    registry.counter(f"{prefix}.unique_leaf_reads").add(
        stats.unique_leaf_reads
    )
    registry.counter(f"{prefix}.leaf_uses").add(stats.leaf_uses)
    registry.counter(f"{prefix}.kernel_rows").add(stats.kernel_rows)
    registry.histogram(f"{prefix}.seconds").observe(stats.total_seconds)
    if stats.unique_leaf_reads:
        registry.histogram(f"{prefix}.leaf_share_factor").observe(
            stats.leaf_share_factor
        )
        registry.histogram(f"{prefix}.kernel_rows_per_read").observe(
            stats.kernel_rows_per_read
        )
    if stats.screen_seconds:
        registry.histogram(f"{prefix}.screen_seconds_per_query").observe(
            stats.screen_seconds_per_query
        )
