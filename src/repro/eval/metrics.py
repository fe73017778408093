"""Workload measurement and aggregation (Section 4.1, "Measures").

The paper reports wall-clock time and the percentage of accessed data,
averaged per query.  For 10K-query workloads it extrapolates: discard the
5 best and 5 worst of the 100 measured queries and multiply the mean of
the remaining 90 by 10,000 ("Procedure").  Both are implemented here,
alongside hardware-independent work counters (distance computations,
series accessed) that this reproduction reports next to every timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.query import QueryProfile
from repro.obs import record_answer, record_batch_stats


@dataclass
class WorkloadResult:
    """All per-query profiles of one (method, workload) pair."""

    method: str
    workload: str
    k: int
    num_series: int
    build_seconds: float
    profiles: list[QueryProfile] = field(default_factory=list)

    @property
    def query_count(self) -> int:
        return len(self.profiles)

    @property
    def total_query_seconds(self) -> float:
        return float(sum(p.time_total for p in self.profiles))

    @property
    def avg_query_seconds(self) -> float:
        return self.total_query_seconds / max(self.query_count, 1)

    @property
    def avg_data_accessed(self) -> float:
        """Mean fraction of the dataset's raw series read per query."""
        if not self.profiles:
            return 0.0
        fractions = [
            p.data_accessed_fraction(self.num_series) for p in self.profiles
        ]
        return float(np.mean(fractions))

    @property
    def avg_distance_computations(self) -> float:
        if not self.profiles:
            return 0.0
        return float(np.mean([p.distance_computations for p in self.profiles]))

    @property
    def avg_abandoned_fraction(self) -> float:
        """Mean fraction of candidate points skipped by early abandoning.

        Only queries that recorded point counts participate; zero when
        none did (e.g. a method not yet on the blocked kernel).
        """
        fractions = [
            p.abandoned_fraction for p in self.profiles if p.points_total
        ]
        if not fractions:
            return 0.0
        return float(np.mean(fractions))

    @property
    def avg_prefilter_pruned_fraction(self) -> float | None:
        """Mean fraction of the examined series the LB_SAX pass pruned,
        over queries where it examined any; ``None`` when it never
        engaged (a method without one, NoSAX, or no query had candidate
        leaves left after phase 2).
        """
        fractions = [
            p.prefilter_pruned_fraction
            for p in self.profiles
            if p.prefilter_pruned_fraction is not None
        ]
        if not fractions:
            return None
        return float(np.mean(fractions))

    @property
    def avg_cache_hit_rate(self) -> float | None:
        """Mean leaf-cache hit rate over queries that touched the cache.

        ``None`` when no query recorded a cache lookup (cache disabled).
        """
        rates = [
            p.cache_hit_rate
            for p in self.profiles
            if p.cache_hit_rate is not None
        ]
        if not rates:
            return None
        return float(np.mean(rates))

    @property
    def avg_modeled_io_seconds(self) -> float:
        """Mean per-query disk time projected onto the paper's hardware.

        Zero when queries ran against in-memory data (no I/O captured).
        """
        if not self.profiles:
            return 0.0
        return float(np.mean([p.modeled_io_seconds() for p in self.profiles]))

    @property
    def avg_modeled_query_seconds(self) -> float:
        """Measured CPU wall-clock plus modeled disk time, per query."""
        return self.avg_query_seconds + self.avg_modeled_io_seconds

    def modeled_io_at_scale(self, byte_scale: float) -> float:
        """Mean modeled disk time with volumes mapped to the paper's scale.

        See :meth:`repro.core.query.QueryProfile.modeled_io_seconds` for
        the ``byte_scale`` semantics (paper leaf size / our leaf size).
        """
        if not self.profiles:
            return 0.0
        return float(
            np.mean(
                [p.modeled_io_seconds(byte_scale=byte_scale) for p in self.profiles]
            )
        )

    def extrapolated_seconds(self, num_queries: int = 10_000) -> float:
        """The paper's trimmed extrapolation to a large workload."""
        times = [p.time_total for p in self.profiles]
        return extrapolate_10k(times, num_queries)

    def combined_seconds(self, num_queries: int | None = None) -> float:
        """Index construction plus query answering (Figures 6 and 9)."""
        if num_queries is None:
            return self.build_seconds + self.total_query_seconds
        return self.build_seconds + self.extrapolated_seconds(num_queries)

    def summary(self) -> dict:
        """JSON-ready cost summary (hardware-independent counters included)."""
        return {
            "method": self.method,
            "workload": self.workload,
            "k": self.k,
            "num_series": self.num_series,
            "query_count": self.query_count,
            "build_seconds": self.build_seconds,
            "avg_query_seconds": self.avg_query_seconds,
            "avg_data_accessed": self.avg_data_accessed,
            "avg_distance_computations": self.avg_distance_computations,
            "avg_abandoned_fraction": self.avg_abandoned_fraction,
            "avg_cache_hit_rate": self.avg_cache_hit_rate,
            "prefilter_pruned_fraction": self.avg_prefilter_pruned_fraction,
            "avg_modeled_io_seconds": self.avg_modeled_io_seconds,
            "avg_modeled_query_seconds": self.avg_modeled_query_seconds,
        }


def extrapolate_10k(
    times: list[float], num_queries: int = 10_000, trim: int = 5
) -> float:
    """Trim the ``trim`` best/worst measurements, scale the mean.

    With fewer than ``2 * trim + 1`` measurements the trim shrinks to
    what the sample allows (the paper always has 100).
    """
    if not times:
        return 0.0
    values = np.sort(np.asarray(times, dtype=np.float64))
    effective_trim = min(trim, (values.shape[0] - 1) // 2)
    if effective_trim:
        values = values[effective_trim:-effective_trim]
    return float(values.mean() * num_queries)


def run_workload(
    method,
    queries: np.ndarray,
    k: int,
    *,
    workload: str = "",
    num_series: int | None = None,
    registry=None,
    batched: bool = False,
) -> WorkloadResult:
    """Run every query through ``method.knn`` and collect the profiles.

    Queries run one after another ("asynchronously" in the paper's sense:
    each must finish before the next is known), with caches staying warm
    between consecutive queries exactly as in the paper's procedure.

    ``batched=True`` instead hands the whole workload to
    ``method.knn_batch`` at once — the batched engine's one refinement
    walk shares each chunk read and kernel call across queries, and at
    ε = 0 its per-query answers are value-identical to the serial loop.  Per-query
    profiles are collected the same way; when the batch reports
    execution stats (a :class:`~repro.core.batch_query.BatchAnswer`)
    they land in the registry under ``query.batch.*``.

    ``registry`` (a :class:`repro.obs.MetricsRegistry`) receives each
    answer via :func:`repro.obs.record_answer` when given — the recorder
    ``repro query`` uses, so a sharded answer's coverage and per-shard
    profiles land here too.
    """
    result = WorkloadResult(
        method=getattr(method, "name", method.__class__.__name__),
        workload=workload,
        k=k,
        num_series=(
            num_series if num_series is not None else method.num_series
        ),
        build_seconds=getattr(method, "build_seconds", 0.0) or _build_seconds(method),
    )
    if batched:
        batch = method.knn_batch(np.asarray(queries), k=k)
        for answer in batch:
            if registry is not None:
                record_answer(registry, answer, num_series=result.num_series)
            result.profiles.append(answer.profile)
        stats = getattr(batch, "stats", None)
        if registry is not None and stats is not None:
            record_batch_stats(registry, stats)
        return result
    io_stats = getattr(method, "query_io", None)
    for query in queries:
        before = io_stats.snapshot() if io_stats is not None else None
        answer = method.knn(query, k=k)
        # knn implementations now fill profile.io themselves; the snapshot
        # here is a fallback for methods that do not.
        if before is not None and answer.profile.io is None:
            answer.profile.io = io_stats.snapshot() - before
        if registry is not None:
            record_answer(registry, answer, num_series=result.num_series)
        result.profiles.append(answer.profile)
    return result


def _build_seconds(method) -> float:
    report = getattr(method, "build_report", None)
    if report is not None:
        return report.total_seconds
    return 0.0
