"""Per-query EXPLAIN reports: where a query's time and I/O went.

Formats the cost record the query engine already produces (the
:class:`~repro.core.query.QueryProfile` inside every answer) into the
breakdown the paper reports around Figures 10-11: per-phase timings,
pruning ratios, candidate counts, the fraction of raw data touched, and
the modeled cost of the observed I/O pattern on the paper's testbed
disks.  Used by the ``repro explain`` CLI command and importable by
harnesses.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["explain_profile", "explain_workload_summary"]


def _pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2%}"


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.2f} ms"


def explain_profile(
    profile, num_series: Optional[int] = None, label: str = "query"
) -> str:
    """A multi-line report of one query's cost profile."""
    lines = [f"{label}: path={profile.path or '?'}"]
    lines.append(
        f"  phase 1 approx      {_ms(profile.time_approx)}"
        f"   ({profile.approx_leaves} leaves visited)"
    )
    lines.append(
        f"  phase 2 candidates  {_ms(profile.time_candidates)}"
        f"   ({profile.candidate_leaves} candidate leaves, "
        f"EAPCA pruning {_pct(profile.eapca_pruning)})"
    )
    if getattr(profile, "prefilter_screened", 0):
        lines.append(
            f"  prefilter screen    {profile.prefilter_survivors} of "
            f"{profile.prefilter_screened} candidate-leaf series survive "
            f"(pruned {_pct(profile.prefilter_pruned_fraction)})"
        )
    refine = f"  phase 3+4 refine    {_ms(profile.time_refine)}"
    if profile.sax_pruning is not None:
        refine += (
            f"   ({profile.candidate_series} candidate series, "
            f"SAX pruning {_pct(profile.sax_pruning)})"
        )
    lines.append(refine)
    totals = (
        f"  total               {_ms(profile.time_total)}"
        f"   ({profile.distance_computations} distance computations, "
        f"{profile.series_accessed} series read"
    )
    if num_series:
        totals += (
            f" = {_pct(profile.data_accessed_fraction(num_series))} of data"
        )
    totals += ")"
    lines.append(totals)
    if profile.points_total:
        lines.append(
            f"  early abandoning    {profile.points_compared} of "
            f"{profile.points_total} points compared "
            f"(abandoned {_pct(profile.abandoned_fraction)}; the Euclidean "
            "screen drops whole rows, never points, so 0% is its normal)"
        )
    if profile.cache_hits or profile.cache_misses:
        lines.append(
            f"  leaf cache          {profile.cache_hits} hits, "
            f"{profile.cache_misses} misses "
            f"(hit rate {_pct(profile.cache_hit_rate)})"
        )
    if profile.io is not None:
        io = profile.io
        lines.append(
            f"  io                  {io.random_seeks} random seeks, "
            f"{io.sequential_reads} sequential reads, "
            f"{io.bytes_read / 1e6:.2f} MB read, "
            f"modeled {profile.modeled_io_seconds() * 1e3:.2f} ms "
            f"on paper disks"
        )
    return "\n".join(lines)


def explain_workload_summary(registry) -> str:
    """A closing summary over every query EXPLAIN fed into ``registry``.

    ``registry`` is a :class:`~repro.obs.metrics.MetricsRegistry` whose
    ``query.*`` instruments were filled by
    :func:`repro.obs.metrics.record_profile`.
    """
    summary = registry.summary()
    hist = summary["histograms"]
    counters = summary["counters"]
    count = counters.get("query.count", 0)
    lines = [f"workload summary ({count} queries):"]

    def row(label: str, name: str, scale: float = 1.0, unit: str = "") -> None:
        stats = hist.get(name)
        if not stats or not stats["count"]:
            return
        lines.append(
            f"  {label:<22} mean {stats['mean'] * scale:9.3f}{unit}"
            f"  p50 {stats['p50'] * scale:9.3f}{unit}"
            f"  p95 {stats['p95'] * scale:9.3f}{unit}"
            f"  max {stats['max'] * scale:9.3f}{unit}"
        )

    row("query seconds", "query.seconds", 1e3, " ms")
    row("phase 1 approx", "query.approx_seconds", 1e3, " ms")
    row("phase 2 candidates", "query.candidates_seconds", 1e3, " ms")
    row("phase 3+4 refine", "query.refine_seconds", 1e3, " ms")
    row("EAPCA pruning", "query.eapca_pruning")
    row("SAX pruning", "query.sax_pruning")
    row("prefilter pruning", "query.prefilter.pruned_fraction")
    row("data accessed", "query.data_accessed_fraction")
    row("abandoned fraction", "query.abandoned_fraction")
    row("cache hit rate", "query.cache_hit_rate")
    row("modeled io seconds", "query.modeled_io_seconds", 1e3, " ms")
    total_dc = counters.get("query.distance_computations", 0)
    total_read = counters.get("query.series_accessed", 0)
    if count:
        lines.append(
            f"  totals: {total_dc} distance computations, "
            f"{total_read} series read"
        )
        total_points = counters.get("query.points_total", 0)
        if total_points:
            compared = counters.get("query.points_compared", 0)
            lines.append(
                f"  points: {compared} of {total_points} compared "
                f"(abandoned {1.0 - compared / total_points:.2%})"
            )
        cache_hits = counters.get("query.cache.hits", 0)
        cache_misses = counters.get("query.cache.misses", 0)
        if cache_hits or cache_misses:
            lines.append(
                f"  leaf cache: {cache_hits} hits, {cache_misses} misses "
                f"(hit rate {cache_hits / (cache_hits + cache_misses):.2%})"
            )
    paths = {
        name.split("query.path.", 1)[1]: value
        for name, value in counters.items()
        if name.startswith("query.path.")
    }
    if paths:
        chosen = ", ".join(f"{k}={v}" for k, v in sorted(paths.items()))
        lines.append(f"  access paths: {chosen}")
    batches = counters.get("query.batch.count", 0)
    if batches:
        batch_queries = counters.get("query.batch.queries", 0)
        reads = counters.get("query.batch.unique_leaf_reads", 0)
        uses = counters.get("query.batch.leaf_uses", 0)
        share = uses / reads if reads else 0.0
        lines.append(
            f"  batch execution: {batch_queries} queries in {batches} "
            f"batch(es), {reads} leaf reads serving {uses} uses "
            f"(leaf-sharing ratio {share:.2f}x)"
        )
    retries = counters.get("shard.retries", 0)
    degraded = counters.get("query.degraded", 0)
    dropped = counters.get("shard.dropped", 0)
    if retries or degraded:
        coverage = hist.get("query.coverage", {})
        lines.append(
            f"  resilience: {retries} shard retries, {degraded} degraded "
            f"answers ({dropped} shards dropped, "
            f"min coverage {coverage.get('min', 1.0):.2%})"
        )
    return "\n".join(lines)
