"""Latency estimators: per query over rounds, then percentiles over queries.

Each query is answered once per round, so its R samples are spread over
the whole timed phase.  Per query the estimate is the **lower quartile
over the R rounds, divided by the run's host factor** (``hostspeed``);
percentiles are then taken over queries, which is where the workload's
own spread lives.  The quartile is NumPy's linear interpolation, so with
few rounds it is a blend of the fastest ones (R=3: halfway between the
fastest and the middle round; R=4: a quarter of the way from the second
fastest to the third).  It was chosen by measurement: over ten runs per
workload it spread 2-10 % where the minimum spread 4-10 % (on this host
the fastest state is rare, so a best-of-R jumps by whether it was
caught) and the median 3-16 % (spikes are common), and it was lowest or
tied on every workload.  Best-of-R is still printed, raw, as
``harness.best_p50_ms``.
"""

from __future__ import annotations

import numpy as np


def per_call_seconds(latencies: np.ndarray, host_factor: float) -> np.ndarray:
    """Host-normalised lower quartile over rounds of ``(R, calls)`` walls."""
    return np.percentile(np.asarray(latencies, dtype=np.float64), 25, axis=0) / host_factor


def summarize(latencies: np.ndarray, call_sizes: np.ndarray, host_factor: float) -> dict:
    """End-to-end latency metrics of ``(R, calls)`` call walls in seconds.

    A query's latency is the wall of the call that answered it, so a
    batch call's wall is assigned to each of its ``call_sizes`` queries.
    """
    latencies = np.asarray(latencies, dtype=np.float64)
    sizes = np.asarray(call_sizes, dtype=np.int64)
    settled = per_call_seconds(latencies, host_factor)
    per_query_ms = np.repeat(settled, sizes) * 1e3
    raw_ms = np.repeat(latencies, sizes, axis=1).ravel() * 1e3
    round_walls = latencies.sum(axis=1)
    return {
        "query_p50_ms": float(np.percentile(per_query_ms, 50)),
        "query_p90_ms": float(np.percentile(per_query_ms, 90)),
        "queries_per_s": float(sizes.sum() / settled.sum()),
        "harness.host_factor": host_factor,
        "harness.best_p50_ms": float(
            np.percentile(np.repeat(latencies.min(axis=0), sizes), 50) * 1e3
        ),
        "harness.raw_p50_ms": float(np.percentile(raw_ms, 50)),
        "harness.raw_p99_ms": float(np.percentile(raw_ms, 99)),
        "harness.round_spread": float(round_walls.max() / round_walls.min()),
    }
