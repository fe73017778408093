"""Benchmark regression diffing for the REPRO_BENCH_JSON dumps.

The benchmark harnesses dump ``{"figures": [{figure, title, headers,
rows, raw}, ...]}`` files (BENCH_query.json, BENCH_build.json, ...).
``repro bench-diff baseline.json fresh.json`` compares the two and
fails when a gated metric regressed by more than the threshold, or when
a metric the baseline gates is missing from the fresh run — a baseline
key nothing reports any more would otherwise stop gating in silence.

Only metrics that diff cleanly across machines are gated by default —
ratios, counts, modeled costs, throughput *relative* numbers — because
CI runners are not the committer's laptop.  Wall-clock metrics
(``*_seconds`` and ``*_ms`` that are not ``modeled_*``) join the gate
with ``--include-timings``, which makes sense when baseline and fresh
come from the same run environment (the CI job produces both).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

__all__ = ["BenchDiffReport", "DiffRow", "diff_bench_files", "diff_figures"]

#: Key fragments whose metrics are better when they go *up*.
_HIGHER_BETTER = (
    "per_s",
    "per_sec",
    "speedup",
    "hit_rate",
    "throughput",
    "qps",
    "abandoned",  # fraction of points early-abandoning saved
)

#: Key fragments whose metrics are better when they go *down* and are
#: hardware-independent (modeled costs, operation/work counts).
_LOWER_BETTER = (
    "modeled",
    "read_calls",
    "write_calls",
    "random_seeks",
    "bytes_read",
    "bytes_written",
    "distance_computations",
    "series_accessed",
    "data_accessed",
    "lrd_read",
    "traced_peak",  # tracemalloc's peak: bytes allocated, not resident
)


def _is_timing(key: str) -> bool:
    lowered = key.lower()
    if "modeled" in lowered:
        return False
    return "seconds" in lowered or lowered.endswith("_ms")


def _direction(key: str, include_timings: bool) -> Optional[str]:
    """'up', 'down', or None when the metric is not gated."""
    lowered = key.lower()
    if any(tag in lowered for tag in _HIGHER_BETTER):
        return "up"
    if _is_timing(lowered):
        return "down" if include_timings else None
    if any(tag in lowered for tag in _LOWER_BETTER):
        return "down"
    return None


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key),
                     value[key], out)
    elif isinstance(value, bool):
        return
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)


def flatten_figures(doc: dict) -> dict:
    """``{figure}.{raw path}`` → value, for every numeric raw metric."""
    out: dict = {}
    for figure in doc.get("figures", []):
        name = figure.get("figure", "figure")
        _flatten(name, figure.get("raw", {}), out)
    return out


@dataclass
class DiffRow:
    key: str
    baseline: float
    fresh: float
    direction: str
    #: Relative change in the *bad* direction; negative means improved.
    regression: float

    @property
    def delta_pct(self) -> float:
        if self.baseline == 0:
            return 0.0
        return (self.fresh - self.baseline) / self.baseline * 100.0


@dataclass
class BenchDiffReport:
    threshold: float
    rows: list = field(default_factory=list)
    regressions: list = field(default_factory=list)
    skipped: int = 0
    #: Gated baseline keys the fresh run does not report (or reports as
    #: a non-number); each fails the diff.
    missing: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.regressions or self.missing)

    def render(self) -> str:
        lines = [
            f"bench-diff: {len(self.rows)} gated metrics, "
            f"threshold {self.threshold:.0%} "
            f"({self.skipped} ungated values skipped)"
        ]
        width = max((len(r.key) for r in self.rows), default=10)
        for row in sorted(self.rows, key=lambda r: -r.regression):
            verdict = (
                "REGRESSED" if row.regression > self.threshold else "ok"
            )
            arrow = "higher=better" if row.direction == "up" else "lower=better"
            lines.append(
                f"  {row.key:<{width}}  {row.baseline:>12.4f} -> "
                f"{row.fresh:>12.4f}  ({row.delta_pct:+7.2f}%, {arrow})  "
                f"{verdict}"
            )
        for key in self.missing:
            lines.append(f"  {key}: present in baseline, missing in fresh")
        if self.regressions:
            worst = max(r.regression for r in self.regressions)
            lines.append(
                f"FAIL: {len(self.regressions)} metric(s) regressed beyond "
                f"{self.threshold:.0%} (worst {worst:+.1%})"
            )
        if self.missing:
            lines.append(
                f"FAIL: {len(self.missing)} gated baseline metric(s) missing "
                f"in the fresh run"
            )
        if not self.failed:
            lines.append("PASS: no gated metric regressed beyond threshold")
        return "\n".join(lines)


def diff_figures(
    baseline: dict,
    fresh: dict,
    threshold: float = 0.2,
    include_timings: bool = False,
    ignore: Iterable[str] = (),
) -> BenchDiffReport:
    """Diff two parsed REPRO_BENCH_JSON documents."""
    ignore = tuple(ignore)
    base_flat = flatten_figures(baseline)
    fresh_flat = flatten_figures(fresh)
    report = BenchDiffReport(threshold=threshold)
    for key, base_value in sorted(base_flat.items()):
        if any(fragment in key for fragment in ignore):
            report.skipped += 1
            continue
        direction = _direction(key, include_timings)
        if direction is None:
            report.skipped += 1
            continue
        if key not in fresh_flat:
            report.missing.append(key)
            continue
        fresh_value = fresh_flat[key]
        if base_value == 0.0:
            # Nothing to be relative to; a zero baseline count can only
            # regress by becoming nonzero in the bad direction.
            regression = (
                1.0 if direction == "down" and fresh_value > 0.0 else 0.0
            )
        elif direction == "up":
            regression = (base_value - fresh_value) / abs(base_value)
        else:
            regression = (fresh_value - base_value) / abs(base_value)
        row = DiffRow(
            key=key,
            baseline=base_value,
            fresh=fresh_value,
            direction=direction,
            regression=regression,
        )
        report.rows.append(row)
        if regression > threshold:
            report.regressions.append(row)
    return report


def diff_bench_files(
    baseline_path,
    fresh_path,
    threshold: float = 0.2,
    include_timings: bool = False,
    ignore: Iterable[str] = (),
) -> BenchDiffReport:
    """Diff two REPRO_BENCH_JSON files on disk."""
    with open(Path(baseline_path), encoding="utf-8") as fh:
        baseline = json.load(fh)
    with open(Path(fresh_path), encoding="utf-8") as fh:
        fresh = json.load(fh)
    return diff_figures(
        baseline,
        fresh,
        threshold=threshold,
        include_timings=include_timings,
        ignore=ignore,
    )
