"""Build-throughput benchmark: per-row vs grouped batch insertion.

Not a paper figure: this pins the construction-path speedup of grouped
batch insertion (vectorized routing, bulk HBuffer stores, one synopsis
update per (leaf, group)) against the per-row reference path on the one
build loop, in the shape of the paper's Table 4 (per-phase breakdown of
index building).

Both paths build bit-for-bit identical trees — the benchmark asserts
the cheap part of that (split count, leaf count, node-id watermark) and
leaves full parity to ``tests/core/test_build_parity.py``.

Run with ``REPRO_BENCH_JSON=BENCH_build.json`` to dump the measured
series/sec (hardware-dependent) and the speedup ratios (stable) as a
JSON artifact; CI fails the perf-smoke job if batched insertion is
slower than the per-row path.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import HerculesConfig
from repro.core.construction import build_tree
from repro.storage.dataset import Dataset
from repro.storage.files import SeriesFile
from repro.workloads.generators import random_walks

from .conftest import record_table, scaled

#: Tree-shape knobs shared by every scenario.  The leaf capacity and the
#: coarse initial segmentation follow the paper's regime — Hercules uses
#: leaf thresholds far above the per-node series count of small datasets
#: (Section 5: 100k-series leaves) and DSTree-style trees start from a
#: near-trivial segmentation and refine via splits — which also keeps
#: split cost (identical on both paths) from drowning the insert-path
#: difference; ``buffer_capacity=None`` sizes HBuffer to the dataset so
#: no flushes run and the measurement is pure insertion.
_BASE = dict(leaf_capacity=2048, initial_segments=2, db_size=1024)


@pytest.fixture(scope="module")
def data():
    return random_walks(scaled(8_000), 64, seed=17)


def _build_once(tmp_path, data, **config_kwargs):
    """One timed tree build; returns (seconds, context)."""
    config = HerculesConfig(**_BASE, **config_kwargs)
    spill = SeriesFile(tmp_path / "spill.bin", data.shape[1])
    dataset = Dataset.from_array(data)
    started = time.perf_counter()
    ctx = build_tree(dataset, config, spill)
    seconds = time.perf_counter() - started
    spill.close()
    (tmp_path / "spill.bin").unlink()
    return seconds, ctx


def _measure(tmp_path, data, repeats: int = 3, **config_kwargs):
    """Best-of-N build; returns (seconds, series_per_sec, context)."""
    best, ctx = float("inf"), None
    for _ in range(repeats):
        seconds, ctx = _build_once(tmp_path, data, **config_kwargs)
        best = min(best, seconds)
    return best, data.shape[0] / best, ctx


def _signature(ctx):
    """Cheap tree-identity fingerprint (full parity lives in tests/)."""
    leaves = [
        (leaf.node_id, leaf.size) for leaf in ctx.root.iter_leaves_inorder()
    ]
    return ctx.splits, ctx.node_ids, leaves


def test_build_throughput(tmp_path, data):
    from repro.eval.experiments import ExperimentResult

    result = ExperimentResult(
        figure="bench_build",
        headers=["mode", "threads", "claim", "seconds", "series_per_s",
                 "speedup"],
    )

    # Keys keep the ``mode/threads/claim`` shape of the committed
    # baseline (one thread, the whole batch per insert call).
    signatures = {}
    for mode in ("per_row", "batched"):
        seconds, sps, ctx = _measure(
            tmp_path, data, batched_inserts=(mode == "batched")
        )
        if mode == "per_row":
            baseline = sps
        speedup = sps / baseline
        result.rows.append(
            [mode, 1, "auto", round(seconds, 4), round(sps, 1),
             round(speedup, 2)]
        )
        result.raw[f"{mode}/1/auto"] = {
            "seconds": seconds,
            "series_per_sec": sps,
            "speedup": speedup,
            "phases": ctx.timers.seconds(),
        }
        signatures[mode] = _signature(ctx)

    # Both modes build the same tree: the same splits, node ids, and
    # leaf sizes.
    assert signatures["batched"] == signatures["per_row"]

    record_table(
        "Build throughput: per-row vs grouped batch insertion", result
    )

    # The CI gate: batched insertion must never lose to the per-row path.
    # (The ISSUE's >=5x single-thread target is checked out-of-band on
    # the JSON artifact; hard-failing on it here would make the suite
    # flaky on loaded CI runners.)
    batched_sps = result.raw["batched/1/auto"]["series_per_sec"]
    per_row_sps = result.raw["per_row/1/auto"]["series_per_sec"]
    assert batched_sps >= per_row_sps, (
        f"batched insertion ({batched_sps:.0f}/s) slower than per-row "
        f"({per_row_sps:.0f}/s)"
    )
