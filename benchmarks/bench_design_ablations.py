"""Design-choice ablations the paper reports in prose (DESIGN.md index).

* Buffer management (Section 3.3.1): one pre-allocated HBuffer vs
  per-leaf growable buffers that die on every split.
* Query-threshold sensitivity (Section 4.2): EAPCA_TH x SAX_TH sweep —
  the paper's claim is stability around (0.25, 0.50).
* L_max sensitivity: the approximate phase's leaf budget.
"""

from __future__ import annotations

import numpy as np

from repro.core import HerculesConfig, HerculesIndex
from repro.eval.ablation import build_with_per_leaf_buffers, threshold_sensitivity
from repro.eval.report import format_table
from repro.workloads.generators import make_query_workloads, random_walks

from .conftest import _TABLES, scaled


def test_buffer_strategy_ablation(benchmark):
    """HBuffer vs per-leaf buffers on identical inserts (single thread)."""
    data = random_walks(scaled(6_000), 64, seed=61)
    config = HerculesConfig(
        leaf_capacity=100,
        db_size=512,
    )

    def run_both():
        index = HerculesIndex.build(data, config)
        hbuffer_seconds = index.build_report.build_seconds
        index.close()
        per_leaf = build_with_per_leaf_buffers(data, config)
        return hbuffer_seconds, per_leaf

    hbuffer_seconds, per_leaf = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )

    rows = [
        ["HBuffer (paper design)", hbuffer_seconds, 1, 0],
        [
            "per-leaf buffers (rejected)",
            per_leaf.seconds,
            per_leaf.allocations,
            per_leaf.copies,
        ],
    ]
    _TABLES.append(
        "\nDesign ablation: buffer management (build time, single thread)\n"
        + format_table(["strategy", "build_s", "allocations", "series_copied"], rows)
    )
    # The rejected design must pay materially more allocations and copies.
    assert per_leaf.allocations > 10
    assert per_leaf.copies > data.shape[0]


def test_threshold_sensitivity(benchmark):
    """EAPCA_TH x SAX_TH sweep: stable around the paper's (0.25, 0.50)."""
    raw = random_walks(scaled(4_000), 64, seed=62)
    indexable, query_sets = make_query_workloads(
        raw, queries_per_workload=8, seed=63
    )
    config = HerculesConfig(
        leaf_capacity=100,
        db_size=512,
        l_max=4,
    )
    index = HerculesIndex.build(indexable, config)

    workloads = {
        "1%": query_sets["1%"].queries,
        "ood": query_sets["ood"].queries,
    }
    records = benchmark.pedantic(
        lambda: threshold_sensitivity(index, workloads),
        rounds=1,
        iterations=1,
    )
    rows = [
        [
            r["workload"],
            r["eapca_th"],
            r["sax_th"],
            r["avg_query_seconds"],
            r["avg_data_accessed"],
            "+".join(r["paths"]),
        ]
        for r in records
    ]
    _TABLES.append(
        "\nDesign ablation: EAPCA_TH x SAX_TH sensitivity\n"
        + format_table(
            ["workload", "eapca_th", "sax_th", "avg_query_s", "data_accessed", "paths"],
            rows,
        )
    )

    # Stability claim: on the easy workload, every threshold combination
    # stays within 5x of the best (no catastrophic setting).
    easy = [r["avg_query_seconds"] for r in records if r["workload"] == "1%"]
    assert max(easy) <= 5.0 * min(easy) + 1e-3

    index.close()


def test_split_policy_ablation(benchmark):
    """H-only and mean-only trees vs the full EAPCA split policy.

    The paper's Section 3.2 argues EAPCA trees win by adapting resolution
    both horizontally and vertically, routing on mean or stddev; this
    measures what each dimension contributes on the Seismic analog
    (whose variance structure specifically rewards stddev routing).
    """
    from repro.workloads.datasets import make_analog

    raw = make_analog("Seismic", scaled(3_000), seed=66)
    indexable, query_sets = make_query_workloads(
        raw, queries_per_workload=8, seed=67
    )
    queries = query_sets["5%"].queries

    def build_and_measure():
        rows = []
        for label, flags in (
            ("full (H+V, mean+std)", {}),
            ("H-only", {"allow_vertical_splits": False}),
            ("mean-only", {"allow_std_routing": False}),
            ("H-only, mean-only", {
                "allow_vertical_splits": False,
                "allow_std_routing": False,
            }),
        ):
            config = HerculesConfig(
                leaf_capacity=100,
                db_size=512,
                l_max=3,
                **flags,
            )
            index = HerculesIndex.build(indexable, config)
            accessed = [
                index.knn(q, k=1).profile.data_accessed_fraction(
                    index.num_series
                )
                for q in queries
            ]
            from repro.core.stats import tree_statistics

            stats = tree_statistics(index.root)
            rows.append(
                [
                    label,
                    float(np.mean(accessed)),
                    stats.vertical_splits,
                    stats.std_routed_splits,
                ]
            )
            index.close()
        return rows

    rows = benchmark.pedantic(build_and_measure, rounds=1, iterations=1)
    _TABLES.append(
        "\nDesign ablation: split policy (Seismic analog, 5% workload)\n"
        + format_table(
            ["policy", "data_accessed", "v_splits", "std_splits"], rows
        )
    )
    by_label = {row[0]: row[1] for row in rows}
    # The restricted policies must not prune dramatically better than the
    # full one (the full candidate set subsumes theirs up to heuristics).
    assert by_label["full (H+V, mean+std)"] <= by_label["H-only, mean-only"] * 1.5


def test_l_max_sensitivity(benchmark):
    """L_max sweep: more approximate leaves -> tighter initial BSF."""
    raw = random_walks(scaled(4_000), 64, seed=64)
    indexable, query_sets = make_query_workloads(
        raw, queries_per_workload=8, seed=65
    )
    config = HerculesConfig(
        leaf_capacity=100,
        db_size=512,
    )
    index = HerculesIndex.build(indexable, config)
    queries = query_sets["5%"].queries

    def sweep():
        rows = []
        for l_max in (1, 2, 4, 8, 16):
            variant = index.config.with_options(l_max=l_max)
            accessed = []
            times = []
            for query in queries:
                answer = index.knn(query, k=1, config=variant)
                accessed.append(
                    answer.profile.data_accessed_fraction(index.num_series)
                )
                times.append(answer.profile.time_total)
            rows.append([l_max, float(np.mean(times)), float(np.mean(accessed))])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _TABLES.append(
        "\nDesign ablation: L_max sensitivity (5% workload)\n"
        + format_table(["l_max", "avg_query_s", "data_accessed"], rows)
    )
    index.close()
