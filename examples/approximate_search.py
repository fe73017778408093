#!/usr/bin/env python3
"""Approximate query answering: the paper's stated next step (§5).

Hercules' conclusion points at approximate answering with and without
quality guarantees.  This example demonstrates both modes this
reproduction implements on top of the exact pipeline:

* **approximate-only** — stop after the tree descent (Algorithm 11);
  recall grows with the leaf budget ``L_max``;
* **ε-approximate** — run the full pipeline with every pruning
  comparison tightened by (1+ε); answers carry a hard guarantee
  (reported k-th distance ≤ (1+ε) · exact k-th distance) while pruning
  gets more aggressive.

    python examples/approximate_search.py
"""

import numpy as np

from repro import HerculesConfig, HerculesIndex
from repro.eval.report import print_table
from repro.workloads.generators import make_query_workloads, random_walks


def main() -> None:
    print("Building an index over 15,000 random walks (length 128) ...")
    raw = random_walks(15_000, 128, seed=71)
    data, workloads = make_query_workloads(raw, queries_per_workload=20, seed=72)
    config = HerculesConfig(
        leaf_capacity=150,
        db_size=1024,
        l_max=4,
    )
    index = HerculesIndex.build(data, config)
    queries = workloads["5%"].queries

    exact = [index.knn(q, k=10) for q in queries]
    exact_kth = np.array([a.distances[-1] for a in exact])

    # --- approximate-only: recall vs leaf budget --------------------------
    rows = []
    for l_max in (1, 2, 4, 8, 16, 32):
        recalls = []
        times = []
        for q, ex in zip(queries, exact):
            approx = index.knn_approx(q, k=10, l_max=l_max)
            hits = np.isin(approx.positions, ex.positions).sum()
            recalls.append(hits / 10)
            times.append(approx.profile.time_total)
        rows.append(
            [l_max, f"{np.mean(recalls):.1%}", f"{np.mean(times) * 1e3:.2f} ms"]
        )
    print_table(
        "Approximate-only search: recall@10 vs leaf budget (L_max)",
        ["L_max", "recall@10", "avg time"],
        rows,
    )

    # --- ε-approximate: guaranteed quality vs work -------------------------
    rows = []
    for epsilon in (0.0, 0.05, 0.1, 0.25, 0.5, 1.0):
        variant = index.config.with_options(epsilon=epsilon)
        ratios = []
        accessed = []
        for q, true_kth in zip(queries, exact_kth):
            answer = index.knn(q, k=10, config=variant)
            ratios.append(answer.distances[-1] / true_kth)
            accessed.append(
                answer.profile.data_accessed_fraction(index.num_series)
            )
            assert answer.distances[-1] <= (1 + epsilon) * true_kth + 1e-6
        rows.append(
            [
                epsilon,
                f"{max(ratios):.4f}",
                f"{1 + epsilon:.2f}",
                f"{np.mean(accessed):.2%}",
            ]
        )
    print_table(
        "ε-approximate search: worst observed ratio vs guarantee",
        ["epsilon", "worst kth ratio", "guarantee", "data accessed"],
        rows,
    )
    print(
        "\nObserved ratios stay far below the guarantee — ε buys pruning"
        "\n(falling data-accessed column) at a bounded, usually invisible,"
        "\nquality cost."
    )
    index.close()


if __name__ == "__main__":
    main()
