#!/usr/bin/env python3
"""Image-embedding similarity search: the paper's Deep workload.

Deep-network embeddings are "notoriously hard" for every pruning-based
index (Section 4.2, Figure 10e): pairwise distances concentrate, lower
bounds stop discriminating, and most indexes degenerate below a plain
parallel scan.  This example reproduces that story at laptop scale on the
Deep analog: it compares Hercules against the optimized parallel scan
(PSCAN) and the DSTree* baseline on easy and hard queries, printing the
work each method performs.

    python examples/embedding_search.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import HerculesConfig, HerculesIndex
from repro.baselines import DSTreeConfig, DSTreeIndex, PScan
from repro.eval.metrics import run_workload
from repro.eval.report import print_table
from repro.workloads.datasets import deep_like
from repro.workloads.generators import make_query_workloads


def main() -> None:
    print("Generating 10,000 CNN-embedding-like vectors (length 96) ...")
    raw = deep_like(10_000, 96, seed=21)
    embeddings, workloads = make_query_workloads(
        raw, queries_per_workload=10, seed=22
    )

    workdir = Path(tempfile.mkdtemp(prefix="hercules-embeddings-"))
    print("Building Hercules, DSTree*, and PSCAN over the collection ...")
    hercules = HerculesIndex.build(
        embeddings,
        HerculesConfig(
            leaf_capacity=150,
            db_size=1024,
            l_max=5,
        ),
        directory=workdir,
    )
    dstree = DSTreeIndex.build(embeddings, DSTreeConfig(leaf_capacity=150))
    pscan = PScan(embeddings, num_threads=4)

    rows = []
    for label in ("1%", "10%", "ood"):
        queries = workloads[label].queries
        for name, method in (
            ("Hercules", hercules),
            ("DSTree*", dstree),
            ("PSCAN", pscan),
        ):
            result = run_workload(method, queries, k=10, workload=label)
            rows.append(
                [
                    label,
                    name,
                    f"{result.avg_query_seconds * 1e3:.2f} ms",
                    f"{result.avg_data_accessed:.1%}",
                    int(result.avg_distance_computations),
                ]
            )
    print_table(
        "10-NN retrieval over 10K embeddings (per-query averages)",
        ["workload", "method", "avg time", "data accessed", "full distances"],
        rows,
    )

    print(
        "\nReading the table: on easy (1%) queries the indexes prune almost"
        "\neverything; as difficulty grows toward out-of-dataset queries the"
        "\naccessed fraction climbs toward 100% and Hercules adapts by"
        "\nswitching to its skip-sequential path instead of issuing per-series"
        "\nrandom reads — the behaviour behind Figure 10e of the paper."
    )

    hercules.close()
    dstree.close()
    pscan.close()


if __name__ == "__main__":
    main()
