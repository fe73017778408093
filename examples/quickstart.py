#!/usr/bin/env python3
"""Quickstart: build a Hercules index, run exact k-NN queries, persist it.

Run from the repository root (after ``pip install -e .``):

    python examples/quickstart.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import HerculesConfig, HerculesIndex
from repro.workloads.generators import make_noise_queries, random_walks


def main() -> None:
    # --- 1. A dataset: 20,000 z-normalized random-walk series ------------
    print("Generating 20,000 random-walk series of length 128 ...")
    data = random_walks(20_000, 128, seed=42)

    # --- 2. Build the index ----------------------------------------------
    # The configuration mirrors the paper's Section 4.2 defaults, scaled:
    # shared EAPCA/iSAX summaries, an HBuffer that spills to disk when
    # full, and the adaptive query thresholds EAPCA_TH/SAX_TH.
    config = HerculesConfig(
        leaf_capacity=200,
        db_size=1024,
        l_max=8,
    )
    workdir = Path(tempfile.mkdtemp(prefix="hercules-quickstart-"))
    index = HerculesIndex.build(data, config, directory=workdir)
    report = index.build_report
    print(
        f"Built {index}: {report.num_leaves} leaves, "
        f"{report.splits} splits, {report.flushes} flushes, "
        f"build {report.build_seconds:.2f}s + write {report.write_seconds:.2f}s"
    )

    # --- 3. Query it -------------------------------------------------------
    queries = make_noise_queries(data, count=3, noise_variance=0.05, seed=7)
    for i, query in enumerate(queries):
        answer = index.knn(query, k=5)
        profile = answer.profile
        print(
            f"\nQuery {i}: 5-NN distances "
            f"{np.array2string(answer.distances, precision=3)}"
        )
        print(
            f"  path={profile.path}  "
            f"EAPCA pruning={profile.eapca_pruning:.1%}  "
            f"data accessed={profile.data_accessed_fraction(index.num_series):.2%}  "
            f"time={profile.time_total * 1e3:.1f} ms"
        )

    # --- 4. Persist and reopen ----------------------------------------------
    # build() already materialized HTree/LRDFile/LSDFile into workdir;
    # open() reconstructs a queryable index from those three files.
    index.close()
    reopened = HerculesIndex.open(workdir)
    answer = reopened.knn(queries[0], k=1)
    print(
        f"\nReopened from {workdir}: 1-NN distance {answer.distances[0]:.3f} "
        f"(same as before)"
    )
    reopened.close()


if __name__ == "__main__":
    main()
