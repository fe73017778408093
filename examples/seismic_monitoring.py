#!/usr/bin/env python3
"""Seismic-event retrieval: the paper's Seismic workload, end to end.

Scenario (Section 1's motivation): a monitoring service holds a large
archive of past seismograms and, whenever a new event is recorded, must
retrieve the most similar historical recordings — exactly, because a
mismatch sends an analyst down the wrong path.

This example indexes a Seismic-analog archive, then answers two kinds of
queries and shows how Hercules *adapts its access path per query*
(Section 3.4): a recording of a known event type prunes well and flows
through the four-phase path, while a never-seen event defeats pruning and
Hercules falls back to a skip-sequential scan of its leaf-ordered LRDFile
— the design that keeps it ahead of a scan even on hard queries.

    python examples/seismic_monitoring.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import HerculesConfig, HerculesIndex
from repro.workloads.datasets import seismic_like
from repro.workloads.generators import make_ood_split, make_noise_queries


def main() -> None:
    print("Building the historical archive (12,000 seismograms, length 256) ...")
    archive = seismic_like(12_000, 256, seed=11)
    # Hold out recordings that the index never sees: "new" events.
    indexed, unseen_events = make_ood_split(archive, num_queries=5, seed=12)

    config = HerculesConfig(
        leaf_capacity=150,
        db_size=1024,
        l_max=6,
    )
    workdir = Path(tempfile.mkdtemp(prefix="hercules-seismic-"))
    index = HerculesIndex.build(indexed, config, directory=workdir)
    print(
        f"Archive indexed: {index.num_leaves} leaves, "
        f"construction {index.build_report.total_seconds:.2f}s\n"
    )

    def investigate(label: str, recording: np.ndarray, k: int = 1) -> None:
        answer = index.knn(recording, k=k)
        profile = answer.profile
        print(f"{label}")
        print(
            f"  {k} closest archive event(s): positions "
            f"{[int(p) for p in answer.positions]}, "
            f"distances {np.array2string(answer.distances, precision=2)}"
        )
        print(
            f"  access path: {profile.path:>16}   "
            f"EAPCA pruning {profile.eapca_pruning:6.1%}   "
            f"archive touched {profile.data_accessed_fraction(index.num_series):6.2%}"
        )

    # A recording similar to archived events: a perturbed archive member.
    known = make_noise_queries(indexed, count=2, noise_variance=0.01, seed=13)
    investigate("Known event (sensor echo of an archived event), 1-NN:", known[0])
    investigate("Known event, second station, 1-NN:", known[1])

    # The same query at k=3 is much harder: the archive holds exactly ONE
    # recording of this event, so the exact 2nd/3rd neighbors are far away,
    # BSF_k is large, and pruning legitimately collapses — Hercules adapts
    # by switching to its skip-sequential path instead of random I/O.
    investigate("Same event, but asking for 3 neighbors:", known[0], k=3)

    # Recordings of events the archive has never seen.
    for i, event in enumerate(unseen_events[:2]):
        investigate(f"Novel event #{i} (out-of-archive), 1-NN:", event)

    # The exactness guarantee: verify one answer against brute force.
    query = known[0].astype(np.float64)
    brute = np.sqrt(((indexed.astype(np.float64) - query) ** 2).sum(axis=1))
    assert np.isclose(np.sort(brute)[0], index.knn(known[0], k=1).distances[0],
                      atol=1e-5)
    print("\nVerified: index answers match a brute-force scan exactly.")
    index.close()


if __name__ == "__main__":
    main()
