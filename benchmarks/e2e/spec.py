"""The benchmark's fixed definition: scale, workloads and metric names.

The contract half (command, workload names and reasons, metric names
with unit, direction and bound, ``run_seconds``) lives in
``BENCHMARK.json`` at the repository root and is loaded from there, so
it is declared once.  What the contract's schema has no key for (N, L,
Q, R, k, noise, probes per workload) is declared here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Everything the benchmark writes goes under here (git-ignored).
RUNS = HERE / "_runs"

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: (name, unit, better, bound): what a user of the engine sees.
END_TO_END = tuple(
    (m["name"], m["unit"], m["better"], m["bound"]) for m in DECLARED["end_to_end"]
)
#: (name, unit, better): single layers, prefix = module.  A workload
#: that bypasses a layer (or does not run its probe) reports 0.
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"])

#: Series indexed at ``--scale 1`` and their length.  At 32 768 series
#: (the size the benchmark was first sized for) a serial-hard run with
#: half the rounds takes the whole per-run share of the driver's time cap
#: on a 2-vCPU host (README, "Scale"); ``--scale 2`` restores it by hand.
BASE_SERIES = 16384
SERIES_LENGTH = 256

#: Nominal length of the timed rounds.  ``--seconds`` scales the round
#: count R against it, so one value of ``--seconds`` always means
#: identical work.
RUN_SECONDS = DECLARED["run_seconds"]

#: Queries answered (untimed) before the first timed round.
WARMUP_QUERIES = 16


@dataclass(frozen=True)
class Workload:
    """One closed-loop, single-client query workload."""

    name: str
    #: Gaussian noise variance added to dataset series to make queries.
    noise_variance: float
    #: Offset added to ``--seed`` for this query set; workloads with the
    #: same offset and variance draw the same queries.
    query_seed_offset: int
    k: int
    num_queries: int
    rounds: int
    #: Queries per ``knn_batch`` call; 0 answers one ``knn`` per query.
    batch_size: int = 0
    #: Index shards = build processes = query pool workers (1: plain).
    shards: int = 1
    #: Leading queries replayed by the traced pass.
    traced_queries: int = 0
    #: Side probes only this workload runs (see ``layers.probes``).
    probes: tuple = ()

    def call_size(self) -> int:
        return self.batch_size or 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="serial-easy",
            noise_variance=0.01,
            query_seed_offset=1,
            k=1,
            num_queries=256,
            rounds=12,
            traced_queries=256,
            probes=("build-1thread",),
        ),
        Workload(
            name="serial-hard",
            noise_variance=2.0,
            query_seed_offset=3,
            k=10,
            num_queries=100,
            rounds=4,
            traced_queries=50,
            probes=("leaf-cache",),
        ),
        Workload(
            name="batch-medium",
            noise_variance=0.5,
            query_seed_offset=2,
            k=10,
            num_queries=256,
            rounds=3,
            batch_size=64,
            traced_queries=64,
        ),
        Workload(
            name="sharded-medium",
            noise_variance=0.5,
            query_seed_offset=2,
            k=10,
            num_queries=128,
            rounds=6,
            shards=2,
            traced_queries=128,
        ),
    )
}

#: Per-layer metrics that are pure counts of a single-threaded engine:
#: ``repeat`` asserts they are identical across runs of one seed on the
#: three unsharded workloads.
EXACT_COUNTS = (
    "storage.read_calls_per_query",
    "storage.bytes_read_per_query",
    "storage.random_seeks_per_query",
    "distance.kernel_rows_per_query",
    "query.path_approx_only",
    "query.path_four_phase",
    "query.path_eapca_skipseq",
    "query.path_sax_skipseq",
    "construction.splits",
    "construction.leaves",
)


def rounds_for(workload: Workload, seconds: float) -> int:
    """Timed rounds for a ``--seconds`` budget: R scaled, never below 1."""
    return max(1, round(workload.rounds * seconds / RUN_SECONDS))


def num_series_for(scale: float) -> int:
    return max(int(BASE_SERIES * scale), 64)
