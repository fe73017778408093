"""Figure 12: ablation study on the Deep analog.

Paper, 12a (index construction): DSTree* (single-core), DSTree*P (naive
parallelization — workers lock entire root-to-leaf paths to maintain
internal statistics), NoWPara (Hercules with sequential index writing),
and Hercules.  Deferring internal-synopsis maintenance to the writing
phase and parallelizing that phase bottom-up gives Hercules the fastest
construction.  Here the parallel writer wrote slower than the sequential
pass and is retired, so the Hercules arm is the paper's NoWPara: 12a
compares DSTree*, DSTree*P and Hercules.

Paper, 12b (query answering): removing the iSAX filter (NoSAX), the
query parallelism (NoPara), or the adaptive thresholds (NoThresh) never
helps and hurts on its target regime — NoSAX always, NoPara on easy and
medium queries, NoThresh on hard (ood) ones.  Here the query threads
answered slower than one thread and are retired, so the Hercules arm is
the paper's NoPara: 12b compares Hercules, NoSAX and NoThresh.
"""

from __future__ import annotations

import statistics

from repro.eval.experiments import (
    figure12_ablation_indexing,
    figure12_ablation_query,
)

from .conftest import record_table, scaled


def test_figure12a_ablation_indexing(benchmark):
    # At small scales one build wall is a few tens of ms, so one run per
    # arm is noise-bound: run the figure three times, compare medians.
    results = benchmark.pedantic(
        lambda: [
            figure12_ablation_indexing(size=scaled(6_000), verbose=False)
            for _ in range(3)
        ],
        rounds=1,
        iterations=1,
    )
    median = {
        arm: statistics.median(result.raw[arm] for result in results)
        for arm in ("Hercules", "DSTree*", "DSTree*P")
    }
    representative = sorted(results, key=lambda result: result.raw["Hercules"])[1]
    record_table(
        "Figure 12a: ablation - index construction (Deep analog)", representative
    )

    # Hercules constructs faster than both DSTree variants (paper 12a).
    assert median["Hercules"] < median["DSTree*"]
    assert median["Hercules"] < median["DSTree*P"]


def test_figure12b_ablation_query(benchmark):
    result = benchmark.pedantic(
        lambda: figure12_ablation_query(
            size=scaled(6_000),
            num_queries=15,
            workloads=("1%", "5%", "ood"),
            verbose=False,
        ),
        rounds=1,
        iterations=1,
    )
    record_table("Figure 12b: ablation - query answering (Deep analog)", result)

    # NoSAX reads at least as much raw data as full Hercules on every
    # workload (the iSAX filter only ever removes candidates).
    for workload in ("1%", "5%", "ood"):
        nosax = result.raw[(workload, "NoSAX")].avg_data_accessed
        full = result.raw[(workload, "Hercules")].avg_data_accessed
        assert nosax >= full * 0.9
    # The thresholds exist for hard queries: on ood, NoThresh must not
    # access less data than adaptive Hercules.
    assert (
        result.raw[("ood", "NoThresh")].avg_data_accessed
        >= result.raw[("ood", "Hercules")].avg_data_accessed * 0.9
    )
