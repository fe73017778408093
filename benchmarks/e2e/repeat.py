"""``python -m benchmarks.e2e.repeat``: is the benchmark steady enough?

Runs ``--sets`` sets of ``--runs`` runs of the *same* code and seed,
interleaved (A B A B ...) so a slow spell of the host lands on every set
alike, and prints per workload and end-to-end metric each set's median,
the gap between the first set and the worst other one, the metric's
bound, and the quartile spread of all runs.  Exits non-zero when a gap
exceeds its bound, an answer fails the oracle, or the count metrics of
an unsharded workload differ between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from benchmarks.e2e.runner import run
from benchmarks.e2e.spec import END_TO_END, EXACT_COUNTS, RUNS, WORKLOADS

#: Every run uses this seed, so counts must repeat exactly.
SEED = 0


def relative_gap(first: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``first``, as a share of ``first``."""
    worse = other - first if better == "lower" else first - other
    return worse / abs(first)


def quartile_spread(values: list) -> float:
    """(Q3 - Q1) / median, the driver's measure of run-to-run spread."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.repeat")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)

    # results[workload][set] = [result of run 0, run 1, ...]
    results = {name: [[] for _ in range(args.sets)] for name in names}
    for i in range(args.runs):
        for s in range(args.sets):
            for name in names:
                workload = WORKLOADS[name]
                result = run(workload, SEED, workload.rounds, trace=True,
                             scale=1.0, label=f"repeat-{name}")
                results[name][s].append(result)
                print(f"run {i} set {s} {name}: "
                      f"{result['failed']} of {result['attempted']} failed, "
                      f"{result['wall_s']:.1f} s",
                      file=sys.stderr)

    (RUNS / "repeat.json").write_text(json.dumps(results, indent=1))

    failures = []
    print(f"{'workload':<15} {'metric':<26} " + " ".join(
        f"{'median ' + chr(65 + s):>12}" for s in range(args.sets)
    ) + f" {'gap':>8} {'bound':>6} {'spread':>7}")
    for name in names:
        for metric, _, better, bound in END_TO_END:
            sets = [[r["end_to_end"][metric] for r in runs] for runs in results[name]]
            medians = [statistics.median(values) for values in sets]
            gap = max(
                (relative_gap(medians[0], other, better) for other in medians[1:]),
                default=0.0,
            )
            everything = [value for values in sets for value in values]
            spread = quartile_spread(everything) if len(everything) > 1 else 0.0
            flag = ""
            if abs(gap) > bound:
                flag = "  OVER BOUND"
                failures.append(f"{name} {metric}: gap {gap:+.1%} over bound {bound:.0%}")
            print(f"{name:<15} {metric:<26} " + " ".join(f"{m:>12.5g}" for m in medians)
                  + f" {gap:>+8.1%} {bound:>6.0%} {spread:>7.1%}{flag}")
        everything = [r for runs in results[name] for r in runs]
        if any(r["failed"] for r in everything):
            failures.append(f"{name}: some answers failed the oracle")
        if WORKLOADS[name].shards > 1:
            continue
        counts = [
            [r["per_layer"][metric] for metric in EXACT_COUNTS]
            + [r["end_to_end"]["index_bytes_per_data_byte"]]
            for r in everything
        ]
        if any(row != counts[0] for row in counts[1:]):
            failures.append(f"{name}: count metrics differ between runs of one seed")
        else:
            print(f"{name:<15} {len(counts[0])} count metrics identical over "
                  f"{len(counts)} runs")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
