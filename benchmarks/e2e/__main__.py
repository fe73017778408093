"""``python -m benchmarks.e2e``: run one workload and print its metrics.

Prints every metric by name with its unit and sample counts, then ends
with the one-line JSON object the benchmark contract asks for:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.e2e.runner import run
from benchmarks.e2e.spec import (
    END_TO_END,
    PER_LAYER,
    ROOT,
    RUN_SECONDS,
    SERIES_LENGTH,
    WORKLOADS,
    rounds_for,
)

SELFTEST_SCALE = 0.03


def report(workload, result: dict) -> None:
    """Every measured metric by name, with its unit and sample counts."""
    plan = result["plan"]
    print(
        f"workload {workload.name}  seed {plan['seed']}  "
        f"N={plan['num_series']} L={SERIES_LENGTH} k={workload.k}  "
        f"Q={workload.num_queries} R={plan['rounds']}  closed loop, 1 client  "
        f"(run took {result['wall_s']:.1f} s)"
    )
    print(
        f"end-to-end  (times / host factor; per query the lower quartile of "
        f"R={plan['rounds']} rounds, percentiles over Q={workload.num_queries} "
        "queries; setup_s: median of 3 builds)"
    )
    for name, unit, _, _ in END_TO_END:
        print(f"  {name:<36} {result['end_to_end'][name]:>14.6g} {unit}")
    print(
        f"  {'failed_fraction':<36} {result['failed'] / result['attempted']:>14.6g} ratio"
        f"  ({result['failed']} of {result['attempted']} answers)"
    )
    if result["per_layer"]:
        print(
            f"per-layer  (traced pass: {result['traced_queries']} queries, 1 round; "
            "0 = layer bypassed or probe not run on this workload)"
        )
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<36} {result['per_layer'][name]:>14.6g} {unit}")


def selftest(workload, seed: int) -> int:
    """Prove the oracle sees failures: one raise, two corrupted answers."""
    rounds = 2
    result = run(workload, seed, rounds, trace=False, scale=SELFTEST_SCALE,
                 label="selftest", selftest=True)
    expected_failed = rounds * workload.call_size() + 2
    expected_attempted = rounds * workload.num_queries
    ok = (result["failed"], result["attempted"]) == (expected_failed, expected_attempted)
    print(
        f"selftest {'ok' if ok else 'FAILED'}: failed_fraction = "
        f"{result['failed']}/{result['attempted']} "
        f"(expected {expected_failed}/{expected_attempted}: a call that raises in each of "
        f"{rounds} rounds, one corrupted position, one corrupted distance)"
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="serial-easy")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="scales the timed rounds R (R x seconds / %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced pass and probes and reports per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset size multiplier (8 for >=100K series by hand)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no engine source at {ROOT / 'src' / 'repro'}: nothing to measure")
    workload = WORKLOADS[args.workload]
    if args.selftest:
        return selftest(workload, args.seed)
    rounds = rounds_for(workload, args.seconds)
    result = run(workload, args.seed, rounds, trace=bool(args.trace),
                 scale=args.scale, label=workload.name)
    report(workload, result)
    declared = PER_LAYER if args.trace else END_TO_END
    values = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit, *_ in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
