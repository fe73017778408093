"""One benchmark run: the stages as child processes, results merged.

The process that calls :func:`run` only orchestrates: it writes the
plan, runs generate / build / serve / build one after the other, each in
a process of its own, and merges what they measured.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.spec import PER_LAYER, ROOT, RUNS, num_series_for

#: Seconds one stage may take before its process group is killed; the
#: contract gives the whole run 180.
STAGE_TIMEOUT = 150.0


def run_stage(run_dir: Path, *args: str) -> dict:
    """Run one stage to completion in its own process group."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")])
    )
    # One BLAS thread, like the one query thread: on two shared cores
    # OpenBLAS's second thread bought no speed and tripled the spread
    # between runs of batch-medium (README, "Estimators").
    env["OPENBLAS_NUM_THREADS"] = "1"
    command = [sys.executable, "-m", "benchmarks.e2e.stages", args[0], str(run_dir), *args[1:]]
    # stdout is reserved for the result; a new session lets a stuck stage
    # be killed together with the pool workers it started.
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = child.wait(timeout=STAGE_TIMEOUT)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if code != 0:
        raise SystemExit(f"stage {' '.join(args)} exited with code {code}")
    return json.loads((run_dir / f"{'-'.join(args[:2])}.json").read_text())


def run(workload, seed: int, rounds: int, *, trace: bool, scale: float,
        label: str, selftest: bool = False) -> dict:
    """One full run; returns the merged result (also ``result.json``).

    The run owns ``_runs/<label>``: whatever an earlier run left there
    is deleted first, and nothing is written anywhere else.
    """
    started = time.perf_counter()
    run_dir = RUNS / label
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    plan = {
        "workload": workload.name,
        "seed": seed,
        "num_series": num_series_for(scale),
        "rounds": rounds,
        "trace": trace,
        "selftest": selftest,
    }
    (run_dir / "plan.json").write_text(json.dumps(plan, indent=1))
    try:
        generated = run_stage(run_dir, "generate")
        # Builds before and after serving: a slow spell of the host
        # lasts seconds, so it rarely hits two builds 15 s apart.  What
        # lasts longer shows in the serve phase's host factor.
        builds = [run_stage(run_dir, "build", "a")]
        served = run_stage(run_dir, "serve")
        builds += [run_stage(run_dir, "build", tag) for tag in "bc"]
        builds.sort(key=lambda b: b["wall_s"])
        median_build = builds[len(builds) // 2]
        layer_values = {}
        if trace:
            layer_values = {**served, **median_build}
            layer_values["storage.index_bytes"] = median_build["index_bytes"]
            if "build-1thread" in workload.probes:
                layer_values["construction.build_s_1thread"] = run_stage(
                    run_dir, "build", "1t", "1"
                )["build_s"]
    finally:
        for heavy in run_dir.glob("index-*"):
            shutil.rmtree(heavy, ignore_errors=True)
        for heavy in ("dataset.bin", "queries.npy", "truth.npy"):
            (run_dir / heavy).unlink(missing_ok=True)
    end_to_end = {
        "setup_s": median_build["wall_s"] / served["harness.host_factor"],
        **{name: served[name] for name in
           ("query_p50_ms", "query_p90_ms", "queries_per_s", "peak_rss_mb")},
        "index_bytes_per_data_byte": median_build["index_bytes"] / generated["dataset_bytes"],
    }
    result = {
        "plan": plan,
        "attempted": served["attempted"],
        "failed": served["failed"],
        "end_to_end": end_to_end,
        # A layer the workload bypasses, or a probe it does not run, is 0.
        "per_layer": {name: float(layer_values.get(name, 0.0)) for name, _, _ in PER_LAYER}
        if trace else {},
        "traced_queries": served.get("harness.traced_queries", 0),
        "wall_s": time.perf_counter() - started,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result
