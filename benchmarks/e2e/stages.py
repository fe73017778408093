"""The child processes of one run: generate, build, serve.

Each stage runs as ``python -m benchmarks.e2e.stages <stage> <run_dir>
[tag]`` in its own process, reads ``plan.json`` from the run directory
and leaves a ``<stage>[-tag].json`` result there.  Separate processes
keep every timed process free of the generator's arrays, and give each
build a cold interpreter the way a user's build command has one.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from repro import Dataset, ReproError, ShardedIndex, open_index
from repro.eval.methods import hercules_config
from repro.workloads import make_noise_queries, random_walks

from benchmarks.e2e import estimators, hostspeed, layers, oracle
from benchmarks.e2e.spec import SERIES_LENGTH, WARMUP_QUERIES, WORKLOADS

DATASET = "dataset.bin"
INDEX = "index-{tag}"

clock = time.perf_counter


def read_plan(run_dir: Path) -> dict:
    return json.loads((run_dir / "plan.json").read_text())


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` of a process in MB (its resident-set high-water mark)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def live_children() -> list:
    """Pids of this process's live children (the shard pool workers)."""
    pids: list = []
    for path in Path("/proc/self/task").glob("*/children"):
        pids.extend(int(pid) for pid in path.read_text().split())
    return pids


def directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def pool_workers(workload) -> "int | None":
    return workload.shards if workload.shards > 1 else None


# -- generate ---------------------------------------------------------------


def generate(run_dir: Path) -> dict:
    """Dataset, this workload's queries and their brute-force truth."""
    plan = read_plan(run_dir)
    workload = WORKLOADS[plan["workload"]]
    data = random_walks(plan["num_series"], SERIES_LENGTH, plan["seed"])
    Dataset.write(run_dir / DATASET, data).close()
    queries = make_noise_queries(
        data,
        workload.num_queries,
        workload.noise_variance,
        seed=plan["seed"] + workload.query_seed_offset,
    )
    np.save(run_dir / "queries.npy", queries)
    np.save(run_dir / "truth.npy", oracle.ground_truth(data, queries, workload.k))
    return {"dataset_bytes": (run_dir / DATASET).stat().st_size}


# -- build ------------------------------------------------------------------


def build(run_dir: Path, tag: str, num_threads: int = 2) -> dict:
    """Build from the on-disk dataset into a fresh directory, then open."""
    plan = read_plan(run_dir)
    workload = WORKLOADS[plan["workload"]]
    directory = run_dir / INDEX.format(tag=tag)
    config = hercules_config(
        plan["num_series"],
        num_threads=num_threads,
        prefilter=True,
        prefilter_bits=8,
        num_shards=workload.shards,
        shard_workers=pool_workers(workload),
    )
    started = clock()
    with Dataset.open(run_dir / DATASET, SERIES_LENGTH) as dataset:
        index = ShardedIndex.build(dataset, config, directory=directory)
    report = index.build_report
    index.close()
    built = clock()
    open_index(directory, verify="quick", workers=pool_workers(workload)).close()
    opened = clock()
    # Shard build workers have exited and been reaped by now; the largest
    # of them adds to this process's own high-water mark.
    children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "build_s": built - started,
        "open_s": opened - built,
        "wall_s": opened - started,
        "index_bytes": directory_bytes(directory),
        "construction.tree_s": report.build_seconds,
        "construction.route_s": report.route_seconds,
        "construction.store_s": report.store_seconds,
        "construction.split_s": report.split_seconds,
        "construction.flush_s": report.flush_seconds,
        "construction.series_per_s": report.series_per_sec,
        "construction.splits": report.splits,
        "construction.leaves": report.num_leaves,
        "construction.peak_rss_mb": peak_rss_mb() + children_mb,
        "writing.write_s": report.write_seconds,
        "writing.bytes_written": report.io.bytes_written,
    }


# -- serve ------------------------------------------------------------------


class Session:
    """An open index plus the fixed query set and how to call it."""

    def __init__(self, index, workload, queries: np.ndarray) -> None:
        self.index = index
        self.workload = workload
        self.queries = queries
        # One query thread and no leaf cache: thread fan-out is slower on
        # two cores and makes the counters timing-dependent.
        self.config = index.config.with_options(num_query_threads=1)
        self.reference = hostspeed.Reference()
        size = workload.call_size()
        self.calls = [
            np.arange(start, min(start + size, queries.shape[0]))
            for start in range(0, queries.shape[0], size)
        ]

    def answer(self, ids: np.ndarray):
        """One public call answering the queries ``ids``, one answer each."""
        k = self.workload.k
        if self.workload.batch_size:
            return self.index.knn_batch(self.queries[ids], k=k, config=self.config)
        return [self.index.knn(self.queries[ids[0]], k=k, config=self.config)]

    def run_round(
        self, calls: list, answer=None, host_samples=None
    ) -> "tuple[np.ndarray, list]":
        """Call walls (seconds) and answers of one closed-loop pass.

        A call that raises keeps its wall and leaves ``None`` answers:
        it stays in every percentile's denominator and the oracle
        counts each of its queries as failed.  ``host_samples`` collects
        host-speed samples: one before the pass, then between calls (never
        inside one) one per ``SAMPLE_EVERY_SECONDS`` of measured work.
        """
        answer = answer if answer is not None else self.answer
        walls = np.empty(len(calls))
        answers: list = [None] * len(calls)
        unsampled = 0.0
        if host_samples is not None:
            host_samples.append(self.reference.sample())
        for i, ids in enumerate(calls):
            started = clock()
            try:
                answers[i] = answer(ids)
            except Exception:  # noqa: BLE001 - any engine error is a failed op
                traceback.print_exc()
            walls[i] = clock() - started
            if host_samples is not None:
                unsampled += walls[i]
                due = int(unsampled / hostspeed.SAMPLE_EVERY_SECONDS)
                if due:
                    host_samples.extend(self.reference.samples(due))
                    unsampled = 0.0
        return walls, answers

    def calls_covering(self, num_queries: int) -> list:
        """The leading calls that together answer ``num_queries`` queries."""
        count = -(-num_queries // self.workload.call_size())
        return self.calls[:count]


def count_failures(session: Session, truth: np.ndarray, passes: list) -> "tuple[int, int]":
    """``(attempted, failed)`` queries over ``[(calls, answers), ...]``."""
    attempted = failed = 0
    for calls, answers in passes:
        for ids, call_answers in zip(calls, answers):
            for offset, query_id in enumerate(ids):
                attempted += 1
                if call_answers is None:
                    failed += 1
                    continue
                try:
                    reason = oracle.check_answer(
                        session.queries[query_id],
                        call_answers[offset],
                        truth[query_id],
                        session.index.get_series,
                    )
                except (ReproError, ValueError) as exc:
                    reason = f"position lookup failed: {exc}"
                if reason is not None:
                    failed += 1
                    print(f"query {query_id}: {reason}", file=sys.stderr)
    return attempted, failed


def _sabotage(session: Session, timed: list) -> None:
    """Self-test damage: one wrong position, one wrong distance."""
    answers = timed[0][1]
    answers[1][0].positions[0] = (answers[1][0].positions[0] + 1) % session.index.num_series
    answers[2][0].distances[-1] *= 1.01


def serve(run_dir: Path) -> dict:
    """Open, warm up, R timed rounds, then (``trace``) the layer pass."""
    plan = read_plan(run_dir)
    workload = WORKLOADS[plan["workload"]]
    queries = np.load(run_dir / "queries.npy")
    truth = np.load(run_dir / "truth.npy")
    directory = run_dir / INDEX.format(tag="a")

    started = clock()
    with open_index(directory, verify="quick", workers=pool_workers(workload)) as index:
        open_seconds = clock() - started
        session = Session(index, workload, queries)

        warmup = session.calls_covering(WARMUP_QUERIES)
        warm_walls, _ = session.run_round(warmup)

        answer = session.answer
        if plan["selftest"]:
            def answer(ids, real=session.answer):
                if ids[0] == 0:
                    raise RuntimeError("self-test: injected engine failure")
                return real(ids)

        walls = np.empty((plan["rounds"], len(session.calls)))
        timed = []
        host_samples: list = []
        for r in range(plan["rounds"]):
            walls[r], answers = session.run_round(session.calls, answer, host_samples)
            timed.append((session.calls, answers))
        if plan["selftest"]:
            _sabotage(session, timed)

        # Read before the traced pass and the probes allocate anything.
        workers_mb = sum(peak_rss_mb(pid) for pid in live_children())
        rss_mb = peak_rss_mb() + workers_mb

        sizes = np.array([len(ids) for ids in session.calls])
        result = estimators.summarize(walls, sizes, hostspeed.factor(host_samples))
        # Raw samples, kept apart (and compact) for re-analysis.
        (run_dir / "samples.json").write_text(
            json.dumps({"walls": walls.tolist(), "host_samples": host_samples})
        )
        result["peak_rss_mb"] = rss_mb
        result["storage.open_ms"] = open_seconds * 1e3
        result["query.first_query_ms"] = warm_walls[0] * 1e3
        result["sharding.worker_rss_mb"] = workers_mb
        if plan["trace"]:
            traced = layers.traced_pass(session, walls, run_dir / "trace.json", result)
            timed.append(traced)
            layers.probes(session, run_dir / DATASET, walls, open_seconds, result)
        result["attempted"], result["failed"] = count_failures(session, truth, timed)
    return result


def main(argv: list) -> int:
    stage, run_dir = argv[0], Path(argv[1])
    if stage == "generate":
        result = generate(run_dir)
        name = "generate"
    elif stage == "build":
        result = build(run_dir, argv[2], *(int(arg) for arg in argv[3:]))
        name = f"build-{argv[2]}"
    elif stage == "serve":
        result = serve(run_dir)
        name = "serve"
    else:
        raise SystemExit(f"unknown stage {stage!r}")
    (run_dir / f"{name}.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
