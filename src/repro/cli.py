"""Command-line interface: ``python -m repro <command>``.

Mirrors the workflow of the original Hercules tooling (a dataset file in,
an index directory out, queries against it), plus dataset generation and
method comparison for experimentation:

* ``generate`` — write a synthetic dataset (synth / sald / seismic /
  deep) as a raw float32 binary file;
* ``build``    — build and materialize a Hercules index over a dataset;
* ``query``    — answer exact (or ε-approximate) k-NN queries from a
  query file against a materialized index;
* ``explain``  — answer queries and print per-query cost breakdowns
  (phase timings, pruning ratios, candidate counts, modeled I/O);
* ``inspect``  — print structural statistics of a materialized index;
* ``verify-index`` — check a materialized index directory's manifest,
  artifact checksums, and cross-file invariants;
* ``compare``  — run every method over one dataset and print the
  comparison table.

Dataset files are headerless float32 series (the format of the original
artifacts), so ``--length`` must accompany every dataset path.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from pathlib import Path

from repro import obs
from repro.core import (
    HerculesConfig,
    HerculesIndex,
    ShardedIndex,
    ShardedQueryAnswer,
    open_index,
    record_sharded_profile,
)
from repro.core.stats import tree_statistics
from repro.errors import ReproError
from repro.storage.dataset import Dataset
from repro.workloads.datasets import DATASET_ANALOGS, make_analog
from repro.workloads.generators import random_walks


@contextlib.contextmanager
def _maybe_trace(args: argparse.Namespace):
    """Activate tracing for the command when ``--trace FILE`` was given."""
    path = getattr(args, "trace", None)
    if path is None:
        yield None
        return
    trace = obs.Trace(name=args.command)
    with obs.use_trace(trace):
        yield trace
    trace.save(path)
    print(f"trace with {len(trace)} spans written to {path}")


@contextlib.contextmanager
def _maybe_telemetry(args: argparse.Namespace):
    """Activate the telemetry pipeline when ``--telemetry-dir`` was given.

    Builds a :class:`~repro.obs.TelemetryHub` (windowed metrics + event
    journal + SLO tracker), attaches a /proc resource sampler when the
    platform has one (the coordinator is watched immediately; shard
    supervisors register worker pids as they spawn), and flushes
    everything to the spool directory every ``--telemetry-interval``
    seconds — plus once more at exit, so even a short run leaves a
    complete spool for ``repro monitor``.
    """
    directory = getattr(args, "telemetry_dir", None)
    if directory is None:
        yield None
        return
    interval = getattr(args, "telemetry_interval", 2.0)
    hub = obs.TelemetryHub()
    sampler = None
    if obs.proc_available():
        sampler = obs.ResourceSampler(hub.registry, interval=interval)
        sampler.watch("", os.getpid())
        hub.sampler = sampler
    sink = obs.TelemetrySink(
        directory,
        registry=hub.registry,
        journal=hub.journal,
        slo=hub.slo,
        sampler=sampler,
        interval=interval,
    )
    sink.start()
    try:
        with obs.use_hub(hub):
            yield hub
    finally:
        sink.close()
        print(f"telemetry spool written to {directory}")


def _add_telemetry_flags(parser) -> None:
    parser.add_argument(
        "--telemetry-dir", type=Path, default=None,
        help="write a live telemetry spool (OpenMetrics text, JSON "
             "snapshot, event journal, resource samples) to this "
             "directory; tail it with `repro monitor`")
    parser.add_argument(
        "--telemetry-interval", type=float, default=2.0,
        help="seconds between telemetry flushes (default 2)")


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "synth":
        data = random_walks(args.count, args.length, seed=args.seed)
    else:
        name = {"sald": "SALD", "seismic": "Seismic", "deep": "Deep"}[args.kind]
        data = make_analog(name, args.count, length=args.length, seed=args.seed)
    Dataset.write(args.output, data).close()
    print(
        f"wrote {args.count} x {data.shape[1]} float32 series "
        f"({data.nbytes / 1e6:.1f} MB) to {args.output}"
    )
    return 0


def _cmd_generate_workload(args: argparse.Namespace) -> int:
    from repro.workloads.generators import make_query_workloads
    from repro.workloads.io import save_workload_bundle

    if args.kind == "synth":
        data = random_walks(args.count, args.length, seed=args.seed)
    else:
        name = {"sald": "SALD", "seismic": "Seismic", "deep": "Deep"}[args.kind]
        data = make_analog(name, args.count, length=args.length, seed=args.seed)
    indexable, workloads = make_query_workloads(
        data, queries_per_workload=args.queries, seed=args.seed
    )
    save_workload_bundle(
        args.output,
        indexable,
        workloads,
        metadata={"kind": args.kind, "seed": args.seed},
    )
    labels = ", ".join(workloads)
    print(
        f"wrote bundle to {args.output}: {indexable.shape[0]} indexable "
        f"series plus workloads [{labels}] x {args.queries} queries"
    )
    return 0


def _resilience_overrides(args: argparse.Namespace) -> dict:
    """Config overrides from the shared resilience flags (only those set)."""
    overrides = {}
    if getattr(args, "partial_results", False):
        overrides["partial_results"] = True
    if getattr(args, "shard_retries", None) is not None:
        overrides["shard_retry_attempts"] = args.shard_retries
    if getattr(args, "shard_timeout", None) is not None:
        overrides["shard_timeout"] = args.shard_timeout
    if getattr(args, "query_deadline", None) is not None:
        overrides["query_deadline"] = args.query_deadline
    return overrides


def _add_resilience_flags(parser) -> None:
    """Query-side resilience flags shared by ``query`` and ``explain``."""
    parser.add_argument(
        "--partial-results", action="store_true",
        help="allow degraded answers: drop shards that still fail after "
             "retries instead of erroring (coverage is reported)")
    parser.add_argument(
        "--shard-retries", type=int, default=None,
        help="total tries per shard dispatch (default: index config, 3)")
    parser.add_argument(
        "--shard-timeout", type=float, default=None,
        help="seconds one shard attempt may run before it counts as failed")
    parser.add_argument(
        "--query-deadline", type=float, default=None,
        help="whole-query wall-clock budget in seconds across all "
             "shards and retries")


def _cmd_build(args: argparse.Namespace) -> int:
    supervision_overrides = {}
    if args.max_worker_restarts is not None:
        supervision_overrides["max_worker_restarts"] = args.max_worker_restarts
    if args.stall_timeout is not None:
        supervision_overrides["build_stall_timeout"] = args.stall_timeout
    config = HerculesConfig(
        leaf_capacity=args.leaf_capacity,
        initial_segments=args.initial_segments,
        num_build_threads=args.threads,
        flush_threshold=max((args.threads - 1) // 2, 1),
        num_write_threads=max(args.threads // 2, 1),
        l_max=args.l_max,
        batched_inserts=not args.per_row,
        claim_size=args.claim_size,
        num_shards=args.shards,
        shard_workers=args.shard_workers,
        prefilter=args.prefilter,
        prefilter_bits=args.prefilter_bits,
        **supervision_overrides,
    )
    with _maybe_telemetry(args), _maybe_trace(args), \
            Dataset.open(args.dataset, args.length) as dataset:
        # Delegates to the classic single-index build when --shards 1,
        # keeping that layout byte-identical to previous releases.
        index = ShardedIndex.build(dataset, config, directory=args.output)
        hub = obs.get_hub()
        if hub is not None:
            obs.record_build(hub.registry, index.build_report)
            if isinstance(index, ShardedIndex):
                index.merge_worker_metrics(hub.registry)
    report = index.build_report
    print(
        f"built index over {report.num_series} series: "
        f"{report.num_leaves} leaves, {report.splits} splits, "
        f"{report.flushes} flushes"
    )
    if isinstance(index, ShardedIndex):
        sizes = ", ".join(str(s.num_series) for s in index.shards)
        print(
            f"{index.num_shards} shards [{sizes}] built in "
            f"{report.wall_seconds:.2f}s wall "
            f"({report.series_per_sec:,.0f} series/s end-to-end; "
            f"critical path {report.build_seconds:.2f}s build + "
            f"{report.write_seconds:.2f}s write)"
        )
        if report.worker_restarts or report.requeued_tasks or report.task_retries:
            print(
                f"supervision: {report.worker_restarts} worker restarts, "
                f"{report.requeued_tasks} tasks requeued off dead workers, "
                f"{report.task_retries} shard builds retried"
            )
    else:
        print(
            f"building {report.build_seconds:.2f}s + "
            f"writing {report.write_seconds:.2f}s = {report.total_seconds:.2f}s "
            f"({report.series_per_sec:,.0f} series/s)"
        )
    if args.verbose >= 1:
        # Table-4-style phase breakdown of the tree-construction stage.
        phases = (
            ("routing", report.route_seconds),
            ("hbuffer stores", report.store_seconds),
            ("splits", report.split_seconds),
            ("flushes", report.flush_seconds),
        )
        accounted = sum(seconds for _, seconds in phases)
        print("build phase breakdown:")
        for label, seconds in phases:
            share = seconds / report.build_seconds if report.build_seconds else 0.0
            print(f"  {label:<15} {seconds:8.3f}s  ({share:6.1%})")
        other = max(report.build_seconds - accounted, 0.0)
        share = other / report.build_seconds if report.build_seconds else 0.0
        print(f"  {'other':<15} {other:8.3f}s  ({share:6.1%})")
    print(f"index materialized in {index.directory}")
    index.close()
    return 0


def _cache_bytes(args: argparse.Namespace) -> int:
    return int(getattr(args, "cache_mb", 0.0) * (1 << 20))


def _cmd_query(args: argparse.Namespace) -> int:
    with _maybe_telemetry(args):
        return _run_query(args)


def _run_query(args: argparse.Namespace) -> int:
    index = open_index(
        args.index,
        cache_bytes=_cache_bytes(args),
        workers=getattr(args, "shard_workers", None),
    )
    hub = obs.get_hub()
    config = index.config.with_options(
        epsilon=args.epsilon, **_resilience_overrides(args)
    )
    if isinstance(index, ShardedIndex):
        # knn_approx and retry policy read the index config directly.
        index.config = config
        if hub is not None:
            index.bind_metrics(hub.registry)
    if getattr(args, "batch", False) and args.approximate:
        print(
            "error: --batch applies to exact/epsilon search only "
            "(drop --approximate)",
            file=sys.stderr,
        )
        index.close()
        return 2
    with _maybe_trace(args), Dataset.open(args.queries, index.series_length) as queries:
        count = queries.num_series if args.count is None else min(
            args.count, queries.num_series
        )
        total = 0.0
        degraded = 0

        def report(i, answer):
            if hub is not None:
                if isinstance(answer, ShardedQueryAnswer):
                    record_sharded_profile(hub.registry, answer)
                else:
                    # Sharded answers are observed by the coordinator's
                    # settle step; plain answers are observed here.
                    obs.observe_query(answer.profile.time_total)
                    obs.record_profile(
                        hub.registry,
                        answer.profile,
                        num_series=index.num_series,
                    )
            distances = ", ".join(f"{d:.4f}" for d in answer.distances)
            positions = ", ".join(str(int(p)) for p in answer.positions)
            print(
                f"query {i}: d=[{distances}] pos=[{positions}] "
                f"path={answer.profile.path} "
                f"accessed={answer.profile.data_accessed_fraction(index.num_series):.2%} "
                f"({answer.profile.time_total * 1e3:.1f} ms)"
            )
            return _print_degradation(answer, f"query {i}")

        if getattr(args, "batch", False):
            import numpy as np

            block = np.stack(
                [queries.read_series(i) for i in range(count)]
            )
            batch = index.knn_batch(block, k=args.k, config=config)
            for i, answer in enumerate(batch):
                total += answer.profile.time_total
                degraded += report(i, answer)
            stats = batch.stats
            if hub is not None:
                obs.record_batch_stats(hub.registry, stats)
            print(
                f"batch: {stats.unique_leaf_reads} leaf reads serving "
                f"{stats.leaf_uses} uses "
                f"(leaf-sharing {stats.leaf_share_factor:.2f}x, "
                f"{stats.kernel_rows_per_read:.1f} kernel rows/read, "
                f"screen {stats.screen_seconds_per_query * 1e3:.2f} ms/query)"
            )
        else:
            for i in range(count):
                query = queries.read_series(i)
                if args.approximate:
                    answer = index.knn_approx(query, k=args.k)
                else:
                    answer = index.knn(query, k=args.k, config=config)
                total += answer.profile.time_total
                degraded += report(i, answer)
    print(f"answered {count} queries in {total:.3f}s")
    if degraded:
        print(f"WARNING: {degraded} of {count} answers were degraded")
    _print_cache_stats(index)
    index.close()
    return 0


def _print_degradation(answer, label: str) -> int:
    """One warning line per degraded/retried answer; returns 1 if degraded."""
    if not isinstance(answer, ShardedQueryAnswer):
        return 0
    if answer.retries and not answer.degraded:
        print(f"  {label}: recovered after {answer.retries} shard retries")
    if not answer.degraded:
        return 0
    dropped = ", ".join(
        f"shard {sid} ({reason})" for sid, reason in answer.shard_errors
    )
    print(
        f"  {label}: DEGRADED — coverage {answer.coverage:.2%} "
        f"after {answer.retries} retries; dropped {dropped}"
    )
    return 1


def _print_cache_stats(index) -> None:
    """Leaf-cache summary lines; per shard for a sharded index."""
    if isinstance(index, ShardedIndex):
        for shard_id, shard in enumerate(index.shards):
            cache = shard.leaf_cache
            if cache is not None:
                snap = cache.snapshot()
                print(
                    f"leaf cache shard {shard_id}: {snap.hits} hits, "
                    f"{snap.misses} misses (hit rate {snap.hit_rate:.2%}), "
                    f"{snap.current_bytes / 1e6:.1f} MB resident"
                )
        return
    cache = index.leaf_cache
    if cache is not None:
        snap = cache.snapshot()
        print(
            f"leaf cache: {snap.hits} hits, {snap.misses} misses "
            f"(hit rate {snap.hit_rate:.2%}), "
            f"{snap.current_bytes / 1e6:.1f} MB resident"
        )


def _cmd_explain(args: argparse.Namespace) -> int:
    with _maybe_telemetry(args):
        return _run_explain(args)


def _run_explain(args: argparse.Namespace) -> int:
    index = open_index(
        args.index,
        cache_bytes=_cache_bytes(args),
        workers=getattr(args, "shard_workers", None),
    )
    config = index.config.with_options(
        epsilon=args.epsilon, **_resilience_overrides(args)
    )
    registry = obs.MetricsRegistry()
    with _maybe_trace(args), Dataset.open(args.queries, index.series_length) as queries:
        count = queries.num_series if args.count is None else min(
            args.count, queries.num_series
        )
        for i in range(count):
            query = queries.read_series(i)
            answer = index.knn(query, k=args.k, config=config)
            if isinstance(answer, ShardedQueryAnswer):
                record_sharded_profile(
                    registry, answer, num_series=index.num_series
                )
            else:
                obs.record_profile(
                    registry, answer.profile, num_series=index.num_series
                )
            print(
                obs.explain_profile(
                    answer.profile,
                    num_series=index.num_series,
                    label=f"query {i}",
                )
            )
            if isinstance(answer, ShardedQueryAnswer):
                for shard_id, shard_answer in answer.shard_answers:
                    p = shard_answer.profile
                    print(
                        f"  shard {shard_id}: path={p.path or '?'}  "
                        f"{p.candidate_leaves} cand leaves  "
                        f"{p.distance_computations} dists  "
                        f"{p.series_accessed} series read  "
                        f"{p.time_total * 1e3:.1f} ms"
                    )
                _print_degradation(answer, f"query {i}")
            print()
    print(obs.explain_workload_summary(registry))
    index.close()
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    index = open_index(args.index)
    if isinstance(index, ShardedIndex):
        print(f"sharded index at {index.directory}")
        print(f"generation         {index.generation}")
        print(f"shards             {index.num_shards}")
        print(f"series length      {index.series_length}")
        print(f"total series       {index.num_series}")
        for shard_id, shard in enumerate(index.shards):
            stats = tree_statistics(shard.root, shard.config.leaf_capacity)
            print(
                f"\n-- shard {shard_id:04d}: {shard.num_series} series, "
                f"row base {index.row_bases[shard_id]}"
            )
            print(stats.format())
    else:
        stats = tree_statistics(index.root, index.config.leaf_capacity)
        print(f"index at {index.directory}")
        print(f"series length      {index.series_length}")
        print(stats.format())
    index.close()
    return 0


def _cmd_verify_index(args: argparse.Namespace) -> int:
    from repro.errors import ReproError, StorageError
    from repro.storage import manifest as manifest_mod
    from repro.storage.htree import FORMAT_VERSION as HTREE_FORMAT_VERSION
    from repro.core.writing import HTREE_FILENAME, LRD_FILENAME, LSD_FILENAME

    directory = Path(args.index)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 1
    if manifest_mod.is_sharded_directory(directory):
        return _verify_sharded_directory(directory, args.level)
    failures = 0
    manifest = None
    name_width = max(len(manifest_mod.MANIFEST_FILENAME), 12) + 2
    if not (directory / manifest_mod.MANIFEST_FILENAME).exists():
        print(
            f"{manifest_mod.MANIFEST_FILENAME:<{name_width}}"
            "missing (legacy pre-manifest directory)"
        )
    else:
        try:
            manifest = manifest_mod.load_manifest(directory)
            print(
                f"{manifest_mod.MANIFEST_FILENAME:<{name_width}}ok "
                f"({manifest.num_series} series, {manifest.num_leaves} "
                f"leaves, config {manifest.config_digest})"
            )
        except StorageError as exc:
            print(f"{manifest_mod.MANIFEST_FILENAME:<{name_width}}DAMAGED — {exc}")
            failures += 1
    if manifest is not None:
        expected = {
            LRD_FILENAME: manifest_mod.LRD_FORMAT_VERSION,
            LSD_FILENAME: manifest_mod.LSD_FORMAT_VERSION,
            HTREE_FILENAME: HTREE_FORMAT_VERSION,
        }
        for name, record in sorted(manifest.artifacts.items()):
            try:
                manifest_mod.check_artifact(
                    directory,
                    record,
                    level=args.level,
                    expected_version=expected.get(name),
                )
                detail = f"ok ({record.size} bytes"
                if args.level == "full":
                    detail += f", crc32 {record.crc32:#010x} verified"
                print(f"{name:<{name_width}}{detail})")
            except StorageError as exc:
                print(f"{name:<{name_width}}DAMAGED — {exc}")
                failures += 1
    if failures == 0:
        # Per-artifact bytes are sound; prove the directory also opens as
        # one coherent generation (cross-file invariants included).
        try:
            index = HerculesIndex.open(directory, verify=args.level)
            print(
                f"{'index':<{name_width}}ok ({index.num_series} series, "
                f"{index.num_leaves} leaves, length {index.series_length})"
            )
            index.close()
        except ReproError as exc:
            print(f"{'index':<{name_width}}DAMAGED — {exc}")
            failures += 1
    if failures:
        print(f"\n{failures} damaged artifact(s) in {directory}")
        return 1
    print(f"\n{directory} is healthy ({args.level} verification)")
    return 0


def _verify_sharded_directory(directory: Path, level: str) -> int:
    """The sharded branch of ``verify-index``: recurse into every shard.

    Prints one row per artifact as ``shard-XXXX/name`` and always names
    the failing shard, so a damaged shard is locatable at a glance.
    """
    from repro.errors import ReproError, StorageError
    from repro.storage import manifest as manifest_mod
    from repro.storage.htree import FORMAT_VERSION as HTREE_FORMAT_VERSION
    from repro.core.writing import HTREE_FILENAME, LRD_FILENAME, LSD_FILENAME

    failures = 0
    name_width = (
        max(len(manifest_mod.SHARDS_FILENAME),
            len(manifest_mod.shard_dirname(0))
            + 1 + len(manifest_mod.MANIFEST_FILENAME)) + 2
    )
    try:
        shard_manifest = manifest_mod.load_shard_manifest(directory)
    except StorageError as exc:
        print(f"{manifest_mod.SHARDS_FILENAME:<{name_width}}DAMAGED — {exc}")
        print(f"\n1 damaged artifact(s) in {directory}")
        return 1
    print(
        f"{manifest_mod.SHARDS_FILENAME:<{name_width}}ok "
        f"(generation {shard_manifest.generation}, "
        f"{shard_manifest.num_shards} shards, "
        f"{shard_manifest.num_series} series, "
        f"config {shard_manifest.config_digest})"
    )
    expected = {
        LRD_FILENAME: manifest_mod.LRD_FORMAT_VERSION,
        LSD_FILENAME: manifest_mod.LSD_FORMAT_VERSION,
        HTREE_FILENAME: HTREE_FORMAT_VERSION,
    }
    healthy_shards = 0
    healthy_series = 0
    for record in shard_manifest.shards:
        label = f"{record.name}/{manifest_mod.MANIFEST_FILENAME}"
        try:
            sub_manifest = manifest_mod.verify_shard_record(directory, record)
        except StorageError as exc:
            print(f"{label:<{name_width}}DAMAGED — {exc}")
            failures += 1
            continue
        print(
            f"{label:<{name_width}}ok ({record.num_series} series, "
            f"{record.num_leaves} leaves)"
        )
        shard_failures = 0
        for name, artifact in sorted(sub_manifest.artifacts.items()):
            row = f"{record.name}/{name}"
            try:
                manifest_mod.check_artifact(
                    directory / record.name,
                    artifact,
                    level=level,
                    expected_version=expected.get(name),
                )
                detail = f"ok ({artifact.size} bytes"
                if level == "full":
                    detail += f", crc32 {artifact.crc32:#010x} verified"
                print(f"{row:<{name_width}}{detail})")
            except StorageError as exc:
                print(
                    f"{row:<{name_width}}DAMAGED — shard {record.name}: {exc}"
                )
                shard_failures += 1
        failures += shard_failures
        if shard_failures == 0:
            healthy_shards += 1
            healthy_series += record.num_series
    if failures == 0:
        # Per-shard bytes are sound; prove the whole directory opens as
        # one coherent generation (contiguous row bases included).
        try:
            index = ShardedIndex.open(directory, verify=level)
            print(
                f"{'index':<{name_width}}ok ({index.num_series} series "
                f"over {index.num_shards} shards, length "
                f"{index.series_length})"
            )
            index.close()
        except ReproError as exc:
            print(f"{'index':<{name_width}}DAMAGED — {exc}")
            failures += 1
    if failures:
        print(f"\n{failures} damaged artifact(s) in {directory}")
        if 0 < healthy_shards < shard_manifest.num_shards:
            print(
                f"a --partial-results query would cover "
                f"{healthy_series}/{shard_manifest.num_series} series "
                f"({healthy_shards}/{shard_manifest.num_shards} shards "
                "healthy)"
            )
        return 1
    print(f"\n{directory} is healthy ({level} verification, sharded)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.eval.methods import ALL_METHODS, build_methods
    from repro.eval.verify import verify_epsilon, verify_exactness
    from repro.workloads.generators import make_noise_queries

    with Dataset.open(args.dataset, args.length) as dataset:
        data = dataset.load_all()
        queries = make_noise_queries(
            data, args.num_queries, args.noise, seed=args.seed
        )
        methods = build_methods(dataset, names=ALL_METHODS)
        all_passed = True
        for name in ALL_METHODS:
            report = verify_exactness(
                methods[name].method, data, queries, k=args.k
            )
            print(report.format())
            all_passed &= report.passed
        hercules = methods["Hercules"].method
        for epsilon in (0.1, 0.5):
            report = verify_epsilon(hercules, data, queries, epsilon, k=args.k)
            print(report.format())
            all_passed &= report.passed
        for built in methods.values():
            built.close()
    return 0 if all_passed else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.eval.metrics import run_workload
    from repro.eval.methods import ALL_METHODS, build_methods
    from repro.eval.report import print_table
    from repro.workloads.generators import make_noise_queries

    started = time.perf_counter()
    with _maybe_telemetry(args), _maybe_trace(args), \
            Dataset.open(args.dataset, args.length) as dataset:
        data = dataset.load_all()
        queries = make_noise_queries(
            data, args.num_queries, args.noise, seed=args.seed
        )
        methods = build_methods(
            dataset,
            names=ALL_METHODS,
            cache_bytes=_cache_bytes(args),
            num_shards=args.shards,
            shard_workers=args.shard_workers,
            prefilter=args.prefilter,
            prefilter_bits=args.prefilter_bits,
        )
        rows = []
        for name in ALL_METHODS:
            built = methods[name]
            batched = getattr(args, "batch", False) and hasattr(
                built.method, "knn_batch"
            )
            result = run_workload(
                built.method, queries, k=args.k, batched=batched
            )
            hit_rate = result.avg_cache_hit_rate
            pruned = result.avg_prefilter_pruned_fraction
            rows.append(
                [
                    name,
                    built.build_seconds,
                    result.avg_query_seconds * 1e3,
                    result.avg_modeled_io_seconds * 1e3,
                    f"{result.avg_data_accessed:.2%}",
                    f"{result.avg_abandoned_fraction:.2%}",
                    "-" if pruned is None else f"{pruned:.2%}",
                    "-" if hit_rate is None else f"{hit_rate:.2%}",
                ]
            )
            built.close()
    print_table(
        f"{args.dataset} — {args.num_queries} x {args.k}-NN "
        f"(noise σ²={args.noise})",
        [
            "method",
            "build_s",
            "query_ms",
            "modeled_io_ms",
            "data_accessed",
            "abandoned",
            "prefilter",
            "cache_hit",
        ],
        rows,
    )
    print(f"\ncompare finished in {time.perf_counter() - started:.1f}s")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    iterations = 1 if args.once else args.iterations
    return obs.run_monitor(
        args.directory,
        interval=args.interval,
        iterations=iterations,
        clear=not args.once,
    )


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from repro.eval.benchdiff import diff_bench_files

    report = diff_bench_files(
        args.baseline,
        args.fresh,
        threshold=args.threshold,
        include_timings=args.include_timings,
        ignore=args.ignore,
    )
    print(report.render())
    return 1 if report.regressions else 0


_FIGURE_RUNNERS = {
    "fig6": ("figure6_dataset_size", {}),
    "fig7": ("figure7_large_datasets", {}),
    "fig8": ("figure8_series_length", {}),
    "fig9": ("difficulty_experiment", {}),
    "fig10": ("difficulty_experiment", {"workloads": ("1%", "5%", "ood")}),
    "fig11": ("figure11_knn_k", {}),
    "fig12a": ("figure12_ablation_indexing", {}),
    "fig12b": ("figure12_ablation_query", {}),
}


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.figure == "all":
        for figure in sorted(_FIGURE_RUNNERS):
            print(f"\n=== {figure} ===")
            sub_args = argparse.Namespace(
                figure=figure, size=args.size, num_queries=args.num_queries
            )
            _run_figure(sub_args)
        return 0
    return _run_figure(args)


def _run_figure(args: argparse.Namespace) -> int:
    from repro.eval import experiments

    import inspect

    name, kwargs = _FIGURE_RUNNERS[args.figure]
    kwargs = dict(kwargs)
    runner = getattr(experiments, name)
    accepted = inspect.signature(runner).parameters
    if args.size is not None:
        if "sizes" in accepted:
            kwargs["sizes"] = (args.size,)
        elif "size" in accepted:
            kwargs["size"] = args.size
    if args.num_queries is not None and "num_queries" in accepted:
        kwargs["num_queries"] = args.num_queries
    runner(verbose=True, **kwargs)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hercules data-series similarity search (PVLDB 2022 reproduction)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (-v: info, -vv: debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="decrease log verbosity (errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset file")
    gen.add_argument("--kind", choices=("synth", "sald", "seismic", "deep"),
                     default="synth")
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--length", type=int, default=None,
                     help="series length (defaults to the analog's paper length)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", type=Path, required=True)
    gen.set_defaults(func=_cmd_generate)

    bundle = sub.add_parser(
        "generate-workload",
        help="write a dataset plus its five query workloads as a bundle",
    )
    bundle.add_argument("--kind", choices=("synth", "sald", "seismic", "deep"),
                        default="synth")
    bundle.add_argument("--count", type=int, required=True)
    bundle.add_argument("--length", type=int, default=None)
    bundle.add_argument("--queries", type=int, default=100)
    bundle.add_argument("--seed", type=int, default=0)
    bundle.add_argument("--output", type=Path, required=True)
    bundle.set_defaults(func=_cmd_generate_workload)

    build = sub.add_parser("build", help="build a Hercules index")
    build.add_argument("--dataset", type=Path, required=True)
    build.add_argument("--length", type=int, required=True)
    build.add_argument("--output", type=Path, required=True)
    build.add_argument("--leaf-capacity", type=int, default=100)
    build.add_argument("--initial-segments", type=int, default=4)
    build.add_argument("--threads", type=int, default=4,
                       help="build threads (inserts, flushes, writes); "
                            "queries use the index default of one thread")
    build.add_argument("--l-max", type=int, default=8)
    build.add_argument("--claim-size", type=int, default=None,
                       help="series claimed per FetchAdd during batched "
                            "insertion (default: auto)")
    build.add_argument("--per-row", action="store_true",
                       help="use the per-row reference insertion path "
                            "instead of grouped batches")
    build.add_argument("--shards", type=int, default=1,
                       help="partition the dataset into N index shards "
                            "(1: classic single-tree layout, byte-identical "
                            "to previous releases)")
    build.add_argument("--shard-workers", type=int, default=None,
                       help="worker processes building shards in parallel "
                            "(default: min(shards, cpu_count); 0/1: build "
                            "shards sequentially in-process)")
    build.add_argument("--prefilter", action="store_true",
                       help="run the LB_SAX pass over the candidate "
                            "leaves' series ahead of the access-path "
                            "decision (it then trims skip-sequential "
                            "scans too) instead of after it")
    build.add_argument("--prefilter-bits", type=int, default=8,
                       help="ablation: iSAX bits per segment the in-RAM "
                            "words are reduced to under --prefilter (1-8, "
                            "default 8 = full resolution; fewer bits "
                            "prune less and save nothing)")
    build.add_argument("--max-worker-restarts", type=int, default=None,
                       help="replacement build workers the supervisor may "
                            "spawn after dead-worker detection (default: 2)")
    build.add_argument("--stall-timeout", type=float, default=None,
                       help="seconds without worker progress before a "
                            "sharded build is declared dead (default: 600)")
    build.add_argument("--trace", type=Path, default=None,
                       help="write a Chrome-trace JSON of the build to FILE")
    _add_telemetry_flags(build)
    build.set_defaults(func=_cmd_build)

    query = sub.add_parser("query", help="answer k-NN queries from a file")
    query.add_argument("--index", type=Path, required=True)
    query.add_argument("--queries", type=Path, required=True)
    query.add_argument("--k", type=int, default=1)
    query.add_argument("--count", type=int, default=None,
                       help="number of queries to run (default: all)")
    query.add_argument("--epsilon", type=float, default=0.0,
                       help="epsilon-approximate search factor")
    query.add_argument("--approximate", action="store_true",
                       help="approximate-only search (phase 1)")
    query.add_argument("--batch", action="store_true",
                       help="answer the whole query set with the batched "
                            "engine (one shared refinement walk); at epsilon "
                            "0 answers are identical to serial execution")
    query.add_argument("--cache-mb", type=float, default=0.0,
                       help="leaf-block LRU cache budget in MiB (0: disabled; "
                            "split evenly across shards of a sharded index)")
    query.add_argument("--shard-workers", type=int, default=None,
                       help="persistent query worker processes for a sharded "
                            "index (default: none; shards answer one after "
                            "another in-process)")
    _add_resilience_flags(query)
    query.add_argument("--trace", type=Path, default=None,
                       help="write a Chrome-trace JSON of the queries to FILE")
    _add_telemetry_flags(query)
    query.set_defaults(func=_cmd_query)

    explain = sub.add_parser(
        "explain",
        help="answer queries and print per-query cost breakdowns "
        "(phase timings, pruning ratios, modeled I/O)",
    )
    explain.add_argument("--index", type=Path, required=True)
    explain.add_argument("--queries", type=Path, required=True)
    explain.add_argument("--k", type=int, default=1)
    explain.add_argument("--count", type=int, default=None,
                         help="number of queries to explain (default: all)")
    explain.add_argument("--epsilon", type=float, default=0.0,
                         help="epsilon-approximate search factor")
    explain.add_argument("--cache-mb", type=float, default=0.0,
                         help="leaf-block LRU cache budget in MiB (0: disabled)")
    explain.add_argument("--shard-workers", type=int, default=None,
                         help="persistent query worker processes for a "
                              "sharded index (default: none; shards answer "
                              "one after another in-process)")
    _add_resilience_flags(explain)
    explain.add_argument("--trace", type=Path, default=None,
                         help="also write a Chrome-trace JSON to FILE")
    _add_telemetry_flags(explain)
    explain.set_defaults(func=_cmd_explain)

    inspect = sub.add_parser("inspect", help="print index statistics")
    inspect.add_argument("--index", type=Path, required=True)
    inspect.set_defaults(func=_cmd_inspect)

    bench = sub.add_parser(
        "bench", help="run one paper-figure experiment and print its table"
    )
    bench.add_argument(
        "--figure",
        choices=sorted(_FIGURE_RUNNERS) + ["all"],
        required=True,
    )
    bench.add_argument("--size", type=int, default=None,
                       help="dataset size override (series)")
    bench.add_argument("--num-queries", type=int, default=None)
    bench.set_defaults(func=_cmd_bench)

    vindex = sub.add_parser(
        "verify-index",
        help="validate a materialized index directory (manifest, "
        "checksums, cross-file invariants)",
    )
    vindex.add_argument("index", type=Path, help="index directory to check")
    vindex.add_argument(
        "--level",
        choices=("quick", "full"),
        default="full",
        help="quick: sizes and versions; full: recompute checksums (default)",
    )
    vindex.set_defaults(func=_cmd_verify_index)

    verify = sub.add_parser(
        "verify",
        help="prove every method's answers against brute force on a dataset",
    )
    verify.add_argument("--dataset", type=Path, required=True)
    verify.add_argument("--length", type=int, required=True)
    verify.add_argument("--k", type=int, default=10)
    verify.add_argument("--num-queries", type=int, default=10)
    verify.add_argument("--noise", type=float, default=0.05)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=_cmd_verify)

    compare = sub.add_parser("compare", help="compare all methods on a dataset")
    compare.add_argument("--dataset", type=Path, required=True)
    compare.add_argument("--length", type=int, required=True)
    compare.add_argument("--k", type=int, default=1)
    compare.add_argument("--num-queries", type=int, default=10)
    compare.add_argument("--noise", type=float, default=0.05)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--cache-mb", type=float, default=0.0,
                         help="leaf-block LRU cache budget in MiB (0: disabled)")
    compare.add_argument("--shards", type=int, default=1,
                         help="build Hercules as N shards (other methods "
                              "are unaffected)")
    compare.add_argument("--shard-workers", type=int, default=None,
                         help="worker processes for the sharded Hercules "
                              "build (default: min(shards, cpu_count))")
    compare.add_argument("--prefilter", action="store_true",
                         help="enable the early SAX filter on the methods "
                              "that have one (Hercules LB_SAX pass ahead "
                              "of the access-path decision; VA+file "
                              "fair-contender SAX filter)")
    compare.add_argument("--prefilter-bits", type=int, default=8,
                         help="iSAX bits per segment of that filter "
                              "(1-8, default 8)")
    compare.add_argument("--batch", action="store_true",
                         help="run each method's workload through its batched "
                              "engine where it has one (knn_batch); answers "
                              "and counters match serial execution")
    compare.add_argument("--trace", type=Path, default=None,
                         help="write a Chrome-trace JSON of the run to FILE")
    _add_telemetry_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    monitor = sub.add_parser(
        "monitor",
        help="live terminal dashboard over a telemetry spool directory "
        "(written by --telemetry-dir)",
    )
    monitor.add_argument("directory", type=Path,
                         help="telemetry spool directory to tail")
    monitor.add_argument("--interval", type=float, default=2.0,
                         help="refresh interval in seconds (default 2)")
    monitor.add_argument("--iterations", type=int, default=None,
                         help="render N frames then exit (default: forever)")
    monitor.add_argument("--once", action="store_true",
                         help="render a single frame and exit (pipeable)")
    monitor.set_defaults(func=_cmd_monitor)

    benchdiff = sub.add_parser(
        "bench-diff",
        help="compare a fresh REPRO_BENCH_JSON dump against a committed "
        "baseline and fail on regression",
    )
    benchdiff.add_argument("baseline", type=Path,
                           help="committed baseline BENCH_*.json")
    benchdiff.add_argument("fresh", type=Path,
                           help="freshly produced BENCH_*.json")
    benchdiff.add_argument("--threshold", type=float, default=0.2,
                           help="relative regression that fails the diff "
                                "(default 0.2 = 20%%)")
    benchdiff.add_argument("--include-timings", action="store_true",
                           help="also gate hardware-dependent wall-clock "
                                "metrics (off by default: only ratio/count "
                                "metrics diff cleanly across machines)")
    benchdiff.add_argument("--ignore", action="append", default=[],
                           metavar="SUBSTRING",
                           help="skip metrics whose key contains SUBSTRING "
                                "(repeatable)")
    benchdiff.set_defaults(func=_cmd_bench_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    obs.configure_logging(args.verbose - args.quiet)
    if args.command in ("generate", "generate-workload") and args.length is None:
        if args.kind == "synth":
            args.length = 128
        else:
            name = {"sald": "SALD", "seismic": "Seismic", "deep": "Deep"}[args.kind]
            args.length = DATASET_ANALOGS[name][1]
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
