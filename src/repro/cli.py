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
    open_index,
)
from repro.core.stats import tree_statistics
from repro.core.writing import ARTIFACT_VERSIONS
from repro.errors import ReproError, StorageError
from repro.storage import manifest as manifest_mod
from repro.storage.dataset import Dataset
from repro.workloads.datasets import make_analog
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


#: ``--kind`` of ``generate``/``generate-workload`` → analog (synth: random walks).
_KINDS = {"synth": None, "sald": "SALD", "seismic": "Seismic", "deep": "Deep"}


def _make_data(args: argparse.Namespace):
    """The ``--kind/--count/--length/--seed`` series of ``generate`` and
    ``generate-workload``; without ``--length``, an analog takes its
    paper length and ``synth`` 128."""
    name = _KINDS[args.kind]
    if name is None:
        length = 128 if args.length is None else args.length
        return random_walks(args.count, length, seed=args.seed)
    return make_analog(name, args.count, length=args.length, seed=args.seed)


def _cmd_generate(args: argparse.Namespace) -> int:
    data = _make_data(args)
    Dataset.write(args.output, data).close()
    print(
        f"wrote {args.count} x {data.shape[1]} float32 series "
        f"({data.nbytes / 1e6:.1f} MB) to {args.output}"
    )
    return 0


def _cmd_generate_workload(args: argparse.Namespace) -> int:
    from repro.workloads.generators import make_query_workloads
    from repro.workloads.io import save_workload_bundle

    indexable, workloads = make_query_workloads(
        _make_data(args), queries_per_workload=args.queries, seed=args.seed
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
    if args.partial_results:
        overrides["partial_results"] = True
    if args.shard_timeout is not None:
        overrides["shard_timeout"] = args.shard_timeout
    return overrides


def _cmd_build(args: argparse.Namespace) -> int:
    config = HerculesConfig(
        leaf_capacity=args.leaf_capacity,
        initial_segments=args.initial_segments,
        l_max=args.l_max,
        batched_inserts=not args.per_row,
        num_shards=args.shards,
        shard_workers=args.shard_workers,
    )
    with Dataset.open(args.dataset, args.length) as dataset:
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
    return int(args.cache_mb * (1 << 20))


def _cmd_query(args: argparse.Namespace) -> int:
    return _run_queries(args, _print_answer, _print_totals)


def _cmd_explain(args: argparse.Namespace) -> int:
    return _run_queries(args, _explain_answer, _explain_totals)


def _run_queries(args: argparse.Namespace, show_answer, show_totals) -> int:
    """Answer the first ``--count`` series of ``--queries`` on ``--index``:
    the one loop behind ``query`` and ``explain``, which differ only in
    ``show_answer(index, i, answer)`` and ``show_totals(index, registry,
    count, seconds, degraded)``.  Every answer is recorded once, into the
    telemetry hub's registry under ``--telemetry-dir`` or a fresh one.
    """
    index = open_index(
        args.index, cache_bytes=_cache_bytes(args), workers=args.shard_workers
    )
    try:
        config = index.config.with_options(
            epsilon=args.epsilon, **_resilience_overrides(args)
        )
        # knn_approx reads the index's own config; the other calls take it.
        index.config = config
        hub = obs.get_hub()
        registry = obs.MetricsRegistry() if hub is None else hub.registry
        batched = getattr(args, "batch", False)
        with Dataset.open(args.queries, index.series_length) as queries:
            count = queries.num_series if args.count is None else min(
                args.count, queries.num_series
            )
            block = queries.read_batch(0, count)
            if batched:
                answers = index.knn_batch(block, k=args.k, config=config)
            elif getattr(args, "approximate", False):
                answers = (index.knn_approx(query, k=args.k) for query in block)
            else:
                answers = (
                    index.knn(query, k=args.k, config=config) for query in block
                )
            seconds = 0.0
            degraded = 0
            for i, answer in enumerate(answers):
                if not answer.shard_answers:
                    # A sharded coordinator's settle step observed its own.
                    obs.observe_query(answer.profile.time_total)
                obs.record_answer(registry, answer, num_series=index.num_series)
                show_answer(index, i, answer)
                degraded += _print_degradation(answer, f"query {i}")
                seconds += answer.profile.time_total
        if batched:
            stats = answers.stats
            obs.record_batch_stats(registry, stats)
            print(
                f"batch: {stats.unique_leaf_reads} leaf reads serving "
                f"{stats.leaf_uses} uses "
                f"(leaf-sharing {stats.leaf_share_factor:.2f}x, "
                f"{stats.kernel_rows_per_read:.1f} kernel rows/read, "
                f"screen {stats.screen_seconds_per_query * 1e3:.2f} ms/query)"
            )
        show_totals(index, registry, count, seconds, degraded)
    finally:
        index.close()
    return 0


def _print_answer(index, i: int, answer) -> None:
    """``query``'s one line per answer."""
    distances = ", ".join(f"{d:.4f}" for d in answer.distances)
    positions = ", ".join(str(int(p)) for p in answer.positions)
    print(
        f"query {i}: d=[{distances}] pos=[{positions}] "
        f"path={answer.profile.path} "
        f"accessed={answer.profile.data_accessed_fraction(index.num_series):.2%} "
        f"({answer.profile.time_total * 1e3:.1f} ms)"
    )


def _print_totals(index, registry, count: int, seconds: float, degraded: int) -> None:
    print(f"answered {count} queries in {seconds:.3f}s")
    if degraded:
        print(f"WARNING: {degraded} of {count} answers were degraded")
    _print_cache_stats(index, registry)


def _explain_answer(index, i: int, answer) -> None:
    """``explain``'s cost breakdown per answer, one per shard when sharded;
    a blank line separates answers."""
    if i:
        print()
    print(
        obs.explain_profile(
            answer.profile, num_series=index.num_series, label=f"query {i}"
        )
    )
    for shard_id, shard_answer in answer.shard_answers:
        p = shard_answer.profile
        print(
            f"  shard {shard_id}: path={p.path or '?'}  "
            f"{p.candidate_leaves} cand leaves  "
            f"{p.distance_computations} dists  "
            f"{p.series_accessed} series read  "
            f"{p.time_total * 1e3:.1f} ms"
        )


def _explain_totals(index, registry, count: int, seconds: float, degraded: int) -> None:
    if count:
        print()
    print(obs.explain_workload_summary(registry))


def _print_degradation(answer, label: str) -> int:
    """One warning line per degraded/retried answer; returns 1 if degraded."""
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


def _print_cache_stats(index, registry) -> None:
    """Leaf-cache summary lines.  A sharded index's caches live in its
    pool workers, so its per-shard lines total the answers' counters."""
    if isinstance(index, ShardedIndex):
        counters = registry.summary()["counters"]
        totals = [
            (
                counters.get(f"shard.{shard_id}.query.cache.hits", 0),
                counters.get(f"shard.{shard_id}.query.cache.misses", 0),
            )
            for shard_id in range(index.num_shards)
        ]
        if any(hits or misses for hits, misses in totals):
            for shard_id, (hits, misses) in enumerate(totals):
                rate = hits / (hits + misses) if hits + misses else 0.0
                print(
                    f"leaf cache shard {shard_id}: {hits} hits, "
                    f"{misses} misses (hit rate {rate:.2%})"
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


def _open_for_metadata(directory, verify: str = "quick"):
    """Open either layout to read what it holds: a sharded index's query
    pool is not started, so no worker forks for a command that answers
    no query."""
    if manifest_mod.is_sharded_directory(directory):
        return ShardedIndex._open_unserved(directory, verify=verify)
    return HerculesIndex.open(directory, verify=verify)


def _cmd_inspect(args: argparse.Namespace) -> int:
    index = _open_for_metadata(args.index)
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
    directory = Path(args.index)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 1
    sharded = manifest_mod.is_sharded_directory(directory)
    # Labels are padded to the longest, ``shard-XXXX/MANIFEST.json``
    # in a sharded directory.
    width = len(manifest_mod.MANIFEST_FILENAME) + 2
    hint = None
    if sharded:
        width += len(manifest_mod.shard_dirname(0)) + 1
        failures, hint = _verify_shards(directory, args.level, width)
    else:
        failures = _verify_directory(
            directory, args.level, width,
            lambda: manifest_mod.load_manifest(directory),
        )
    if failures == 0:
        # Per-artifact bytes are sound; prove the directory also opens as
        # one coherent generation (cross-file invariants and contiguous
        # shard row bases included).
        try:
            with _open_for_metadata(directory, verify=args.level) as index:
                if sharded:
                    detail = (
                        f"{index.num_series} series over "
                        f"{index.num_shards} shards"
                    )
                else:
                    detail = f"{index.num_series} series, {index.num_leaves} leaves"
                print(f"{'index':<{width}}ok ({detail}, length {index.series_length})")
        except ReproError as exc:
            print(f"{'index':<{width}}DAMAGED — {exc}")
            failures += 1
    if failures:
        print(f"\n{failures} damaged artifact(s) in {directory}")
        if hint:
            print(hint)
        return 1
    layout = ", sharded" if sharded else ""
    print(f"\n{directory} is healthy ({args.level} verification{layout})")
    return 0


def _verify_shards(directory: Path, level: str, width: int):
    """The ``SHARDS.json`` row, then every shard's directory check.
    Returns the failure count and, when only some shards are healthy,
    what a ``--partial-results`` query would still cover."""
    name = manifest_mod.SHARDS_FILENAME
    try:
        shards = manifest_mod.load_shard_manifest(directory)
    except StorageError as exc:
        print(f"{name:<{width}}DAMAGED — {exc}")
        return 1, None
    print(
        f"{name:<{width}}ok (generation {shards.generation}, "
        f"{shards.num_shards} shards, {shards.num_series} series, "
        f"config {shards.config_digest})"
    )
    failures = healthy_shards = healthy_series = 0
    for record in shards.shards:
        damaged = _verify_directory(
            directory / record.name, level, width,
            lambda: manifest_mod.verify_shard_record(directory, record),
            shard=record.name,
        )
        failures += damaged
        if not damaged:
            healthy_shards += 1
            healthy_series += record.num_series
    hint = None
    if 0 < healthy_shards < shards.num_shards:
        hint = (
            f"a --partial-results query would cover "
            f"{healthy_series}/{shards.num_series} series "
            f"({healthy_shards}/{shards.num_shards} shards healthy)"
        )
    return failures, hint


def _verify_directory(
    directory: Path, level: str, width: int, load_manifest, shard: str = ""
) -> int:
    """One index directory's ``MANIFEST.json`` row (``load_manifest()``
    loads and checks it), then one row per artifact it lists; returns how
    many are damaged.  A shard's rows are labelled ``shard-XXXX/name``,
    and its damage names the shard."""
    prefix = f"{shard}/" if shard else ""
    label = prefix + manifest_mod.MANIFEST_FILENAME
    try:
        manifest = load_manifest()
    except StorageError as exc:
        print(f"{label:<{width}}DAMAGED — {exc}")
        return 1
    config = "" if shard else f", config {manifest.config_digest}"
    print(
        f"{label:<{width}}ok ({manifest.num_series} series, "
        f"{manifest.num_leaves} leaves{config})"
    )
    failures = 0
    for name, record in sorted(manifest.artifacts.items()):
        label = prefix + name
        try:
            manifest_mod.check_artifact(
                directory,
                record,
                level=level,
                expected_version=ARTIFACT_VERSIONS.get(name),
            )
        except StorageError as exc:
            blame = f"shard {shard}: " if shard else ""
            print(f"{label:<{width}}DAMAGED — {blame}{exc}")
            failures += 1
            continue
        crc = f", crc32 {record.crc32:#010x} verified" if level == "full" else ""
        print(f"{label:<{width}}ok ({record.size} bytes{crc})")
    return failures


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
    with Dataset.open(args.dataset, args.length) as dataset:
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
    return 1 if report.failed else 0


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
    from repro.eval import experiments

    import inspect

    every = args.figure == "all"
    for figure in sorted(_FIGURE_RUNNERS) if every else [args.figure]:
        if every:
            print(f"\n=== {figure} ===")
        name, kwargs = _FIGURE_RUNNERS[figure]
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

    # Flag groups several subcommands share, each flag declared once.
    made = argparse.ArgumentParser(add_help=False)
    made.add_argument("--kind", choices=tuple(_KINDS), default="synth")
    made.add_argument("--count", type=int, required=True)
    made.add_argument("--length", type=int, default=None,
                      help="series length (defaults to the analog's paper length)")
    made.add_argument("--seed", type=int, default=0)
    made.add_argument("--output", type=Path, required=True)

    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--dataset", type=Path, required=True)
    dataset.add_argument("--length", type=int, required=True)

    layout = argparse.ArgumentParser(add_help=False)
    layout.add_argument("--shards", type=int, default=1,
                        help="partition the dataset into N index shards "
                             "(1: classic single-tree layout, byte-identical "
                             "to previous releases; compare shards Hercules "
                             "only)")
    layout.add_argument("--shard-workers", type=int, default=None,
                        help="worker processes that build the shards "
                             "(default: min(shards, cpu_count); 1 builds "
                             "every shard in order in one worker)")

    noisy = argparse.ArgumentParser(add_help=False)
    noisy.add_argument("--num-queries", type=int, default=10)
    noisy.add_argument("--noise", type=float, default=0.05)
    noisy.add_argument("--seed", type=int, default=0)

    observed = argparse.ArgumentParser(add_help=False)
    observed.add_argument("--trace", type=Path, default=None,
                          help="write a Chrome-trace JSON of the command to FILE")
    observed.add_argument(
        "--telemetry-dir", type=Path, default=None,
        help="write a live telemetry spool (OpenMetrics text, JSON "
             "snapshot, event journal, resource samples) to this "
             "directory; tail it with `repro monitor`")
    observed.add_argument(
        "--telemetry-interval", type=float, default=2.0,
        help="seconds between telemetry flushes (default 2)")

    queried = argparse.ArgumentParser(add_help=False, parents=[observed])
    queried.add_argument("--index", type=Path, required=True)
    queried.add_argument("--queries", type=Path, required=True)
    queried.add_argument("--k", type=int, default=1)
    queried.add_argument("--count", type=int, default=None,
                         help="number of queries to run (default: all)")
    queried.add_argument("--epsilon", type=float, default=0.0,
                         help="epsilon-approximate search factor")
    queried.add_argument("--cache-mb", type=float, default=0.0,
                         help="leaf-block LRU cache budget in MiB (0: disabled; "
                              "split evenly across shards of a sharded index)")
    queried.add_argument("--shard-workers", type=int, default=None,
                         help="query worker processes serving a sharded "
                              "index (default: min(shards, cpu_count); 1 "
                              "answers every shard in order in one worker)")
    queried.add_argument(
        "--partial-results", action="store_true",
        help="allow degraded answers: drop shards that still fail after "
             "their one re-send instead of erroring (coverage is reported)")
    queried.add_argument(
        "--shard-timeout", type=float, default=None,
        help="seconds one shard attempt may run before it counts as failed "
             "(a failed attempt is re-sent once)")

    gen = sub.add_parser("generate", parents=[made],
                         help="write a synthetic dataset file")
    gen.set_defaults(func=_cmd_generate)

    bundle = sub.add_parser(
        "generate-workload",
        parents=[made],
        help="write a dataset plus its five query workloads as a bundle",
    )
    bundle.add_argument("--queries", type=int, default=100)
    bundle.set_defaults(func=_cmd_generate_workload)

    build = sub.add_parser("build", parents=[dataset, layout, observed],
                           help="build a Hercules index")
    build.add_argument("--output", type=Path, required=True)
    build.add_argument("--leaf-capacity", type=int, default=100)
    build.add_argument("--initial-segments", type=int, default=4)
    build.add_argument("--l-max", type=int, default=8)
    build.add_argument("--per-row", action="store_true",
                       help="use the per-row reference insertion path "
                            "instead of grouped batches")
    build.set_defaults(func=_cmd_build)

    query = sub.add_parser("query", parents=[queried],
                           help="answer k-NN queries from a file")
    mode = query.add_mutually_exclusive_group()
    mode.add_argument("--approximate", action="store_true",
                      help="approximate-only search (phase 1)")
    mode.add_argument("--batch", action="store_true",
                      help="answer the whole query set with the batched "
                           "engine (one shared refinement walk); at epsilon "
                           "0 answers are identical to serial execution")
    query.set_defaults(func=_cmd_query)

    explain = sub.add_parser(
        "explain",
        parents=[queried],
        help="answer queries and print per-query cost breakdowns "
        "(phase timings, pruning ratios, modeled I/O)",
    )
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
        parents=[dataset, noisy],
        help="prove every method's answers against brute force on a dataset",
    )
    verify.add_argument("--k", type=int, default=10)
    verify.set_defaults(func=_cmd_verify)

    compare = sub.add_parser("compare", parents=[dataset, noisy, layout, observed],
                             help="compare all methods on a dataset")
    compare.add_argument("--k", type=int, default=1)
    compare.add_argument("--cache-mb", type=float, default=0.0,
                         help="leaf-block LRU cache budget in MiB (0: disabled)")
    compare.add_argument("--prefilter", action="store_true",
                         help="turn on VA+file's fair-contender SAX filter "
                              "(the LB_SAX kernel at 8 bits per symbol)")
    compare.add_argument("--batch", action="store_true",
                         help="run each method's workload through its batched "
                              "engine where it has one (knn_batch); answers "
                              "and counters match serial execution")
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
        "baseline and fail on regression or on a gated metric gone missing",
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
    try:
        with _maybe_telemetry(args), _maybe_trace(args):
            return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
