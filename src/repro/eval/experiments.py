"""One entry point per paper figure (Section 4.2).

Every function generates its (scaled) workload, builds the methods being
compared, runs the queries, prints the same rows the paper's figure
plots, and returns the structured results for EXPERIMENTS.md and for
assertions in the benchmark suite.

Scaling note: datasets here are 10³-10⁵ series (the paper's are 10⁸); all
comparisons are *between methods on identical inputs*, so the figures'
shapes — who wins, by what factor, where crossovers fall — are the
reproduction target, not absolute numbers.  Hardware-independent work
metrics (% data accessed, distance computations) are printed next to
every timing.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.eval.metrics import WorkloadResult, run_workload
from repro.eval.methods import ALL_METHODS, build_method
from repro.eval.report import print_table
from repro.storage.dataset import Dataset
from repro.workloads.datasets import make_analog
from repro.workloads.generators import (
    ALL_WORKLOADS,
    make_query_workloads,
    random_walks,
)

#: Methods compared in the scalability experiments (scans are added where
#: the corresponding figure includes them).
INDEX_METHODS: tuple[str, ...] = ("Hercules", "DSTree*", "ParIS+", "VA+file")


@dataclass
class ExperimentResult:
    """Structured output of one experiment run."""

    figure: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    #: method results keyed by arbitrary experiment coordinates.
    raw: dict = field(default_factory=dict)

    def print(self, title: str) -> None:
        print_table(title, self.headers, self.rows)

    def to_json(self) -> dict:
        """JSON-ready form: rows plus per-coordinate cost summaries.

        ``raw`` keys are tuples; they become "/"-joined strings.  Values
        that are :class:`WorkloadResult` collapse to their ``summary()``
        dict; everything else (plain floats) passes through.
        """
        raw = {}
        for key, value in self.raw.items():
            name = (
                "/".join(str(part) for part in key)
                if isinstance(key, tuple)
                else str(key)
            )
            raw[name] = (
                value.summary() if isinstance(value, WorkloadResult) else value
            )
        return {
            "figure": self.figure,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "raw": raw,
        }


class _Workspace:
    """A temp directory for datasets and index files, cleaned on exit."""

    def __init__(self, base: Optional[Path] = None) -> None:
        self._owns = base is None
        self.path = Path(tempfile.mkdtemp(prefix="repro-exp-")) if base is None else Path(base)
        self.path.mkdir(parents=True, exist_ok=True)

    def dataset(self, name: str, data: np.ndarray) -> Dataset:
        return Dataset.write(self.path / f"{name}.bin", data)

    def subdir(self, name: str) -> Path:
        sub = self.path / name
        sub.mkdir(parents=True, exist_ok=True)
        return sub

    def cleanup(self) -> None:
        if self._owns:
            shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Figure 6: scalability with increasing dataset size (idx + queries)
# ---------------------------------------------------------------------------


def figure6_dataset_size(
    sizes: Sequence[int] = (1_000, 2_500, 5_000, 10_000),
    length: int = 64,
    num_queries: int = 20,
    methods: Sequence[str] = INDEX_METHODS,
    seed: int = 6,
    verbose: bool = True,
) -> ExperimentResult:
    """Combined index construction + query answering vs dataset size.

    Mirrors Figures 6a (index + 100 queries) and 6b (index + 10K queries,
    extrapolated with the paper's trim-and-scale procedure) over synthetic
    random walks with random-walk 1NN queries.
    """
    result = ExperimentResult(
        figure="fig6",
        headers=[
            "size",
            "method",
            "build_s",
            "query_s(total)",
            "idx+q_s",
            "idx+10Kq_s",
        ],
    )
    workspace = _Workspace()
    try:
        queries = random_walks(num_queries, length, seed=seed + 999)
        for size in sizes:
            data = random_walks(size, length, seed=seed)
            dataset = workspace.dataset(f"synth-{size}", data)
            for name in methods:
                built = build_method(
                    name, dataset, directory=workspace.subdir(f"{name}-{size}")
                )
                wl = run_workload(built.method, queries, k=1, workload="synth")
                wl.build_seconds = built.build_seconds
                result.raw[(size, name)] = wl
                result.rows.append(
                    [
                        size,
                        name,
                        built.build_seconds,
                        wl.total_query_seconds,
                        wl.combined_seconds(),
                        wl.combined_seconds(10_000),
                    ]
                )
                built.close()
            dataset.close()
    finally:
        workspace.cleanup()
    if verbose:
        result.print("Figure 6: scalability with dataset size (1NN, synth)")
    return result


# ---------------------------------------------------------------------------
# Figure 7: very large datasets — average query time incl. PSCAN
# ---------------------------------------------------------------------------


def figure7_large_datasets(
    sizes: Sequence[int] = (20_000, 30_000),
    length: int = 64,
    num_queries: int = 10,
    seed: int = 7,
    verbose: bool = True,
) -> ExperimentResult:
    """Average 1NN query time on the largest datasets, scans included.

    Mirrors Figure 7 (1TB / 1.5TB in the paper): Hercules must beat every
    index *and* the optimized parallel scan.
    """
    methods = INDEX_METHODS + ("PSCAN",)
    result = ExperimentResult(
        figure="fig7",
        headers=["size", "method", "avg_query_s", "modeled_io_s", "avg_data_accessed"],
    )
    workspace = _Workspace()
    try:
        queries = random_walks(num_queries, length, seed=seed + 999)
        for size in sizes:
            data = random_walks(size, length, seed=seed)
            dataset = workspace.dataset(f"synth-{size}", data)
            for name in methods:
                built = build_method(
                    name, dataset, directory=workspace.subdir(f"{name}-{size}")
                )
                wl = run_workload(built.method, queries, k=1, workload="synth")
                result.raw[(size, name)] = wl
                result.rows.append(
                    [
                        size,
                        name,
                        wl.avg_query_seconds,
                        wl.avg_modeled_io_seconds,
                        wl.avg_data_accessed,
                    ]
                )
                built.close()
            dataset.close()
    finally:
        workspace.cleanup()
    if verbose:
        result.print("Figure 7: average 1NN query time on large datasets")
    return result


# ---------------------------------------------------------------------------
# Figure 8: scalability with increasing series length
# ---------------------------------------------------------------------------


def figure8_series_length(
    lengths: Sequence[int] = (64, 128, 256, 512),
    size: int = 4_000,
    num_queries: int = 10,
    seed: int = 8,
    verbose: bool = True,
) -> ExperimentResult:
    """Average 1NN query time as the series length grows (Figure 8)."""
    methods = INDEX_METHODS + ("PSCAN",)
    result = ExperimentResult(
        figure="fig8",
        headers=["length", "method", "avg_query_s", "modeled_io_s", "avg_data_accessed"],
    )
    workspace = _Workspace()
    try:
        for length in lengths:
            data = random_walks(size, length, seed=seed)
            queries = random_walks(num_queries, length, seed=seed + 999)
            dataset = workspace.dataset(f"synth-{length}", data)
            for name in methods:
                built = build_method(
                    name, dataset, directory=workspace.subdir(f"{name}-{length}")
                )
                wl = run_workload(built.method, queries, k=1, workload="synth")
                result.raw[(length, name)] = wl
                result.rows.append(
                    [
                        length,
                        name,
                        wl.avg_query_seconds,
                        wl.avg_modeled_io_seconds,
                        wl.avg_data_accessed,
                    ]
                )
                built.close()
            dataset.close()
    finally:
        workspace.cleanup()
    if verbose:
        result.print("Figure 8: scalability with series length (1NN, synth)")
    return result


# ---------------------------------------------------------------------------
# Figures 9 & 10: query difficulty over the real-dataset analogs
# ---------------------------------------------------------------------------


def difficulty_experiment(
    datasets: Sequence[str] = ("SALD", "Seismic", "Deep"),
    size: int = 4_000,
    num_queries: int = 20,
    methods: Sequence[str] = INDEX_METHODS,
    include_serial_scan: bool = True,
    workloads: Sequence[str] = ALL_WORKLOADS,
    k: int = 1,
    seed: int = 9,
    verbose: bool = True,
) -> ExperimentResult:
    """Shared run behind Figures 9 and 10.

    For each dataset analog and workload of increasing difficulty, every
    method answers the same exact k-NN queries; rows report build time,
    per-query time, and % of data accessed.  The serial scan provides the
    red-dotted reference line of Figure 9.
    """
    result = ExperimentResult(
        figure="fig9-10",
        headers=[
            "dataset",
            "workload",
            "method",
            "build_s",
            "avg_query_s",
            "modeled_io_s",
            "idx+q_s",
            "avg_data_accessed",
        ],
    )
    workspace = _Workspace()
    method_names = tuple(methods) + (
        ("SerialScan",) if include_serial_scan else ()
    )
    try:
        for dataset_name in datasets:
            raw = make_analog(dataset_name, size, seed=seed)
            indexable, query_sets = make_query_workloads(
                raw, queries_per_workload=num_queries, seed=seed
            )
            dataset = workspace.dataset(dataset_name, indexable)
            built = {
                name: build_method(
                    name,
                    dataset,
                    directory=workspace.subdir(f"{name}-{dataset_name}"),
                )
                for name in method_names
            }
            for label in workloads:
                workload = query_sets[label]
                for name in method_names:
                    wl = run_workload(
                        built[name].method,
                        workload.queries,
                        k=k,
                        workload=label,
                    )
                    wl.build_seconds = built[name].build_seconds
                    result.raw[(dataset_name, label, name)] = wl
                    result.rows.append(
                        [
                            dataset_name,
                            label,
                            name,
                            wl.build_seconds,
                            wl.avg_query_seconds,
                            wl.avg_modeled_io_seconds,
                            wl.combined_seconds(),
                            wl.avg_data_accessed,
                        ]
                    )
            for method in built.values():
                method.close()
            dataset.close()
    finally:
        workspace.cleanup()
    if verbose:
        result.print(
            "Figures 9-10: scalability with query difficulty "
            "(real-dataset analogs)"
        )
    return result


# ---------------------------------------------------------------------------
# Figure 11: scalability with increasing k
# ---------------------------------------------------------------------------


def figure11_knn_k(
    ks: Sequence[int] = (1, 5, 10, 25, 50, 100),
    size: int = 4_000,
    length: int = 64,
    num_queries: int = 10,
    methods: Sequence[str] = INDEX_METHODS,
    seed: int = 11,
    verbose: bool = True,
) -> ExperimentResult:
    """k-NN query time and data accessed vs k on the 5% workload."""
    result = ExperimentResult(
        figure="fig11",
        headers=["k", "method", "avg_query_s", "modeled_io_s", "avg_data_accessed"],
    )
    workspace = _Workspace()
    try:
        raw = random_walks(size, length, seed=seed)
        indexable, query_sets = make_query_workloads(
            raw, queries_per_workload=num_queries, seed=seed, include_ood=False
        )
        queries = query_sets["5%"].queries
        dataset = workspace.dataset("synth", indexable)
        built = {
            name: build_method(
                name, dataset, directory=workspace.subdir(name)
            )
            for name in methods
        }
        for k in ks:
            for name in methods:
                wl = run_workload(
                    built[name].method, queries, k=k, workload="5%"
                )
                result.raw[(k, name)] = wl
                result.rows.append(
                    [
                        k,
                        name,
                        wl.avg_query_seconds,
                        wl.avg_modeled_io_seconds,
                        wl.avg_data_accessed,
                    ]
                )
        for method in built.values():
            method.close()
        dataset.close()
    finally:
        workspace.cleanup()
    if verbose:
        result.print("Figure 11: scalability with increasing k (5% workload)")
    return result


# ---------------------------------------------------------------------------
# Figure 12: ablation study
# ---------------------------------------------------------------------------


def figure12_ablation_indexing(
    size: int = 4_000,
    num_threads: int = 4,
    seed: int = 12,
    verbose: bool = True,
) -> ExperimentResult:
    """Figure 12a: index construction for DSTree*, DSTree*P and Hercules.

    Hercules builds its tree on one thread and writes the index in one
    sequential pass: the paper's InsertWorkers and parallel writer were
    slower on this runtime and are retired, so the Hercules arm is also
    the paper's NoWPara.  ``num_threads`` sizes DSTree*P.
    """
    from repro.core import HerculesIndex

    from repro.eval.methods import hercules_config

    result = ExperimentResult(
        figure="fig12a",
        headers=["variant", "build_s", "write_s", "total_s"],
    )
    workspace = _Workspace()
    try:
        data = make_analog("Deep", size, seed=seed)
        dataset = workspace.dataset("deep", data)

        for variant in ("DSTree*", "DSTree*P"):
            built = build_method(
                variant,
                dataset,
                directory=workspace.subdir(variant.lower().replace("*", "")),
                num_threads=num_threads,
            )
            result.raw[variant] = built.build_seconds
            result.rows.append([variant, built.build_seconds, 0.0, built.build_seconds])
            built.close()

        config = hercules_config(dataset.num_series)
        index = HerculesIndex.build(
            dataset, config, directory=workspace.subdir("hercules")
        )
        report = index.build_report
        result.raw["Hercules"] = report.total_seconds
        result.rows.append(
            [
                "Hercules",
                report.build_seconds,
                report.write_seconds,
                report.total_seconds,
            ]
        )
        index.close()
        dataset.close()
    finally:
        workspace.cleanup()
    if verbose:
        result.print("Figure 12a: ablation — index construction (Deep analog)")
    return result


def figure12_ablation_query(
    size: int = 4_000,
    num_queries: int = 15,
    workloads: Sequence[str] = ("1%", "5%", "ood"),
    seed: int = 12,
    verbose: bool = True,
) -> ExperimentResult:
    """Figure 12b: query answering for NoSAX, NoThresh and Hercules.

    Hercules answers on the calling thread, so the Hercules arm is also
    the paper's NoPara: its CRWorker threads were slower on this runtime
    and are retired (EXPERIMENTS.md, Figure 12b).
    """
    from repro.core import HerculesIndex

    from repro.eval.methods import hercules_config

    variants = {
        "Hercules": {},
        "NoSAX": {"use_sax": False},
        "NoThresh": {"adaptive_thresholds": False},
    }
    result = ExperimentResult(
        figure="fig12b",
        headers=[
            "workload",
            "variant",
            "avg_query_s",
            "approx_s",
            "refine_s",
            "avg_data_accessed",
        ],
    )
    workspace = _Workspace()
    try:
        raw = make_analog("Deep", size, seed=seed)
        indexable, query_sets = make_query_workloads(
            raw, queries_per_workload=num_queries, seed=seed
        )
        dataset = workspace.dataset("deep", indexable)
        config = hercules_config(dataset.num_series)
        index = HerculesIndex.build(
            dataset, config, directory=workspace.subdir("hercules")
        )
        for label in workloads:
            queries = query_sets[label].queries
            for variant, overrides in variants.items():
                variant_config = config.with_options(**overrides)
                profiles = []
                for query in queries:
                    answer = index.knn(query, k=1, config=variant_config)
                    profiles.append(answer.profile)
                wl = WorkloadResult(
                    method=variant,
                    workload=label,
                    k=1,
                    num_series=index.num_series,
                    build_seconds=index.build_report.total_seconds,
                    profiles=profiles,
                )
                result.raw[(label, variant)] = wl
                result.rows.append(
                    [
                        label,
                        variant,
                        wl.avg_query_seconds,
                        float(np.mean([p.time_approx for p in profiles])),
                        float(np.mean([p.time_refine for p in profiles])),
                        wl.avg_data_accessed,
                    ]
                )
        index.close()
        dataset.close()
    finally:
        workspace.cleanup()
    if verbose:
        result.print("Figure 12b: ablation — query answering (Deep analog)")
    return result


#: Used by benchmarks to iterate all methods including scans.
ALL_METHOD_NAMES = ALL_METHODS
