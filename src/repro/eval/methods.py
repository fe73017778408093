"""Method registry: build every evaluated method over one dataset.

Default parameters follow Section 4.2's tuning, scaled from the paper's
100M-series datasets to this reproduction's 10³-10⁵-series datasets while
preserving the ratios that matter: Hercules and DSTree* share one leaf
size (the paper uses 100K for both), ParIS+ uses a much smaller leaf (2K
in the paper — iSAX trees fragment), VA+file keeps 16 feature dimensions,
and Hercules' query thresholds stay at the paper's EAPCA_TH = 0.25 and
SAX_TH = 0.50.  ``L_max`` scales with the expected leaf count so the
approximate phase visits a comparable *fraction* of leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.baselines import (
    DSTreeConfig,
    DSTreeIndex,
    ParisConfig,
    ParisIndex,
    PScan,
    SerialScan,
    VAFileConfig,
    VAFileIndex,
)
from repro.core import HerculesConfig, HerculesIndex, ShardedIndex
from repro.errors import ConfigError
from repro.storage.dataset import Dataset

#: Display order used by every table (Hercules last like the paper plots
#: list it, scans at the end as reference lines).
ALL_METHODS: tuple[str, ...] = (
    "Hercules",
    "DSTree*",
    "ParIS+",
    "VA+file",
    "PSCAN",
    "SerialScan",
)

#: Leaf size shared by Hercules and DSTree* (paper: 100K, scaled).
DEFAULT_LEAF = 100
#: ParIS+ leaf size (paper: 2K — fifty times smaller than DSTree's).
DEFAULT_PARIS_LEAF = 20
#: Threads used by the parallel methods (paper: 24).
DEFAULT_THREADS = 4


@dataclass
class BuiltMethod:
    """A constructed method plus its measured build time."""

    name: str
    method: object
    build_seconds: float

    def knn(self, query: np.ndarray, k: int = 1):
        return self.method.knn(query, k=k)

    def close(self) -> None:
        self.method.close()


def scaled_l_max(num_series: int, leaf_capacity: int = DEFAULT_LEAF) -> int:
    """L_max covering ~4% of expected leaves (80 of ~2000 in the paper)."""
    expected_leaves = max(num_series // leaf_capacity, 1)
    return max(int(round(expected_leaves * 0.04)), 2)


def hercules_config(
    num_series: int,
    leaf_capacity: int = DEFAULT_LEAF,
    num_threads: int = DEFAULT_THREADS,
    **overrides,
) -> HerculesConfig:
    """Scaled Hercules defaults for an experiment dataset.

    Hercules builds on one thread, so it ignores ``num_threads``; the
    parameter stays for the callers that pass the same value to every
    method (the DSTree*P and ParIS+ baselines use it).  Names in
    :data:`~repro.core.config.RETIRED_FIELDS` are accepted and ignored,
    as :meth:`HerculesConfig.with_options` does; any other unknown name
    raises ``TypeError``.
    """
    return HerculesConfig(
        leaf_capacity=leaf_capacity,
        db_size=max(min(512, num_series // 4), 1),
        l_max=scaled_l_max(num_series, leaf_capacity),
    ).with_options(**overrides)


def build_method(
    name: str,
    dataset: Union[np.ndarray, Dataset],
    directory: Optional[Union[str, Path]] = None,
    leaf_capacity: int = DEFAULT_LEAF,
    num_threads: int = DEFAULT_THREADS,
    cache_bytes: int = 0,
    num_shards: int = 1,
    shard_workers: Optional[int] = None,
    prefilter: bool = False,
    **overrides,
) -> BuiltMethod:
    """Build one method by display name with scaled defaults.

    ``overrides`` are forwarded to the method's own configuration type.
    ``cache_bytes`` sizes the leaf-block LRU of methods that support one
    (currently Hercules); 0 disables caching.  ``num_shards`` > 1 builds
    Hercules as a shard-parallel index (scatter-gather queries; other
    methods are unaffected), with ``shard_workers`` worker processes.
    ``prefilter`` turns on VA+file's "fair contender" SAX filter: the
    LB_SAX kernel Hercules runs, at the 8 bits per symbol Hercules uses,
    so the baseline comparison reflects equal kernel quality.
    """
    num_series = (
        dataset.num_series if isinstance(dataset, Dataset) else dataset.shape[0]
    )
    if name == "Hercules":
        config = hercules_config(
            num_series,
            leaf_capacity,
            num_threads,
            num_shards=num_shards,
            shard_workers=shard_workers,
            **overrides,
        )
        index = ShardedIndex.build(
            dataset,
            config,
            directory=Path(directory) / "hercules" if directory else None,
            cache_bytes=cache_bytes,
        )
        return BuiltMethod(name, index, index.build_report.total_seconds)
    if name == "DSTree*":
        config = DSTreeConfig(leaf_capacity=leaf_capacity, **overrides)
        index = DSTreeIndex.build(
            dataset,
            config,
            directory=Path(directory) / "dstree" if directory else None,
        )
        return BuiltMethod(name, index, index.build_seconds)
    if name == "DSTree*P":
        config = DSTreeConfig(
            leaf_capacity=leaf_capacity,
            num_build_threads=overrides.pop("num_build_threads", num_threads),
            **overrides,
        )
        index = DSTreeIndex.build(
            dataset,
            config,
            directory=Path(directory) / "dstreep" if directory else None,
        )
        return BuiltMethod(name, index, index.build_seconds)
    if name == "ParIS+":
        config = ParisConfig(
            leaf_capacity=overrides.pop("leaf_capacity", DEFAULT_PARIS_LEAF),
            num_query_threads=overrides.pop("num_query_threads", num_threads),
            **overrides,
        )
        index = ParisIndex.build(dataset, config)
        return BuiltMethod(name, index, index.build_seconds)
    if name == "VA+file":
        if prefilter:
            overrides.setdefault("filter_kind", "sax")
            overrides.setdefault("sax_bits", 8)
        config = VAFileConfig(**overrides)
        index = VAFileIndex.build(dataset, config)
        return BuiltMethod(name, index, index.build_seconds)
    if name == "PSCAN":
        scan = PScan(dataset, num_threads=num_threads, **overrides)
        return BuiltMethod(name, scan, 0.0)
    if name == "SerialScan":
        scan = SerialScan(dataset, **overrides)
        return BuiltMethod(name, scan, 0.0)
    raise ConfigError(f"unknown method {name!r}; choose from {ALL_METHODS}")


def build_methods(
    dataset: Union[np.ndarray, Dataset],
    names: Optional[tuple[str, ...]] = None,
    directory: Optional[Union[str, Path]] = None,
    **kwargs,
) -> dict[str, BuiltMethod]:
    """Build several methods over the same dataset."""
    names = names if names is not None else ALL_METHODS
    return {
        name: build_method(name, dataset, directory=directory, **kwargs)
        for name in names
    }
