"""repro — a from-scratch reproduction of Hercules (PVLDB 2022).

Hercules is a parallel tree-based index for exact similarity search over
large data-series collections (Echihabi, Fatourou, Zoumpatianos, Palpanas,
Benbrahim; PVLDB 15(10), 2022).  This package implements the index, every
substrate it depends on, and the baselines it is evaluated against.

Quick start::

    import numpy as np
    from repro import HerculesIndex, HerculesConfig

    data = np.random.default_rng(0).standard_normal((10_000, 128)).cumsum(1)
    index = HerculesIndex.build(data.astype(np.float32))
    answer = index.knn(data[0], k=5)
    print(answer.distances, answer.positions)
"""

from repro.core import (
    BuildReport,
    HerculesConfig,
    HerculesIndex,
    QueryAnswer,
    QueryProfile,
    ShardedBuildReport,
    ShardedIndex,
    open_index,
)
from repro.errors import (
    ConfigError,
    IndexStateError,
    ReproError,
    ShardError,
    ShardTimeoutError,
    StorageError,
    WorkerSupervisionError,
    WorkloadError,
)
from repro.storage.dataset import Dataset

__version__ = "1.0.0"

__all__ = [
    "HerculesConfig",
    "HerculesIndex",
    "BuildReport",
    "QueryAnswer",
    "QueryProfile",
    "ShardedBuildReport",
    "ShardedIndex",
    "open_index",
    "Dataset",
    "ReproError",
    "ConfigError",
    "ShardError",
    "ShardTimeoutError",
    "WorkerSupervisionError",
    "StorageError",
    "IndexStateError",
    "WorkloadError",
    "__version__",
]
