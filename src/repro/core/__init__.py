"""The Hercules index: the paper's primary contribution.

Public entry points: :class:`HerculesIndex` (build/open/knn),
:class:`HerculesConfig` (all tunables including ablation switches), and
the shard-parallel engine (:class:`ShardedIndex` / :func:`open_index`)
that scales construction and query answering past the GIL.
"""

from repro.core.batch_query import BatchAnswer, BatchStats
from repro.core.config import HerculesConfig
from repro.core.index import BuildReport, HerculesIndex
from repro.core.query import QueryAnswer, QueryProfile
from repro.core.results import LinkedResultSet, ResultSet
from repro.core.sharding import (
    ShardedBuildReport,
    ShardedIndex,
    open_index,
    partition_rows,
)

__all__ = [
    "BatchAnswer",
    "BatchStats",
    "HerculesConfig",
    "HerculesIndex",
    "BuildReport",
    "QueryAnswer",
    "QueryProfile",
    "ResultSet",
    "LinkedResultSet",
    "ShardedBuildReport",
    "ShardedIndex",
    "open_index",
    "partition_rows",
]
