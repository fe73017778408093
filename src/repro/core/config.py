"""Configuration for the Hercules index.

Defaults follow Section 4.2 ("Parameterization") scaled from the paper's
100M-series datasets down to laptop scale: the paper uses a leaf size of
100K series, a DBSize of 120K, 24 build threads with a flush threshold of
12, 12 write threads, and — during query answering — 24 threads,
``L_max = 80``, ``EAPCA_TH = 0.25`` and ``SAX_TH = 0.50``.  The two query
thresholds and ``L_max`` are kept at the paper's values (they are ratios,
not sizes); the capacity-like knobs default to values that produce trees
of comparable depth on datasets three orders of magnitude smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import ConfigError
from repro.retry import RetryPolicy


@dataclass(frozen=True)
class HerculesConfig:
    """All tunables of index construction and query answering.

    Ablation switches (Figure 12) are part of the configuration so the
    NoSAX / NoPara / NoWPara / NoThresh variants are first-class:

    * ``parallel_writing=False`` → NoWPara,
    * ``use_sax=False`` → NoSAX,
    * ``num_query_threads=1`` → NoPara, the default: faster on this
      runtime (EXPERIMENTS.md, Figure 12b); ``> 1`` is the "Para" arm,
    * ``adaptive_thresholds=False`` → NoThresh.
    """

    # -- tree shape ---------------------------------------------------------
    #: Leaf capacity τ: a leaf splits when it exceeds this many series.
    leaf_capacity: int = 100
    #: Number of segments in the root's (uniform) initial segmentation.
    initial_segments: int = 4
    #: Split-policy ablations (Section 3.2: EAPCA trees adapt resolution
    #: both horizontally and vertically, routing on mean or stddev).
    allow_vertical_splits: bool = True
    allow_std_routing: bool = True

    # -- iSAX summaries ------------------------------------------------------
    sax_segments: int = 16
    sax_alphabet: int = 256

    # -- index building ------------------------------------------------------
    #: Total threads during building: 1 coordinator + (N-1) InsertWorkers.
    #: ``1`` selects the sequential building path (no worker threads).
    num_build_threads: int = 4
    #: Series per DBuffer half (the paper's DBSize).
    db_size: int = 256
    #: HBuffer capacity in series; ``None`` sizes it to hold the dataset.
    buffer_capacity: int | None = None
    #: Number of full worker regions that triggers a flush.
    flush_threshold: int = 2
    #: Grouped batch insertion (the default): whole DBuffer claims are
    #: routed and stored as vectorized groups.  ``False`` selects the
    #: per-row reference path (one ``insert_series`` call per series),
    #: which builds a bit-for-bit identical tree, only slower.
    batched_inserts: bool = True
    #: Series claimed per FetchAdd by each InsertWorker (and per
    #: ``insert_batch`` call on the sequential path).  ``None`` picks a
    #: size automatically: the whole DBuffer batch when there is one
    #: InsertWorker (1 or 2 build threads), ``db_size / (4 · workers)``
    #: otherwise (large enough to amortize routing, small enough to
    #: balance load).
    claim_size: int | None = None

    # -- index writing -------------------------------------------------------
    num_write_threads: int = 2
    #: NoWPara ablation: post-process leaves sequentially when False.
    parallel_writing: bool = True

    # -- sharding (ParIS+/MESSI-style scale-out past the GIL) ----------------
    #: Number of independent shard indexes the dataset is partitioned
    #: into.  1 (the default) is the classic single-tree layout,
    #: byte-identical to a non-sharded build.  N > 1 builds N disjoint
    #: sub-indexes under ``shard-XXXX/`` directories coordinated by a
    #: :class:`~repro.core.sharding.ShardedIndex`; exact k-NN over the
    #: disjoint union stays exact by construction.
    num_shards: int = 1
    #: Worker *processes* used to build shards (and, when > 0 at open
    #: time, to answer queries).  ``None`` picks ``min(num_shards,
    #: cpu_count)`` for builds; ``0`` builds inline in the coordinator
    #: process.  Without a query pool the shards answer one after another
    #: on the calling thread.
    shard_workers: int | None = None

    # -- shard resilience (retries, supervision, degradation) -----------------
    #: Replacement worker processes the worker supervisor may spawn
    #: (per build, or per query pool) before giving a worker up.
    max_worker_restarts: int = 2
    #: Total tries per shard dispatch — a query's, or a build task's
    #: after error replies (1 disables retries).
    shard_retry_attempts: int = 3
    #: Base backoff before the first shard retry; doubles per attempt
    #: with deterministic per-shard jitter (see :mod:`repro.retry`).
    shard_retry_backoff: float = 0.05
    #: Jitter fraction mixed into shard retry backoff, in [0, 1].
    shard_retry_jitter: float = 0.5
    #: Seconds one shard attempt may run before it is declared failed
    #: (``None``: unbounded).
    shard_timeout: float | None = None
    #: Whole-query wall-clock budget across all shards and retries
    #: (``None``: unbounded).
    query_deadline: float | None = None
    #: Allow a query to drop shards that still fail after retries and
    #: return a degraded answer (``coverage`` < 1) instead of raising.
    #: Exact-mode queries refuse to degrade unless this is set.
    partial_results: bool = False
    #: Seconds without any worker progress before a build is declared
    #: dead (the dead-build watchdog).
    build_stall_timeout: float = 600.0
    #: Seconds to wait for build workers to exit before escalating to
    #: terminate()/kill().
    build_join_timeout: float = 30.0
    #: Seconds to wait for query-pool workers to exit before escalating.
    query_join_timeout: float = 10.0

    # -- query answering -----------------------------------------------------
    #: Maximum leaves visited by the approximate search (paper default 80).
    l_max: int = 80
    #: EAPCA pruning-ratio threshold below which a skip-sequential scan of
    #: LRDFile replaces phases 3-4 (paper default 0.25).
    eapca_th: float = 0.25
    #: SAX pruning-ratio threshold below which a skip-sequential scan of
    #: LRDFile replaces phase 4 (paper default 0.50).
    sax_th: float = 0.50
    #: CRWorker threads of one query's refinement walk (1: NoPara).
    num_query_threads: int = 1
    #: NoSAX ablation: prune with LB_EAPCA only when False.
    use_sax: bool = True
    #: NoThresh ablation: when False, phases 3-4 always run.
    adaptive_thresholds: bool = True
    #: ε-approximate search (the paper's stated future-work direction,
    #: following its ref [22]): every pruning comparison is tightened by
    #: (1 + ε), guaranteeing reported distances within (1 + ε) of the
    #: exact answers.  0.0 (default) keeps search exact.
    epsilon: float = 0.0

    # -- position of the LB_SAX pass -----------------------------------------
    #: Run the phase-3 LB_SAX pass ahead of the access-path decision
    #: instead of after it (the paper's position), so the leaves that
    #: kept no row leave LCList before a skip-sequential scan too.
    #: Answers stay bit-for-bit identical either way.
    prefilter: bool = False
    #: Ablation only: with ``prefilter``, the per-segment cardinality (in
    #: bits) the in-RAM iSAX words are reduced to when the index is
    #: opened.  Fewer bits prune less and save nothing — the default is
    #: the full resolution of a 256-symbol alphabet.
    prefilter_bits: int = 8

    def __post_init__(self) -> None:
        if self.leaf_capacity < 2:
            raise ConfigError(f"leaf_capacity must be >= 2, got {self.leaf_capacity}")
        if self.initial_segments < 1:
            raise ConfigError(
                f"initial_segments must be >= 1, got {self.initial_segments}"
            )
        if self.sax_segments < 1:
            raise ConfigError(f"sax_segments must be >= 1, got {self.sax_segments}")
        if not 2 <= self.sax_alphabet <= 256:
            raise ConfigError(
                f"sax_alphabet must be in [2, 256], got {self.sax_alphabet}"
            )
        if self.num_build_threads < 1:
            raise ConfigError(
                f"num_build_threads must be >= 1, got {self.num_build_threads}"
            )
        if self.db_size < 1:
            raise ConfigError(f"db_size must be >= 1, got {self.db_size}")
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ConfigError(
                f"buffer_capacity must be positive, got {self.buffer_capacity}"
            )
        if self.claim_size is not None and self.claim_size < 1:
            raise ConfigError(
                f"claim_size must be >= 1, got {self.claim_size}"
            )
        num_insert_workers = max(self.num_build_threads - 1, 1)
        if not 1 <= self.flush_threshold <= num_insert_workers:
            raise ConfigError(
                f"flush_threshold must be in [1, {num_insert_workers}] "
                f"(the InsertWorker count), got {self.flush_threshold}"
            )
        if self.num_write_threads < 1:
            raise ConfigError(
                f"num_write_threads must be >= 1, got {self.num_write_threads}"
            )
        if self.l_max < 1:
            raise ConfigError(f"l_max must be >= 1, got {self.l_max}")
        for name, value in (("eapca_th", self.eapca_th), ("sax_th", self.sax_th)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.num_query_threads < 1:
            raise ConfigError(
                f"num_query_threads must be >= 1, got {self.num_query_threads}"
            )
        if self.epsilon < 0.0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if not 1 <= self.prefilter_bits <= 8:
            raise ConfigError(
                f"prefilter_bits must be in [1, 8], got {self.prefilter_bits}"
            )
        if self.num_shards < 1:
            raise ConfigError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.shard_workers is not None and self.shard_workers < 0:
            raise ConfigError(
                f"shard_workers must be >= 0, got {self.shard_workers}"
            )
        if self.max_worker_restarts < 0:
            raise ConfigError(
                f"max_worker_restarts must be >= 0, got "
                f"{self.max_worker_restarts}"
            )
        if self.shard_retry_attempts < 1:
            raise ConfigError(
                f"shard_retry_attempts must be >= 1, got "
                f"{self.shard_retry_attempts}"
            )
        if self.shard_retry_backoff < 0.0:
            raise ConfigError(
                f"shard_retry_backoff must be >= 0, got "
                f"{self.shard_retry_backoff}"
            )
        if not 0.0 <= self.shard_retry_jitter <= 1.0:
            raise ConfigError(
                f"shard_retry_jitter must be in [0, 1], got "
                f"{self.shard_retry_jitter}"
            )
        for name in ("shard_timeout", "query_deadline"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ConfigError(f"{name} must be positive, got {value}")
        for name in (
            "build_stall_timeout",
            "build_join_timeout",
            "query_join_timeout",
        ):
            if getattr(self, name) <= 0.0:
                raise ConfigError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )

    @property
    def num_insert_workers(self) -> int:
        """InsertWorker count: total build threads minus the coordinator."""
        return max(self.num_build_threads - 1, 1)

    @property
    def effective_claim_size(self) -> int:
        """Series claimed per FetchAdd during batched insertion.

        The configured ``claim_size``, or the auto heuristic: the whole
        DBuffer batch when there is one InsertWorker (1 or 2 build
        threads) — with nothing to balance, wider claims only mean fewer,
        larger routing groups — and a quarter of each worker's fair share
        otherwise.  The claim size never changes the tree.
        """
        if self.claim_size is not None:
            return self.claim_size
        if self.num_insert_workers == 1:
            return self.db_size
        return max(self.db_size // (4 * self.num_insert_workers), 1)

    def retry_policy(self) -> RetryPolicy:
        """The shard-dispatch :class:`~repro.retry.RetryPolicy` this
        configuration describes."""
        return RetryPolicy(
            attempts=self.shard_retry_attempts,
            backoff_seconds=self.shard_retry_backoff,
            jitter_fraction=self.shard_retry_jitter,
            shard_timeout=self.shard_timeout,
            deadline=self.query_deadline,
        )

    @classmethod
    def from_settings(cls, persisted: dict) -> "HerculesConfig":
        """The configuration an index directory was built with.

        ``persisted`` is the field dict stored in its HTree settings.
        Knobs a later release retired are dropped, so directories
        written before the retirement keep opening.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in persisted.items() if k in known})

    def with_options(self, **changes) -> "HerculesConfig":
        """A copy of this configuration with the given fields replaced."""
        return replace(self, **changes)
