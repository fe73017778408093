"""Configuration for the Hercules index.

Defaults follow Section 4.2 ("Parameterization") scaled from the paper's
100M-series datasets down to laptop scale: the paper uses a leaf size of
100K series, a DBSize of 120K, 24 build threads with a flush threshold of
12, 12 write threads, and — during query answering — 24 threads,
``L_max = 80``, ``EAPCA_TH = 0.25`` and ``SAX_TH = 0.50``.  The two query
thresholds and ``L_max`` are kept at the paper's values (they are ratios,
not sizes); the capacity-like knobs default to values that produce trees
of comparable depth on datasets three orders of magnitude smaller.  The
build, write and query threads have no knobs: all three phases run on
one thread here (EXPERIMENTS.md, Figures 12a and 12b).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import ConfigError

#: Fields a later release retired.  ``with_options`` accepts and ignores
#: them, so callers written against the older configuration keep working;
#: ``from_settings`` drops every unknown key anyway.
RETIRED_FIELDS = ("num_query_threads", "prefilter", "prefilter_bits")


@dataclass(frozen=True)
class HerculesConfig:
    """All tunables of index construction and query answering.

    Ablation switches (Figure 12) are part of the configuration so the
    NoSAX / NoThresh variants are first-class:

    * ``use_sax=False`` → NoSAX,
    * ``adaptive_thresholds=False`` → NoThresh.

    Index building, index writing and query answering each run on the
    calling thread (the paper's NoWPara and NoPara variants): its
    InsertWorker threads, parallel writer and CRWorker threads were
    slower on this runtime (EXPERIMENTS.md, Figures 12a and 12b), so
    none has a switch.
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
    #: Series per dataset read and per insert batch (the paper's DBSize).
    db_size: int = 256
    #: HBuffer capacity in series; ``None`` sizes it to hold the dataset.
    buffer_capacity: int | None = None
    #: Grouped batch insertion (the default): whole ``db_size`` batches
    #: are routed and stored as vectorized groups.  ``False`` selects the
    #: per-row reference path (one ``insert_series`` call per series),
    #: which builds a bit-for-bit identical tree, only slower.
    batched_inserts: bool = True

    # -- sharding (ParIS+/MESSI-style scale-out past the GIL) ----------------
    #: Number of independent shard indexes the dataset is partitioned
    #: into.  1 (the default) is the classic single-tree layout,
    #: byte-identical to a non-sharded build.  N > 1 builds N disjoint
    #: sub-indexes under ``shard-XXXX/`` directories coordinated by a
    #: :class:`~repro.core.sharding.ShardedIndex`; exact k-NN over the
    #: disjoint union stays exact by construction.
    num_shards: int = 1
    #: Worker *processes* that build the shards and then answer their
    #: queries.  ``None`` picks ``min(num_shards, cpu_count)``; one
    #: worker serves every shard in order.
    shard_workers: int | None = None

    # -- shard resilience (one re-send per failed shard, then degradation) --
    #: Seconds one shard attempt may run before it is declared failed
    #: (``None``: unbounded).  A failed attempt is re-sent once.
    shard_timeout: float | None = None
    #: Allow a query to drop shards that still fail after their re-send
    #: and return a degraded answer (``coverage`` < 1) instead of raising.
    #: Exact-mode queries refuse to degrade unless this is set.
    partial_results: bool = False

    # -- query answering -----------------------------------------------------
    #: Maximum leaves visited by the approximate search (paper default 80).
    l_max: int = 80
    #: EAPCA pruning-ratio threshold below which a skip-sequential scan of
    #: LRDFile replaces phases 3-4 (paper default 0.25).
    eapca_th: float = 0.25
    #: SAX pruning-ratio threshold below which a skip-sequential scan of
    #: LRDFile replaces phase 4 (paper default 0.50).
    sax_th: float = 0.50
    #: NoSAX ablation: prune with LB_EAPCA only when False.
    use_sax: bool = True
    #: NoThresh ablation: when False, phases 3-4 always run.
    adaptive_thresholds: bool = True
    #: ε-approximate search (the paper's stated future-work direction,
    #: following its ref [22]): every pruning comparison is tightened by
    #: (1 + ε), guaranteeing reported distances within (1 + ε) of the
    #: exact answers.  0.0 (default) keeps search exact.
    epsilon: float = 0.0

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
        if self.db_size < 1:
            raise ConfigError(f"db_size must be >= 1, got {self.db_size}")
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ConfigError(
                f"buffer_capacity must be positive, got {self.buffer_capacity}"
            )
        if self.l_max < 1:
            raise ConfigError(f"l_max must be >= 1, got {self.l_max}")
        for name, value in (("eapca_th", self.eapca_th), ("sax_th", self.sax_th)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.epsilon < 0.0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.num_shards < 1:
            raise ConfigError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.shard_workers is not None and self.shard_workers < 1:
            raise ConfigError(
                f"shard_workers must be >= 1, got {self.shard_workers}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0.0:
            raise ConfigError(
                f"shard_timeout must be positive, got {self.shard_timeout}"
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
        """A copy of this configuration with the given fields replaced.

        Names in :data:`RETIRED_FIELDS` are accepted and ignored; any
        other unknown name raises ``TypeError``.
        """
        for name in RETIRED_FIELDS:
            changes.pop(name, None)
        return replace(self, **changes)
