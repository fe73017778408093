"""The Hercules index facade: build → write → query, plus persistence.

Typical usage::

    from repro import HerculesIndex, HerculesConfig

    index = HerculesIndex.build(data, HerculesConfig(leaf_capacity=100),
                                directory="./my_index")
    answer = index.knn(query, k=10)
    index.close()

    index = HerculesIndex.open("./my_index")   # later, from disk

``build`` runs the two construction stages of Section 3.3 (index building
and index writing); the returned object is immediately queryable.  ``open``
reconstructs a queryable index from the three materialized files (HTree,
LRDFile, LSDFile).
"""

from __future__ import annotations

import dataclasses
import logging
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro import obs
from repro.core.batch_query import BatchAnswer, exact_knn, exact_knn_batch
from repro.core.config import HerculesConfig
from repro.core.construction import build_tree, new_build_context
from repro.core.leaf_table import LeafTable
from repro.core.node import Node
from repro.core.prefilter import SignatureArray
from repro.core.query import QueryAnswer, progressive_knn
from repro.core.writing import (
    HTREE_FILENAME,
    LRD_FILENAME,
    LSD_FILENAME,
    write_index,
)
from repro.errors import (
    ConfigError,
    IndexStateError,
    ManifestError,
    StorageError,
)
from repro.storage import htree
from repro.storage import manifest as manifest_mod
from repro.storage.cache import LeafCache
from repro.storage.dataset import Dataset
from repro.storage.files import SeriesFile, SymbolFile
from repro.storage.iostats import IOSnapshot, IOStats
from repro.summarization.sax import SaxSpace
from repro.types import as_series

logger = logging.getLogger(__name__)

_SPILL_FILENAME = "spill.bin"
_SETTINGS_KEY_CONFIG = "config"


@dataclass(frozen=True)
class BuildReport:
    """Timing and work counters of one index construction."""

    build_seconds: float
    write_seconds: float
    num_series: int
    num_leaves: int
    splits: int
    flushes: int
    io: IOSnapshot
    #: Phase-1 wall time by phase (Table 4): group routing, HBuffer
    #: stores + synopsis updates, leaf splits, and flush spills.  The
    #: per-row reference path only accounts split and flush time.
    route_seconds: float = 0.0
    store_seconds: float = 0.0
    split_seconds: float = 0.0
    flush_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.write_seconds

    @property
    def series_per_sec(self) -> float:
        """Phase-1 construction throughput."""
        if self.build_seconds <= 0.0:
            return 0.0
        return self.num_series / self.build_seconds


class HerculesIndex:
    """A materialized Hercules index over one dataset."""

    def __init__(
        self,
        root: Node,
        config: HerculesConfig,
        directory: Path,
        lrd: SeriesFile,
        sax: SignatureArray,
        num_series: int,
        build_report: Optional[BuildReport] = None,
        owns_directory: bool = False,
    ) -> None:
        self.root = root
        self.config = config
        self.directory = directory
        self._lrd = lrd
        self._sax = sax
        self.num_series = num_series
        self.build_report = build_report
        self._owns_directory = owns_directory
        self._closed = False
        self.sax_space = sax.space
        # Every query path reads its LB_EAPCA bounds from this one table;
        # building it checks the leaf extents at every verify level.
        self._table = LeafTable(root, num_series)
        self._leaves = self._table.leaves

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        data: Union[np.ndarray, Dataset],
        config: Optional[HerculesConfig] = None,
        directory: Optional[Union[str, Path]] = None,
        stats: Optional[IOStats] = None,
        cache_bytes: int = 0,
    ) -> "HerculesIndex":
        """Build and materialize an index over ``data``.

        ``data`` may be an in-memory batch or a :class:`Dataset`.  When
        ``directory`` is None a temporary directory is created and removed
        on :meth:`close`.  ``stats`` receives the I/O of construction.
        ``cache_bytes`` > 0 attaches a byte-budgeted LRU leaf cache to
        LRDFile for query answering (0 disables caching entirely).
        """
        dataset = data if isinstance(data, Dataset) else Dataset.from_array(data)
        if dataset.num_series == 0:
            raise ConfigError("cannot index an empty dataset")
        config = config if config is not None else HerculesConfig()

        owns_directory = directory is None
        directory = (
            Path(tempfile.mkdtemp(prefix="hercules-"))
            if directory is None
            else Path(directory)
        )
        directory.mkdir(parents=True, exist_ok=True)
        build_stats = stats if stats is not None else IOStats()
        sax_space = SaxSpace(config.sax_segments, config.sax_alphabet)

        spill = SeriesFile(
            directory / _SPILL_FILENAME, dataset.series_length, stats=build_stats
        )
        try:
            with obs.span(
                "build",
                num_series=dataset.num_series,
                series_length=dataset.series_length,
            ):
                started = time.perf_counter()
                with obs.io_span("build.phase1", build_stats):
                    ctx = build_tree(
                        dataset,
                        config,
                        spill,
                        context=new_build_context(dataset, config, spill),
                    )
                build_seconds = time.perf_counter() - started
                obs.emit_event(
                    "build_phase",
                    phase="tree",
                    seconds=round(build_seconds, 6),
                    num_series=dataset.num_series,
                )

                settings = {
                    _SETTINGS_KEY_CONFIG: dataclasses.asdict(config),
                    "num_series": dataset.num_series,
                    "series_length": dataset.series_length,
                }
                started = time.perf_counter()
                with obs.io_span("build.phase2", build_stats):
                    result = write_index(
                        ctx, directory, sax_space, settings, build_stats
                    )
                write_seconds = time.perf_counter() - started
                obs.emit_event(
                    "build_phase",
                    phase="write",
                    seconds=round(write_seconds, 6),
                    num_leaves=result.num_leaves,
                )
        finally:
            spill.close()
        (directory / _SPILL_FILENAME).unlink(missing_ok=True)

        if result.num_series != dataset.num_series:
            raise IndexStateError(
                f"index holds {result.num_series} series but the dataset has "
                f"{dataset.num_series}; series were lost during construction"
            )

        phases = ctx.timers.seconds()
        report = BuildReport(
            build_seconds=build_seconds,
            write_seconds=write_seconds,
            num_series=result.num_series,
            num_leaves=result.num_leaves,
            splits=ctx.splits.load(),
            flushes=ctx.flushes.load(),
            io=build_stats.snapshot(),
            route_seconds=phases["route"],
            store_seconds=phases["store"],
            split_seconds=phases["split"],
            flush_seconds=phases["flush"],
        )

        logger.info(
            "index ready: %d leaves over %d series in %.2fs "
            "(build %.2fs + write %.2fs)",
            result.num_leaves,
            result.num_series,
            report.total_seconds,
            report.build_seconds,
            report.write_seconds,
        )
        query_stats = IOStats()
        lrd = SeriesFile(
            directory / LRD_FILENAME,
            dataset.series_length,
            stats=query_stats,
            read_only=True,
            cache=_make_cache(cache_bytes),
        )
        return cls(
            root=ctx.root,
            config=config,
            directory=directory,
            lrd=lrd,
            sax=_load_sax(directory, sax_space, config, result.num_series),
            num_series=result.num_series,
            build_report=report,
            owns_directory=owns_directory,
        )

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        verify: str = "quick",
        cache_bytes: int = 0,
    ) -> "HerculesIndex":
        """Open a previously materialized index.

        ``cache_bytes`` > 0 attaches a byte-budgeted LRU leaf cache to
        LRDFile for query answering (0, the default, disables caching —
        identical behaviour to the uncached pipeline).

        ``verify`` selects how much of the directory is validated before
        any query is served:

        * ``"quick"`` (default) — the manifest must be present and pass
          its own integrity checksum, and every artifact must exist with
          the committed byte size and a supported format version;
        * ``"full"`` — additionally recomputes each artifact's CRC32 and
          checks cross-file invariants (LRDFile's record count agrees
          with the tree's);
        * ``"off"`` — the legacy permissive behaviour: only the HTree
          header is validated.

        What the query pipeline indexes by row is checked at every
        level: the leaf extents tile LRDFile, and LSDFile holds one word
        per series.

        Damage raises :class:`~repro.errors.ManifestError` or
        :class:`~repro.errors.ChecksumError` naming the broken artifact.
        Pre-manifest directories still open (with a logged warning).
        """
        directory = Path(directory)
        if verify not in manifest_mod.VERIFY_LEVELS:
            raise ValueError(
                f"verify must be one of {manifest_mod.VERIFY_LEVELS}, "
                f"got {verify!r}"
            )
        manifest = None
        if verify != "off":
            if not (directory / manifest_mod.MANIFEST_FILENAME).exists():
                logger.warning(
                    "no MANIFEST.json in %s: legacy pre-manifest index "
                    "directory, opening without artifact verification",
                    directory,
                )
            else:
                manifest = manifest_mod.load_manifest(directory)
                manifest_mod.verify_directory(
                    directory,
                    manifest,
                    level=verify,
                    expected_versions={
                        LRD_FILENAME: manifest_mod.LRD_FORMAT_VERSION,
                        LSD_FILENAME: manifest_mod.LSD_FORMAT_VERSION,
                        HTREE_FILENAME: htree.FORMAT_VERSION,
                    },
                )
        htree_path = directory / HTREE_FILENAME
        if not htree_path.exists():
            raise StorageError(f"no HTree file at {htree_path}")
        root, settings = htree.load_tree(htree_path)
        config = HerculesConfig.from_settings(settings[_SETTINGS_KEY_CONFIG])
        sax_space = SaxSpace(config.sax_segments, config.sax_alphabet)
        query_stats = IOStats()
        lrd = SeriesFile(
            directory / LRD_FILENAME,
            settings["series_length"],
            stats=query_stats,
            read_only=True,
            cache=_make_cache(cache_bytes),
        )
        num_series = settings["num_series"]
        if manifest is not None and manifest.num_series != num_series:
            raise ManifestError(
                f"manifest records {manifest.num_series} series but the "
                f"HTree settings record {num_series}: mixed generations"
            )
        if verify == "full" and lrd.num_series != num_series:
            # Each file can be well-formed on its own and the directory
            # still be torn or mixed-generation.  (Leaf extents and
            # LSDFile's row count are checked at every level, by
            # LeafTable and _load_sax.)
            raise StorageError(
                f"lrd.bin holds {lrd.num_series} series but the index "
                f"records {num_series}"
            )
        return cls(
            root=root,
            config=config,
            directory=directory,
            lrd=lrd,
            sax=_load_sax(directory, sax_space, config, num_series),
            num_series=num_series,
        )

    # -- querying --------------------------------------------------------------

    def knn(
        self,
        query: np.ndarray,
        k: int = 1,
        config: Optional[HerculesConfig] = None,
        results=None,
    ) -> QueryAnswer:
        """Exact k-NN search (Algorithm 10): :meth:`knn_batch` of one query.

        ``config`` overrides query-time settings (threads, thresholds,
        ablation switches) without rebuilding the index.  ``results``
        optionally supplies the :class:`~repro.core.results.ResultSet`
        searched into — the shard scatter-gather coordinator passes a
        linked set so this index prunes against the global BSF².
        """
        self._check_open()
        effective = config if config is not None else self.config
        return exact_knn(
            as_series(query, self.series_length),
            k,
            effective,
            self._table,
            self._lrd,
            self._sax,
            num_series=self.num_series,
            results=results,
        )

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int = 1,
        config: Optional[HerculesConfig] = None,
        results=None,
    ) -> BatchAnswer:
        """Exact k-NN for a whole query set: the one exact pipeline.

        One (Q × nodes) bound pass, phases 1-2 per query, then one
        refinement walk over the union of every query's candidates: per
        chunk one read and one multi-query kernel call serve every query
        that still needs those rows.  :meth:`knn` is its Q = 1 call.  At
        ε = 0 per-query answers are value-identical to calling
        :meth:`knn` once per query; at ε > 0 they meet the same (1 + ε)
        guarantee but may differ from :meth:`knn`'s.  The returned
        :class:`~repro.core.batch_query.BatchAnswer` iterates like the
        per-query answer list and carries batch-level
        :class:`~repro.core.batch_query.BatchStats` (leaf-share factor,
        kernel rows per read, screen time).

        ``results`` optionally supplies one result set per query — the
        shard scatter-gather coordinator passes linked sets so each
        query here prunes against its own global BSF².
        """
        return self._search(queries, k, config, results)

    def knn_approx(
        self,
        query: np.ndarray,
        k: int = 1,
        l_max: Optional[int] = None,
        results=None,
    ) -> QueryAnswer:
        """Approximate k-NN (Algorithm 11 alone; see the paper's §5): the
        :meth:`knn` pipeline stopped after phase 1.

        Visits at most ``l_max`` leaves (default: the configured value)
        and returns the best-so-far answers without the exact phases.
        ``results`` plays the same role as in :meth:`knn`.
        """
        self._check_open()
        config = self.config if l_max is None else self.config.with_options(l_max=l_max)
        query = as_series(query, self.series_length)[None]
        results = None if results is None else [results]
        return self._search(query, k, config, results, phase1_only=True)[0]

    def _search(self, queries, k, config, results, phase1_only=False) -> BatchAnswer:
        """The one pipeline for a ``(Q, n)`` block, exact or stopped after
        phase 1: :meth:`knn_batch` and :meth:`knn_approx` here, and every
        mode a shard answers (:func:`~repro.core.shard_worker.answer_shard`)."""
        self._check_open()
        return exact_knn_batch(
            as_series(queries, self.series_length, ndim=2),
            k,
            config if config is not None else self.config,
            self._table,
            self._lrd,
            self._sax,
            num_series=self.num_series,
            results=results,
            phase1_only=phase1_only,
        )

    def knn_progressive(
        self,
        query: np.ndarray,
        k: int = 1,
        config: Optional[HerculesConfig] = None,
    ):
        """Progressive k-NN: a generator of improving answers.

        Yields a refined :class:`QueryAnswer` after every leaf the
        best-first search visits and finishes with the exact answer —
        the interactive-analysis interaction model the paper's workloads
        represent.  Stop consuming at any time to trade accuracy for
        latency.
        """
        self._check_open()
        effective = config if config is not None else self.config
        return progressive_knn(
            as_series(query, self.series_length),
            k,
            effective,
            self._table,
            self._lrd,
            self._sax,
            num_series=self.num_series,
        )

    def get_series(self, position: int) -> np.ndarray:
        """Fetch the raw series stored at an LRDFile position."""
        self._check_open()
        return self._lrd.read_series(position)

    # -- introspection -----------------------------------------------------------

    @property
    def num_leaves(self) -> int:
        return len(self._leaves)

    @property
    def series_length(self) -> int:
        return self._lrd.series_length

    @property
    def query_io(self) -> IOStats:
        """I/O counters of all queries served by this index object."""
        return self._lrd.stats

    @property
    def leaf_cache(self) -> Optional[LeafCache]:
        """The LRU leaf cache under LRDFile (None when disabled)."""
        return self._lrd.cache

    @property
    def leaves(self) -> list[Node]:
        """Leaves in inorder (= LRDFile order)."""
        return list(self._leaves)

    @property
    def signatures(self) -> SignatureArray:
        """The in-RAM iSAX array every LB_SAX pass reads."""
        return self._sax

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release file handles (and the temp directory if we created it)."""
        if self._closed:
            return
        self._closed = True
        self._lrd.close()
        if self._owns_directory:
            shutil.rmtree(self.directory, ignore_errors=True)

    def _check_open(self) -> None:
        if self._closed:
            raise IndexStateError("index is closed")

    def __enter__(self) -> "HerculesIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"HerculesIndex({self.num_series} series, {self.num_leaves} "
            f"leaves, dir={self.directory})"
        )


def _make_cache(cache_bytes: int) -> Optional[LeafCache]:
    """A LeafCache for the given byte budget; None (disabled) for 0."""
    if cache_bytes < 0:
        raise ConfigError(f"cache_bytes must be >= 0, got {cache_bytes}")
    return LeafCache(cache_bytes) if cache_bytes else None


def _load_sax(
    directory: Path,
    sax_space: SaxSpace,
    config: HerculesConfig,
    num_series: int,
) -> SignatureArray:
    """Pre-load LSDFile into memory (kept there during query answering).

    The words are the SAX tier (``>>``-reduced under a ``prefilter_bits``
    ablation); it keeps them transposed, and the row-major array read
    here is dropped.  Phase 3
    indexes the array by LRDFile position, so a row count that disagrees
    with the tree is rejected at every verify level — a short file would
    otherwise drop a leaf's last series from SCList without an error.
    """
    with SymbolFile(
        directory / LSD_FILENAME, sax_space.segments, read_only=True
    ) as lsd:
        words = lsd.read_all()
    if words.shape[0] != num_series:
        raise StorageError(
            f"{directory / LSD_FILENAME} holds {words.shape[0]} words but "
            f"the index records {num_series} series: mixed generations"
        )
    bits = sax_space.bits_per_symbol
    if config.prefilter:
        bits = min(config.prefilter_bits, bits)
    return SignatureArray.from_full_symbols(words, sax_space, bits)
