"""The Hercules index facade: build → write → query, plus persistence.

Typical usage::

    from repro import HerculesIndex, HerculesConfig

    index = HerculesIndex.build(data, HerculesConfig(leaf_capacity=100),
                                directory="./my_index")
    answer = index.knn(query, k=10)
    index.close()

    index = HerculesIndex.open("./my_index")   # later, from disk

``build`` runs the two construction stages of Section 3.3 (index building
and index writing), then opens what it wrote, so the returned object is
immediately queryable.  ``open`` reconstructs a queryable index from the
materialized files (HTree, LRDFile, LSDFile, and the row-norm column).
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
    ARTIFACT_VERSIONS,
    HTREE_FILENAME,
    LRD_FILENAME,
    LSD_FILENAME,
    NORMS_FILENAME,
    write_index,
)
from repro.distance.euclidean import _row_norms
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
from repro.types import SERIES_DTYPE, as_series

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
        table: LeafTable,
        config: HerculesConfig,
        directory: Path,
        lrd: SeriesFile,
        sax: SignatureArray,
        num_series: int,
        norms: np.ndarray,
    ) -> None:
        # Every query path reads its LB_EAPCA bounds from this one table;
        # building it checks the leaf extents at every verify level.
        self._table = table
        #: The node tree, loaded from htree.bin at the first read of
        #: :attr:`root` or :attr:`leaves`.
        self._root: Optional[Node] = None
        self.config = config
        self.directory = directory
        self._lrd = lrd
        self._sax = sax
        #: Each series' float32 |x|², by LRDFile position: the refinement
        #: kernel's screen reads these instead of recomputing them.
        self._norms = norms
        self.num_series = num_series
        #: Set by :meth:`build`; None for an opened index.
        self.build_report: Optional[BuildReport] = None
        self._owns_directory = False
        self._closed = False
        self.sax_space = sax.space

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
            splits=ctx.splits,
            flushes=ctx.flushes,
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
        # Queries are served by what an open of this directory builds.
        index = cls.open(directory, cache_bytes=cache_bytes)
        index.build_report = report
        index._owns_directory = owns_directory
        return index

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
          with the tree's).

        What the query pipeline indexes by row is checked at every
        level: the leaf extents tile LRDFile, LSDFile holds one word per
        series, and ``norms.bin`` one norm per series.

        Damage raises :class:`~repro.errors.ManifestError` or
        :class:`~repro.errors.ChecksumError` naming the broken artifact;
        a directory without ``MANIFEST.json`` is damage too.
        """
        directory = Path(directory)
        if verify not in manifest_mod.VERIFY_LEVELS:
            raise ValueError(
                f"verify must be one of {manifest_mod.VERIFY_LEVELS}, "
                f"got {verify!r}"
            )
        manifest = manifest_mod.load_manifest(directory)
        manifest_mod.verify_directory(
            directory,
            manifest,
            level=verify,
            expected_versions=ARTIFACT_VERSIONS,
        )
        htree_path = directory / HTREE_FILENAME
        if not htree_path.exists():
            raise StorageError(f"no HTree file at {htree_path}")
        records = htree.read_tree_records(htree_path)
        settings = records.settings
        try:
            config = HerculesConfig.from_settings(settings[_SETTINGS_KEY_CONFIG])
            num_series = settings["num_series"]
            series_length = settings["series_length"]
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            raise StorageError(f"{htree_path}: corrupt settings blob") from exc
        if manifest.num_series != num_series:
            raise ManifestError(
                f"manifest records {manifest.num_series} series but the "
                f"HTree settings record {num_series}: mixed generations"
            )
        if manifest.series_length != series_length:
            raise ManifestError(
                f"manifest records series of length {manifest.series_length} "
                f"but the HTree settings record {series_length}: mixed generations"
            )
        sax_space = SaxSpace(config.sax_segments, config.sax_alphabet)
        query_stats = IOStats()
        lrd = SeriesFile(
            directory / LRD_FILENAME,
            series_length,
            stats=query_stats,
            read_only=True,
            cache=_make_cache(cache_bytes),
        )
        try:
            if verify == "full" and lrd.num_series != num_series:
                # Each file can be well-formed on its own and the directory
                # still be torn or mixed-generation.  (Leaf extents and
                # LSDFile's row count are checked at every level, by
                # LeafTable and _load_sax.)
                raise StorageError(
                    f"lrd.bin holds {lrd.num_series} series but the index "
                    f"records {num_series}"
                )
            sax = _load_sax(directory, sax_space, num_series)
            norms = _load_norms(directory, manifest, series_length, num_series)
            table = LeafTable(records, num_series)
        except BaseException:
            lrd.close()
            raise
        return cls(
            table=table,
            config=config,
            directory=directory,
            lrd=lrd,
            sax=sax,
            num_series=num_series,
            norms=norms,
        )

    # -- querying --------------------------------------------------------------

    def knn(
        self,
        query: np.ndarray,
        k: int = 1,
        config: Optional[HerculesConfig] = None,
    ) -> QueryAnswer:
        """Exact k-NN search (Algorithm 10): :meth:`knn_batch` of one query.

        ``config`` overrides query-time settings (threads, thresholds,
        ablation switches) without rebuilding the index.
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
            norms=self._norms,
        )

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int = 1,
        config: Optional[HerculesConfig] = None,
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
        """
        return self._search(queries, k, config)

    def knn_approx(
        self,
        query: np.ndarray,
        k: int = 1,
        l_max: Optional[int] = None,
    ) -> QueryAnswer:
        """Approximate k-NN (Algorithm 11 alone; see the paper's §5): the
        :meth:`knn` pipeline stopped after phase 1.

        Visits at most ``l_max`` leaves (default: the configured value)
        and returns the best-so-far answers without the exact phases.
        """
        self._check_open()
        config = self.config if l_max is None else self.config.with_options(l_max=l_max)
        query = as_series(query, self.series_length)[None]
        return self._search(query, k, config, phase1_only=True)[0]

    def _search(self, queries, k, config, results=None, phase1_only=False) -> BatchAnswer:
        """The one pipeline for a ``(Q, n)`` block, exact or stopped after
        phase 1: :meth:`knn_batch` and :meth:`knn_approx` here, and every
        mode a shard answers (:func:`~repro.core.shard_worker.answer_shard`),
        which passes ``results``: one linked result set per query, so
        each prunes against its global BSF²."""
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
            norms=self._norms,
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
            norms=self._norms,
        )

    def get_series(self, position: int) -> np.ndarray:
        """Fetch the raw series stored at an LRDFile position."""
        self._check_open()
        return self._lrd.read_series(position)

    # -- introspection -----------------------------------------------------------

    @property
    def num_leaves(self) -> int:
        return self._table.num_leaves

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
    def root(self) -> Node:
        """The node tree.  No query reads it: an opened index loads it
        from htree.bin here, at the first read, and keeps it."""
        if self._root is None:
            self._root, _ = htree.load_tree(self.directory / HTREE_FILENAME)
        return self._root

    @property
    def leaves(self) -> list[Node]:
        """Leaves in inorder (= LRDFile order)."""
        return list(self.root.iter_leaves_inorder())

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


def _load_sax(directory: Path, sax_space: SaxSpace, num_series: int) -> SignatureArray:
    """Pre-load LSDFile into memory (kept there during query answering).

    The words are the SAX tier, at the space's full resolution; it keeps
    them transposed, and the row-major array read here is dropped.  The
    LB_SAX pass indexes the array by LRDFile position, so a row count
    that disagrees with the tree is rejected at every verify level — a
    short file would otherwise drop a leaf's last series from SCList
    without an error.
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
    return SignatureArray.from_full_symbols(words, sax_space, sax_space.bits_per_symbol)


#: Rows per read of the one pass that computes an older directory's norms.
_NORMS_PASS_ROWS = 4096


def _load_norms(
    directory: Path, manifest, series_length: int, num_series: int
) -> np.ndarray:
    """Each series' float32 ``|x|²`` in LRDFile order, kept in memory for
    the refinement kernel's screen.

    ``norms.bin`` is read whole with one plain file read, as
    ``MANIFEST.json`` is, outside the counted file layer: a shard's open
    still makes only its two counted reads (htree.bin, lsd.bin).  A
    directory from a release before the column, whose manifest does not
    list the file, gets it computed at open in one streamed pass over
    LRDFile with :func:`~repro.distance.euclidean._row_norms` — the
    values ``write_index`` would have stored.  The kernel takes the norms
    by LRDFile position, so a row count that disagrees with the tree is
    rejected at every verify level, as LSDFile's is.
    """
    path = directory / NORMS_FILENAME
    if NORMS_FILENAME in manifest.artifacts:
        norms = np.fromfile(path, dtype=SERIES_DTYPE)
        held = path.stat().st_size / SERIES_DTYPE.itemsize
    else:
        with SeriesFile(directory / LRD_FILENAME, series_length, read_only=True) as lrd:
            rows = lrd.num_series
            chunks = [
                _row_norms(lrd.read_range(lo, min(_NORMS_PASS_ROWS, rows - lo)))
                for lo in range(0, rows, _NORMS_PASS_ROWS)
            ]
        norms = np.concatenate([np.empty(0, dtype=SERIES_DTYPE), *chunks])
        held = norms.shape[0]
    if held != num_series:
        raise StorageError(
            f"{path} holds {held:g} norms but the index records {num_series} "
            "series: mixed generations"
        )
    return norms
