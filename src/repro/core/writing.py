"""Index writing (Section 3.3.3, Algorithms 6-9, Figure 4).

After index building, leaves hold their raw series (HBuffer slots plus
spill extents) and exact synopses, but internal nodes carry only the
statistics they had when they were split — updating ancestors on every
insert would serialize workers on root-path locks (the DSTree*P ablation
shows exactly that cost).  The writing phase therefore:

1. post-processes every leaf (``ProcessLeaf``): computes the iSAX words of
   its series and pushes the leaf's statistics up the tree —
   ``VSplitSynopsis`` (Algorithm 8) recomputes vertically-split segments
   from raw data, ``HSplitSynopsis`` (Algorithm 9) merges every other
   segment child-into-parent; and
2. materializes LRDFile (raw series in leaf-inorder), LSDFile (iSAX words
   in the same order), and HTree.

With ``parallel_writing`` a pool of WriteIndexWorkers processes leaves
claimed through a FetchAdd counter while the coordinator streams finished
leaves to disk (``WriteLeafData``); the per-leaf processed/written
handshake of Algorithm 7 bounds how many post-processed leaves wait in
memory.  Algorithm 8 is applied per leaf in one vectorized pass (batch
mean/std over the split segment's range, then a single locked min/max
merge), which computes exactly the same synopsis as the per-series loop.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro import obs
from repro.core.atomic import FetchAdd
from repro.core.construction import BuildContext, leaf_data
from repro.core.node import Node, segment_correspondence
from repro.errors import IndexStateError
from repro.storage import htree
from repro.storage import manifest as manifest_mod
from repro.storage.files import SeriesFile, SymbolFile
from repro.storage.iostats import IOStats
from repro.summarization.paa import paa
from repro.summarization.sax import SaxSpace

logger = logging.getLogger(__name__)

LRD_FILENAME = "lrd.bin"
LSD_FILENAME = "lsd.bin"
HTREE_FILENAME = "htree.bin"


@dataclass
class WriteResult:
    """Artifacts of a completed index-writing phase."""

    directory: Path
    num_series: int
    num_leaves: int
    series_length: int


#: Artifact publication order; the manifest commits the generation last.
ARTIFACT_NAMES = (LRD_FILENAME, LSD_FILENAME, HTREE_FILENAME)

#: The format version each artifact is written with and checked against.
ARTIFACT_VERSIONS = {
    LRD_FILENAME: manifest_mod.LRD_FORMAT_VERSION,
    LSD_FILENAME: manifest_mod.LSD_FORMAT_VERSION,
    HTREE_FILENAME: htree.FORMAT_VERSION,
}


def write_index(
    ctx: BuildContext,
    directory: Path,
    sax_space: SaxSpace,
    settings: dict,
    stats: Optional[IOStats] = None,
) -> WriteResult:
    """Materialize the index built in ``ctx`` into ``directory``.

    Crash-safe commit protocol: every artifact is streamed to a staging
    name (``<name>.tmp``), fsynced, and fingerprinted (size + CRC32);
    the staged files are then published with atomic renames and the
    generation is committed by atomically publishing ``MANIFEST.json``.
    A crash before the manifest lands leaves either the previous
    generation intact or a mix that open-time verification rejects —
    never a silently torn index.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    leaves = list(ctx.root.iter_leaves_inorder())
    config = ctx.config
    logger.info(
        "writing index: %d leaves into %s (%s)",
        len(leaves),
        directory,
        "parallel" if config.parallel_writing and config.num_write_threads > 1
        else "sequential",
    )

    manifest_mod.clear_staging(directory, list(ARTIFACT_NAMES))
    lrd_staged = manifest_mod.staging_path(directory / LRD_FILENAME)
    lsd_staged = manifest_mod.staging_path(directory / LSD_FILENAME)
    htree_staged = manifest_mod.staging_path(directory / HTREE_FILENAME)

    lrd = SeriesFile(lrd_staged, ctx.hbuffer.series_length, stats=stats)
    lsd = SymbolFile(lsd_staged, sax_space.segments, stats=stats)
    try:
        with obs.io_span("build.write", stats, num_leaves=len(leaves)):
            if config.parallel_writing and config.num_write_threads > 1:
                _write_parallel(ctx, leaves, sax_space, lrd, lsd)
            else:
                _write_sequential(ctx, leaves, sax_space, lrd, lsd)
            lrd.sync()
            lsd.sync()
    finally:
        lrd.close()
        lsd.close()

    num_series = sum(leaf.size for leaf in leaves)
    htree.write_tree_file(htree_staged, ctx.root, settings, stats=stats)

    manifest = manifest_mod.Manifest(
        num_series=num_series,
        series_length=ctx.hbuffer.series_length,
        num_leaves=len(leaves),
        config_digest=manifest_mod.config_digest(
            settings.get("config", settings)
        ),
        artifacts={
            name: manifest_mod.record_artifact(
                manifest_mod.staging_path(directory / name),
                ARTIFACT_VERSIONS[name],
            )
            for name in ARTIFACT_NAMES
        },
    )
    for name in ARTIFACT_NAMES:
        manifest_mod.publish(
            manifest_mod.staging_path(directory / name), directory / name
        )
    manifest_mod.save_manifest(directory, manifest)
    # Older builds persisted the SAX tier a second time; the manifest
    # just committed no longer lists that file, so drop a stale one.
    (directory / "signatures.bin").unlink(missing_ok=True)
    return WriteResult(
        directory=directory,
        num_series=num_series,
        num_leaves=len(leaves),
        series_length=ctx.hbuffer.series_length,
    )


# ---------------------------------------------------------------------------
# Leaf post-processing (ProcessLeaf + Algorithms 8-9)
# ---------------------------------------------------------------------------


def process_leaf(ctx: BuildContext, leaf: Node, sax_space: SaxSpace) -> None:
    """Compute a leaf's iSAX words and push its statistics to ancestors."""
    data = leaf_data(ctx, leaf)
    if data.shape[0] != leaf.size:
        raise IndexStateError(
            f"leaf {leaf.node_id} holds {data.shape[0]} series but recorded "
            f"size {leaf.size}"
        )
    leaf.write_cache = data
    if data.shape[0]:
        leaf.sax_words = sax_space.symbolize(paa(data, sax_space.segments))
    else:
        leaf.sax_words = np.empty((0, sax_space.segments), dtype=np.uint8)
    _vsplit_synopsis(leaf, data)
    _hsplit_synopsis(leaf)


def _vsplit_synopsis(leaf: Node, data: np.ndarray) -> None:
    """Algorithm 8, vectorized per leaf.

    For every ancestor whose split was vertical, the statistics of the
    split segment (in the *ancestor's* segmentation) cannot be derived
    from its children's half-segments; they are recomputed here over the
    leaf's raw series and merged into the ancestor under its lock.
    """
    if data.shape[0] == 0:
        return
    node = leaf.parent
    arr = data.astype(np.float64, copy=False)
    while node is not None:
        policy = node.policy
        if policy is not None and policy.vertical:
            start, end = node.segmentation.segment_range(policy.split_segment)
            segment = arr[:, start:end]
            means = segment.mean(axis=1)
            stds = segment.std(axis=1)
            with node.lock:
                node.merge_segment_interval(
                    policy.split_segment,
                    float(means.min()),
                    float(means.max()),
                    float(stds.min()),
                    float(stds.max()),
                )
        node = node.parent


def _hsplit_synopsis(leaf: Node) -> None:
    """Algorithm 9: merge each node's synopsis into its parent, leaf→root.

    Each leaf's walk pushes its own box all the way up, so ancestors end
    up exact regardless of how concurrent walks interleave (min/max
    merging is monotone and every walk re-propagates what it merged).
    """
    child = leaf
    parent = leaf.parent
    while parent is not None:
        child_rows, parent_rows = segment_correspondence(parent)
        with parent.lock:
            parent.merge_synopsis_rows(parent_rows, child.synopsis, child_rows)
        child = parent
        parent = parent.parent


# ---------------------------------------------------------------------------
# Algorithm 6/7: coordinator + WriteIndexWorkers
# ---------------------------------------------------------------------------


def _write_sequential(
    ctx: BuildContext,
    leaves: list[Node],
    sax_space: SaxSpace,
    lrd: SeriesFile,
    lsd: SymbolFile,
) -> None:
    """NoWPara path: process and materialize leaves one by one."""
    for leaf in leaves:
        process_leaf(ctx, leaf, sax_space)
        _write_leaf(leaf, lrd, lsd)


def _write_parallel(
    ctx: BuildContext,
    leaves: list[Node],
    sax_space: SaxSpace,
    lrd: SeriesFile,
    lsd: SymbolFile,
) -> None:
    """Algorithm 6: workers post-process, the coordinator streams to disk."""
    counter = FetchAdd(0)
    abort = threading.Event()
    errors: list[BaseException] = []
    error_lock = threading.Lock()

    def worker() -> None:
        # Algorithm 7: claim leaves through the shared counter; wait for
        # the coordinator to write each processed leaf before taking the
        # next one, bounding staged memory.
        try:
            while not abort.is_set():
                j = counter.fetch_add(1)
                if j >= len(leaves):
                    return
                leaf = leaves[j]
                process_leaf(ctx, leaf, sax_space)
                leaf.processed.set()
                while not leaf.written.wait(timeout=0.1):
                    if abort.is_set():
                        return
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            with error_lock:
                errors.append(exc)
            abort.set()

    # Write workers start on fresh threads; parent their spans to the
    # enclosing build.write span captured on this (coordinator) thread.
    parent = obs.current_span()

    def run_worker(index: int) -> None:
        with obs.span("build.write.worker", parent=parent, worker=index):
            worker()

    threads = [
        threading.Thread(
            target=run_worker,
            args=(i,),
            name=f"hercules-write-{i}",
            daemon=True,
        )
        for i in range(ctx.config.num_write_threads)
    ]
    for thread in threads:
        thread.start()

    # WriteLeafData: materialize leaves in inorder as they become ready.
    try:
        with obs.span("build.write.coordinator", num_leaves=len(leaves)):
            for leaf in leaves:
                while not leaf.processed.wait(timeout=0.1):
                    if abort.is_set():
                        break
                if abort.is_set():
                    break
                _write_leaf(leaf, lrd, lsd)
    except BaseException as exc:  # noqa: BLE001
        with error_lock:
            errors.append(exc)
        abort.set()
    finally:
        if not abort.is_set():
            abort.set()  # release workers idling in written.wait loops
        for leaf in leaves:
            leaf.written.set()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _write_leaf(leaf: Node, lrd: SeriesFile, lsd: SymbolFile) -> None:
    """Append one processed leaf's raw data and iSAX words to disk."""
    data = leaf.write_cache
    if data is None:
        raise IndexStateError(f"leaf {leaf.node_id} written before processing")
    if data.shape[0]:
        position = lrd.append_batch(data)
        lsd.append_batch(leaf.sax_words)
    else:
        position = lrd.num_series
    leaf.file_position = position
    leaf.write_cache = None
    leaf.written.set()
