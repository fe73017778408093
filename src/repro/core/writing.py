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
   in the same order), the row-norm column ``norms.bin`` (each series'
   float32 ``|x|²``, same order, read by the refinement kernel's screen)
   and HTree.

One thread does both, in one in-order pass: each leaf is post-processed
and then appended to LRDFile/LSDFile before the next one is read, so at
most one leaf's data is staged in memory.  The paper splits step 1 across
WriteIndexWorkers (Algorithms 6-7); on this runtime that pool wrote
slower than the single pass (EXPERIMENTS.md, Figure 12a), so it is not
reproduced.  Algorithm 8 is applied per leaf in one vectorized pass
(batch mean/std over the split segment's range, then one min/max merge),
which computes exactly the same synopsis as the per-series loop.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro import obs
from repro.core.construction import BuildContext, leaf_data
from repro.core.node import Node, segment_correspondence
from repro.distance.euclidean import _row_norms
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
NORMS_FILENAME = "norms.bin"
HTREE_FILENAME = "htree.bin"


@dataclass
class WriteResult:
    """Artifacts of a completed index-writing phase."""

    directory: Path
    num_series: int
    num_leaves: int
    series_length: int


#: Artifact publication order; the manifest commits the generation last.
ARTIFACT_NAMES = (LRD_FILENAME, LSD_FILENAME, NORMS_FILENAME, HTREE_FILENAME)

#: The format version each artifact is written with and checked against.
ARTIFACT_VERSIONS = {
    LRD_FILENAME: manifest_mod.LRD_FORMAT_VERSION,
    LSD_FILENAME: manifest_mod.LSD_FORMAT_VERSION,
    NORMS_FILENAME: manifest_mod.NORMS_FORMAT_VERSION,
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
    logger.info("writing index: %d leaves into %s", len(leaves), directory)

    manifest_mod.clear_staging(directory, list(ARTIFACT_NAMES))
    lrd_staged = manifest_mod.staging_path(directory / LRD_FILENAME)
    lsd_staged = manifest_mod.staging_path(directory / LSD_FILENAME)
    norms_staged = manifest_mod.staging_path(directory / NORMS_FILENAME)
    htree_staged = manifest_mod.staging_path(directory / HTREE_FILENAME)

    lrd = SeriesFile(lrd_staged, ctx.hbuffer.series_length, stats=stats)
    lsd = SymbolFile(lsd_staged, sax_space.segments, stats=stats)
    # One float32 |x|² per record: a series file of length-1 records.
    norms = SeriesFile(norms_staged, 1, stats=stats)
    try:
        with obs.io_span("build.write", stats, num_leaves=len(leaves)):
            for leaf in leaves:
                data, words = process_leaf(ctx, leaf, sax_space)
                if data.shape[0]:
                    leaf.file_position = lrd.append_batch(data)
                    lsd.append_batch(words)
                    norms.append_batch(_row_norms(data)[:, None])
                else:
                    leaf.file_position = lrd.num_series
            for artifact in (lrd, lsd, norms):
                artifact.sync()
    finally:
        for artifact in (lrd, lsd, norms):
            artifact.close()

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


def process_leaf(
    ctx: BuildContext, leaf: Node, sax_space: SaxSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Push a leaf's statistics to its ancestors; return its series and
    their iSAX words."""
    data = leaf_data(ctx, leaf)
    if data.shape[0] != leaf.size:
        raise IndexStateError(
            f"leaf {leaf.node_id} holds {data.shape[0]} series but recorded "
            f"size {leaf.size}"
        )
    if data.shape[0]:
        words = sax_space.symbolize(paa(data, sax_space.segments))
    else:
        words = np.empty((0, sax_space.segments), dtype=np.uint8)
    _vsplit_synopsis(leaf, data)
    _hsplit_synopsis(leaf)
    return data, words


def _vsplit_synopsis(leaf: Node, data: np.ndarray) -> None:
    """Algorithm 8, vectorized per leaf.

    For every ancestor whose split was vertical, the statistics of the
    split segment (in the *ancestor's* segmentation) cannot be derived
    from its children's half-segments; they are recomputed here over the
    leaf's raw series and merged into the ancestor.
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

    Each leaf's walk pushes its own box all the way up, so once every
    leaf has been processed the ancestors are exact (min/max merging is
    monotone, so the leaf order does not matter).
    """
    child = leaf
    parent = leaf.parent
    while parent is not None:
        child_rows, parent_rows = segment_correspondence(parent)
        parent.merge_synopsis_rows(parent_rows, child.synopsis, child_rows)
        child = parent
        parent = parent.parent
