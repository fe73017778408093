"""HTree: the on-disk format of the Hercules index tree.

The index-writing phase materializes three files (Section 3.3.1): LRDFile
(raw series in leaf-inorder), LSDFile (their iSAX words), and HTree — the
tree itself.  This module implements HTree as a versioned binary format:

* header — magic, format version, and a JSON settings blob (configuration
  plus dataset metadata), so readers can validate compatibility before
  touching node records;
* node records — the tree in preorder, each node packed with
  :mod:`struct`.  Internal nodes always have exactly two children, so
  structure is implied by the ``is_leaf`` flag and no child pointers are
  stored.

Only structural state is serialized; build-time state (SBuffer slots,
spill extents, write-phase events) is reconstructed empty because a
persisted tree is immutable.

Reading is one record walk, :func:`read_tree_records`, into preorder
columns (:class:`TreeRecords`).  :func:`load_tree` builds its nodes from
those columns; an index open builds its flat synopsis table from them
and no node at all.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.node import Node, SplitPolicy
from repro.errors import StorageError
from repro.storage.files import BinaryFile, PathLike
from repro.storage.iostats import IOStats
from repro.summarization.eapca import Segmentation
from repro.types import DISTANCE_DTYPE

MAGIC = b"HERCTREE"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sII")  # magic, version, settings length
_NODE_FIXED = struct.Struct("<BHQ")  # flags, num_segments, size
_LEAF_TAIL = struct.Struct("<q")  # file_position
_INTERNAL_TAIL = struct.Struct("<HBBdII")
# split_segment, vertical, use_std, threshold, route_start, route_end
_POLICY_DTYPE = np.dtype(
    [
        ("split_segment", "<u2"),
        ("vertical", "u1"),
        ("use_std", "u1"),
        ("threshold", "<f8"),
        ("route_start", "<u4"),
        ("route_end", "<u4"),
    ]
)

_FLAG_LEAF = 0x01


def serialize_tree(root: Node, settings: dict) -> bytes:
    """Encode ``root`` and ``settings`` as one HTree blob."""
    payload = json.dumps(settings, sort_keys=True).encode("utf-8")
    chunks: list[bytes] = [_HEADER.pack(MAGIC, FORMAT_VERSION, len(payload)), payload]
    for node in root.iter_nodes_preorder():
        chunks.append(_pack_node(node))
    return b"".join(chunks)


def write_tree_file(
    path: PathLike,
    root: Node,
    settings: dict,
    stats: Optional[IOStats] = None,
) -> None:
    """Write an HTree file in place, replacing any previous contents.

    Not crash-safe on its own — a crash mid-write leaves a truncated
    file at ``path``.  Use :func:`save_tree` (atomic) unless the caller
    stages and publishes the file itself.
    """
    blob = serialize_tree(root, settings)
    # BinaryFile appends to existing files, so clear the target first.
    from pathlib import Path as _Path

    _Path(path).unlink(missing_ok=True)
    with BinaryFile(path, stats=stats) as handle:
        handle.append(blob)
        handle.sync()


def save_tree(
    path: PathLike,
    root: Node,
    settings: dict,
    stats: Optional[IOStats] = None,
) -> None:
    """Serialize ``root`` and ``settings`` into an HTree file, atomically.

    The blob is staged under a temporary name, fsynced, and published
    with an atomic rename — a crash at any point leaves either the old
    tree or the new one at ``path``, never a truncated mix.
    """
    from repro.storage import manifest as _manifest

    staged = _manifest.staging_path(path)
    write_tree_file(staged, root, settings, stats=stats)
    _manifest.publish(staged, path)


@dataclass(frozen=True)
class TreeRecords:
    """An HTree's settings and node records as preorder columns.

    Row ``i`` is the ``i``-th node record, the node :func:`load_tree`
    numbers ``i``; per-segment columns hold the nodes' segments node
    after node, ``counts[i]`` of them for row ``i``.
    """

    settings: dict
    #: Segments per node, ``(nodes,)``.
    counts: np.ndarray
    #: Every node's segment ends, ``(node segments,)``.
    ends: np.ndarray
    #: Every node's synopsis rows, ``(node segments, 4)``.
    synopses: np.ndarray
    is_leaf: np.ndarray
    #: The size field of each record (``uint64``, as stored).
    sizes: np.ndarray
    #: LRDFile position per row; -1 for an internal node.
    file_positions: np.ndarray
    #: Parent row per row; the root is its own parent.
    parents: np.ndarray
    #: The internal rows' split-policy fields, in preorder.
    policies: np.ndarray


def load_tree(
    path: PathLike, stats: Optional[IOStats] = None
) -> tuple[Node, dict]:
    """Read an HTree file back into a node tree and its settings dict."""
    records = read_tree_records(path, stats=stats)
    row_ends = np.cumsum(records.counts).tolist()
    ends = records.ends.tolist()
    policies = iter(records.policies.tolist())
    nodes: list[Node] = []
    for row, (leaf, size, position, parent) in enumerate(
        zip(
            records.is_leaf.tolist(),
            records.sizes.tolist(),
            records.file_positions.tolist(),
            records.parents.tolist(),
        )
    ):
        first = row_ends[row - 1] if row else 0
        segmentation = Segmentation(ends[first : row_ends[row]])
        node = Node(row, segmentation, parent=nodes[parent] if row else None)
        node.size = size
        node.synopsis = records.synopses[first : row_ends[row]]
        if row:
            above = nodes[parent]
            if above.left is None:
                above.left = node
            else:
                above.right = node
        if leaf:
            node.file_position = position
        else:
            segment, vertical, use_std, threshold, route_start, route_end = next(policies)
            node.is_leaf = False
            node.policy = SplitPolicy(
                split_segment=segment,
                vertical=bool(vertical),
                use_std=bool(use_std),
                threshold=threshold,
                route_start=route_start,
                route_end=route_end,
                child_segmentation=(
                    segmentation.split_vertically(segment) if vertical else segmentation
                ),
            )
        nodes.append(node)
    return nodes[0], records.settings


def read_tree_records(
    path: PathLike, stats: Optional[IOStats] = None
) -> TreeRecords:
    """Read an HTree file as :class:`TreeRecords`: the one parser, behind
    both :func:`load_tree` and a query process's open, which builds its
    flat table from the columns and never a :class:`Node`."""
    with BinaryFile(path, stats=stats, read_only=True) as handle:
        blob = handle.read(0, handle.size)
    if len(blob) < _HEADER.size:
        raise StorageError(f"{path}: truncated HTree header")
    magic, version, settings_len = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise StorageError(f"{path}: not an HTree file (bad magic {magic!r})")
    if version != FORMAT_VERSION:
        raise StorageError(
            f"{path}: HTree version {version} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    offset = _HEADER.size
    try:
        settings = json.loads(blob[offset : offset + settings_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"{path}: corrupt settings blob") from exc
    offset += settings_len

    try:
        records, offset = _walk_records(blob, offset, settings)
    except StorageError:
        raise
    except (struct.error, ValueError, IndexError, OverflowError) as exc:
        # Mutated node records surface as struct underflows or impossible
        # segmentations — all corruption.
        raise StorageError(f"{path}: corrupt HTree node records: {exc}") from exc
    if offset != len(blob):
        raise StorageError(
            f"{path}: {len(blob) - offset} trailing bytes after the tree"
        )
    return records


def _pack_node(node: Node) -> bytes:
    flags = _FLAG_LEAF if node.is_leaf else 0
    m = node.segmentation.num_segments
    parts = [
        _NODE_FIXED.pack(flags, m, node.size),
        np.asarray(node.segmentation.ends, dtype="<u4").tobytes(),
        np.ascontiguousarray(node.synopsis, dtype="<f8").tobytes(),
    ]
    if node.is_leaf:
        parts.append(_LEAF_TAIL.pack(node.file_position))
    else:
        policy = node.policy
        if policy is None:
            raise StorageError(
                f"internal node {node.node_id} has no split policy"
            )
        parts.append(
            _INTERNAL_TAIL.pack(
                policy.split_segment,
                int(policy.vertical),
                int(policy.use_std),
                policy.threshold,
                policy.route_start,
                policy.route_end,
            )
        )
    return b"".join(parts)


def _walk_records(blob: bytes, offset: int, settings: dict) -> tuple[TreeRecords, int]:
    """The node records from ``offset`` on as columns, and the offset
    after the last.  Internal nodes have exactly two children, so a
    stack of the rows still owed a child (each internal row pushed
    twice) gives every record its parent, and the walk ends when it
    empties."""
    counts: list[int] = []
    flags: list[int] = []
    sizes: list[int] = []
    positions: list[int] = []
    parents: list[int] = []
    ends: list[bytes] = []
    synopses: list[bytes] = []
    policies: list[tuple] = []
    owed: list[int] = []
    while True:
        try:
            flag, m, size = _NODE_FIXED.unpack_from(blob, offset)
        except struct.error as exc:
            raise StorageError("truncated HTree node record") from exc
        offset += _NODE_FIXED.size
        if len(blob) < offset + 4 * m + 8 * 4 * m:
            raise StorageError("truncated HTree node record")
        row = len(counts)
        parents.append(owed.pop() if row else 0)
        counts.append(m)
        flags.append(flag & _FLAG_LEAF)
        sizes.append(size)
        ends.append(blob[offset : offset + 4 * m])
        offset += 4 * m
        synopses.append(blob[offset : offset + 8 * 4 * m])
        offset += 8 * 4 * m
        if flag & _FLAG_LEAF:
            (position,) = _LEAF_TAIL.unpack_from(blob, offset)
            offset += _LEAF_TAIL.size
            positions.append(position)
        else:
            policies.append(_INTERNAL_TAIL.unpack_from(blob, offset))
            offset += _INTERNAL_TAIL.size
            positions.append(-1)
            owed += (row, row)
        if not owed:
            break

    records = TreeRecords(
        settings=settings,
        counts=np.array(counts, dtype=np.int64),
        ends=np.frombuffer(b"".join(ends), dtype="<u4").astype(np.int64),
        synopses=np.frombuffer(b"".join(synopses), dtype="<f8")
        .astype(DISTANCE_DTYPE)
        .reshape(-1, 4),
        is_leaf=np.array(flags, dtype=bool),
        sizes=np.array(sizes, dtype=np.uint64),
        file_positions=np.array(positions, dtype=np.int64),
        parents=np.array(parents, dtype=np.int64),
        policies=np.array(policies, dtype=_POLICY_DTYPE),
    )
    _check_segmentations(records)
    return records, offset


def _check_segmentations(records: TreeRecords) -> None:
    """Every node's ends must rise from above 0, and a V-split must halve
    a segment of two or more points.  The first node that breaks either
    rebuilds its :class:`Segmentation` (and split) to raise the error it
    raises."""
    counts, ends = records.counts, records.ends
    firsts = np.cumsum(counts) - counts
    starts = np.empty_like(ends)
    starts[1:] = ends[:-1]
    starts[firsts[counts > 0]] = 0
    bad = counts == 0
    bad[np.repeat(np.arange(len(counts)), counts)[ends <= starts]] = True
    internal = np.flatnonzero(~records.is_leaf)
    vertical = records.policies["vertical"] != 0
    segment = records.policies["split_segment"].astype(np.int64)
    # A segment index past the node's count is bad before its width is.
    narrow = segment >= counts[internal]
    inside = np.flatnonzero(~narrow)
    at = firsts[internal[inside]] + segment[inside]
    narrow[inside] = ends[at] - starts[at] < 2
    bad[internal[vertical & narrow]] = True
    if not bad.any():
        return
    row = int(np.argmax(bad))
    segmentation = Segmentation(ends[firsts[row] : firsts[row] + counts[row]].tolist())
    split = segment[np.searchsorted(internal, row)]
    if int(split) >= segmentation.num_segments:
        raise ValueError(
            f"V-split segment {split} of a node with "
            f"{segmentation.num_segments} segments"
        )
    segmentation.split_vertically(int(split))
