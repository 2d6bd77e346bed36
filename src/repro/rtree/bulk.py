"""Sort-Tile-Recursive (STR) bulk loading (Leutenegger et al., 1997).

Building an R-tree by repeated insertion costs ``O(n log n)`` *node splits*
on top of the search work and produces a structure shaped by insertion order.
STR instead packs a static data set bottom-up in ``O(n log n)`` total: sort
the rectangles by the first coordinate of their centres, cut the run into
vertical slabs, sort each slab by the next coordinate, and so on until the
last dimension, where the run is cut into tiles of at most ``M`` entries.
The tiles become the leaves; the same tiling applied to the leaf MBRs builds
the next level, up to a single root.

Two consumers share this module:

* :func:`bulk_load` packs a sequential :class:`~repro.rtree.rtree.RTree`
  in one pass,
* :func:`str_groups` exposes the raw tiling, which the overlay bootstrap
  (:mod:`repro.overlay.bootstrap`) uses to lay out a legal DR-tree directly
  for large scenarios instead of replaying thousands of join protocols.

Every produced group holds at most ``capacity`` entries and — because groups
are chunked evenly and ``M >= 2 m`` — at least ``capacity // 2`` entries
whenever more than one group is produced, so the classical ``m``/``M``
bounds hold by construction.

Example::

    >>> from repro.spatial.rectangle import Rect
    >>> rects = [Rect((i / 10, 0.0), (i / 10 + 0.05, 0.1)) for i in range(8)]
    >>> sorted(len(group) for group in str_groups(rects, capacity=4))
    [4, 4]

Complexity: each level sorts the surviving rectangles once per dimension,
giving ``O(n log n)`` total work and a tree of height ``ceil(log_M n)`` —
versus one root-to-leaf search *and* possible split cascade per insert for
repeated insertion.  See ``docs/architecture.md`` ("Construction paths") for
how the overlay layer reuses the tiling.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence, Tuple

from repro.rtree.entry import Entry
from repro.rtree.node import RTreeNode
from repro.rtree.rtree import RTree
from repro.spatial.rectangle import Rect


def _balanced_chunks(indices: List[int], capacity: int) -> List[List[int]]:
    """Split ``indices`` into even chunks of at most ``capacity`` elements.

    Evenness is what preserves the R-tree minimum-fill invariant: with
    ``count = ceil(n / capacity)`` chunks, every chunk holds at least
    ``floor(n / count) >= capacity / 2`` elements whenever ``count > 1``.
    """
    count = max(1, math.ceil(len(indices) / capacity))
    base, remainder = divmod(len(indices), count)
    chunks: List[List[int]] = []
    start = 0
    for chunk_index in range(count):
        size = base + (1 if chunk_index < remainder else 0)
        chunks.append(indices[start:start + size])
        start += size
    return chunks


def _tile(indices: List[int], centers: Sequence[Tuple[float, ...]],
          capacity: int, dim: int, dims: int) -> List[List[int]]:
    """Recursively tile ``indices`` along dimensions ``dim..dims-1``."""
    if len(indices) <= capacity:
        return [indices]
    indices = sorted(indices, key=lambda i: centers[i][dim])
    remaining = dims - dim
    if remaining <= 1:
        return _balanced_chunks(indices, capacity)
    pages = math.ceil(len(indices) / capacity)
    slabs = math.ceil(pages ** (1.0 / remaining))
    slab_capacity = math.ceil(len(indices) / slabs)
    groups: List[List[int]] = []
    for slab in _balanced_chunks(indices, slab_capacity):
        groups.extend(_tile(slab, centers, capacity, dim + 1, dims))
    return groups


def str_groups(rects: Sequence[Rect], capacity: int) -> List[List[int]]:
    """Partition ``rects`` into spatially clustered groups of ``<= capacity``.

    Returns index groups into ``rects``.  When more than one group is
    produced every group holds at least ``capacity // 2`` rectangles, so a
    node built per group satisfies the ``m <= capacity // 2`` minimum-fill
    bound of the paper's ``M >= 2 m`` configurations.
    """
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    if not rects:
        return []
    dims = rects[0].dimensions
    centers = [
        tuple((lo + hi) / 2.0 for lo, hi in zip(rect.lower, rect.upper))
        for rect in rects
    ]
    return _tile(list(range(len(rects))), centers, capacity, 0, dims)


def bulk_load(
    items: Sequence[Tuple[Rect, Any]],
    min_entries: int = 2,
    max_entries: int = 4,
    split_method: str = "quadratic",
) -> RTree:
    """Pack ``(rect, payload)`` pairs into a height-balanced R-tree.

    The returned tree satisfies :meth:`RTree.check_invariants` and behaves
    exactly like an incrementally built tree for subsequent inserts, deletes
    and searches — only its shape (and build cost) differs.
    """
    tree = RTree(min_entries=min_entries, max_entries=max_entries,
                 split_method=split_method)
    if not items:
        return tree

    nodes: List[RTreeNode] = []
    for group in str_groups([rect for rect, _ in items], max_entries):
        leaf = RTreeNode(is_leaf=True)
        for index in group:
            rect, payload = items[index]
            leaf.add_entry(Entry(rect=rect, payload=payload))
        nodes.append(leaf)

    level = 0
    while len(nodes) > 1:
        level += 1
        parents: List[RTreeNode] = []
        for group in str_groups([node.mbr() for node in nodes], max_entries):
            parent = RTreeNode(is_leaf=False, level=level)
            for index in group:
                child = nodes[index]
                parent.add_entry(Entry(rect=child.mbr(), child=child))
            parents.append(parent)
        nodes = parents

    tree.root = nodes[0]
    tree._size = len(items)
    tree.stats.inserts = len(items)
    return tree
