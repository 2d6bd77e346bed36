"""Entries stored in R-tree nodes.

A leaf entry points at a spatial object (here: a subscription or any payload)
tagged with the smallest rectangle containing it; a branch entry points at a
child node tagged with the child's MBR (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.spatial.rectangle import Rect


@dataclass
class Entry:
    """A single entry of an R-tree node.

    ``rect`` is the entry's bounding rectangle.  Exactly one of ``payload``
    (for leaf entries) and ``child`` (for branch entries) is set.
    """

    rect: Rect
    payload: Any = None
    child: Optional["RTreeNode"] = None  # noqa: F821 - forward reference

    @property
    def is_leaf_entry(self) -> bool:
        """True when the entry points at a spatial object rather than a node."""
        return self.child is None

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        kind = "leaf" if self.is_leaf_entry else "branch"
        return f"Entry({kind}, {self.rect!r}, payload={self.payload!r})"
