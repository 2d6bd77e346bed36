"""Per-level soft state of a DR-tree peer.

Section 3.2 ("Data Structures"): each process maintains, for every level
where it is active, a children set, the level's MBR, a parent pointer and an
``underloaded`` flag.  All of this state is *soft* — it can be corrupted by
transient faults and is repaired by the stabilization modules.  The only
non-corruptible datum is the peer's own filter, which lives on the peer
object itself.

A peer holds one :class:`LevelState` per level and one :class:`ChildInfo` per
child, so both are slotted records (no per-instance ``__dict__``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.spatial.rectangle import Rect


@dataclass(slots=True)
class ChildInfo:
    """What a parent knows about one of its children at a given level."""

    mbr: Rect
    #: Number of children the child itself has (used by compaction to decide
    #: whether two underloaded children can merge within the M bound).
    child_count: int = 0
    #: True when the child reported itself underloaded.
    underloaded: bool = False
    #: Stabilization round at which the child last refreshed itself; parents
    #: discard children that stay silent for too long.
    last_seen_round: int = 0


@dataclass(slots=True)
class LevelState:
    """The state of one node instance (one peer at one level).

    Level 0 instances are leaves: their MBR equals the peer's filter and the
    children mapping stays empty.  Instances at level ``l > 0`` have children
    at level ``l - 1``.
    """

    level: int
    mbr: Rect
    parent: Optional[str] = None
    children: Dict[str, ChildInfo] = field(default_factory=dict)
    underloaded: bool = False
    #: Set by a PARENT_ACK; cleared at the start of each stabilization round.
    #: An instance whose flag stays false re-joins through the oracle.
    parent_confirmed: bool = True
    #: Consecutive stabilization rounds without parent confirmation.
    missed_parent_acks: int = 0
    #: Believed number of hops from the DR-tree root to this instance,
    #: refreshed by PARENT_ACKs.  A distance that keeps growing past the
    #: plausible tree height reveals that the instance hangs off a detached
    #: cycle rather than the real root, and triggers a re-join.
    root_distance: int = 0
    #: ``(child MBRs, their union)`` of the last :meth:`computed_mbr` that had
    #: to fold.  Derived state: left out of ``__init__``, ``==``, ``repr`` and
    #: — via ``__getstate__`` — of pickles.
    _union_memo: Optional[Tuple[Tuple[Rect, ...], Rect]] = field(
        default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_union_memo"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._union_memo = None

    @property
    def is_leaf(self) -> bool:
        """True for level-0 instances."""
        return self.level == 0

    def child_ids(self) -> list[str]:
        """Sorted ids of the children known at this level."""
        return sorted(self.children)

    def child_mbrs(self) -> Dict[str, Rect]:
        """Mapping child id → cached MBR."""
        return {child: info.mbr for child, info in self.children.items()}

    def computed_mbr(self, own_filter_rect: Rect) -> Rect:
        """The MBR this instance *should* have (Figure 7, ``Compute_MBR``).

        Leaves return the peer's filter rectangle; internal instances return
        the union of the cached children MBRs (falling back to the filter when
        the children set is empty, which only happens transiently).

        The union is memoized on the *values* of the children's cached MBRs:
        every PARENT_QUERY a parent receives asks for it again, and between
        repairs the answer does not change.  The key is compared with ``==``,
        so no way of editing ``children`` — the protocol's, a test's or a
        memory corruptor's — can leave a stale union behind.
        """
        if self.is_leaf or not self.children:
            return own_filter_rect
        rects = tuple([info.mbr for info in self.children.values()])
        memo = self._union_memo
        if memo is None or memo[0] != rects:
            memo = self._union_memo = (rects, Rect.union_of(rects))
        return memo[1]

    def add_child(self, child_id: str, mbr: Rect, child_count: int = 0,
                  round_number: int = 0) -> None:
        """Insert or refresh a child entry."""
        existing = self.children.get(child_id)
        if existing is None:
            self.children[child_id] = ChildInfo(
                mbr=mbr, child_count=child_count, last_seen_round=round_number
            )
        else:
            existing.mbr = mbr
            existing.child_count = child_count
            existing.last_seen_round = round_number

    def remove_child(self, child_id: str) -> bool:
        """Drop a child entry; returns True when it existed."""
        return self.children.pop(child_id, None) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"LevelState(level={self.level}, parent={self.parent!r}, "
            f"children={sorted(self.children)}, underloaded={self.underloaded})"
        )


def serialize_children(children: Dict[str, ChildInfo]) -> Dict[str, dict]:
    """Turn a children mapping into plain data suitable for a message payload."""
    return {
        child_id: {
            "lower": info.mbr.lower,
            "upper": info.mbr.upper,
            "child_count": info.child_count,
            "underloaded": info.underloaded,
        }
        for child_id, info in children.items()
    }


def deserialize_children(payload: Dict[str, dict], round_number: int = 0
                         ) -> Dict[str, ChildInfo]:
    """Inverse of :func:`serialize_children`."""
    result: Dict[str, ChildInfo] = {}
    for child_id, data in payload.items():
        result[child_id] = ChildInfo(
            mbr=Rect(tuple(data["lower"]), tuple(data["upper"])),
            child_count=int(data.get("child_count", 0)),
            underloaded=bool(data.get("underloaded", False)),
            last_seen_round=round_number,
        )
    return result
