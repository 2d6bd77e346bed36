"""The connection oracle.

Section 3.2 (Joins): "we assume that, at connection time, a subscriber
invokes an oracle that accurately provides a subscriber already in the
structure".  The stabilization modules re-use the same oracle whenever an
orphaned peer must re-join (``Get_Contact_Node`` in Figures 11 and 14).

The oracle is deliberately simple: it tracks the set of live members, the
self-proclaimed roots and a root hint, and hands out the peer currently
believed to be the root (best odds of finding a good position, per the
paper).  Answering costs no pass over the membership: the smallest member
id, the last resort, comes from a lazily cleaned heap.

The multi-shard simulator keeps one replica per shard and replicates their
changes (:class:`repro.sim.sharded.worker.ShardOracle`), so every shard
answers as this one oracle would.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

#: The pickled fields; the heap is rebuilt from ``_members`` on restore.
_STATE = ("_members", "_root_hint", "_advertised_roots")


class ContactOracle:
    """Provides joining/re-joining peers with a live member of the overlay."""

    def __init__(self) -> None:
        self._members: Dict[str, bool] = {}
        #: Every member id, plus ids removed since they were pushed; stale
        #: entries are dropped when they reach the top (see ``_smallest``).
        self._heap: List[str] = []
        self._root_hint: Optional[str] = None
        #: Self-proclaimed roots and the area of their advertised MBR.  Several
        #: roots can coexist transiently (after partitions, crashes of the
        #: root, or concurrent re-joins); the overlay converges to a single
        #: tree because every root defers to the best advertised root.
        self._advertised_roots: Dict[str, float] = {}

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in _STATE}

    def __setstate__(self, state: dict) -> None:
        # Only the ``_STATE`` fields are state; the heap is derived.
        for name in _STATE:
            setattr(self, name, state[name])
        self._heap = sorted(self._members)

    # ------------------------------------------------------------------ #
    # Membership maintenance (driven by the simulation/builder)
    # ------------------------------------------------------------------ #

    def add_member(self, peer_id: str) -> None:
        """Record that ``peer_id`` is part of the overlay."""
        if peer_id not in self._members:
            self._members[peer_id] = True
            heapq.heappush(self._heap, peer_id)

    def remove_member(self, peer_id: str) -> None:
        """Record that ``peer_id`` left or crashed."""
        self._discard(peer_id)
        self._advertised_roots.pop(peer_id, None)
        if self._root_hint == peer_id:
            self._root_hint = None

    def _discard(self, peer_id: str) -> None:
        """Drop the membership alone; rebuild the heap once mostly stale."""
        self._members.pop(peer_id, None)
        if len(self._heap) > 2 * len(self._members) + 64:
            self._heap = sorted(self._members)

    def forget(self, peer_id: str) -> None:
        """Record a departure (crash or leave) of ``peer_id``.

        Drops the membership, any advertisement and a matching root hint;
        when nobody else is left to contact, the hint goes too.
        """
        self.remove_member(peer_id)
        if not self._members:
            self.set_root_hint(None)

    def set_root_hint(self, peer_id: Optional[str]) -> None:
        """Update the oracle's belief about the current root."""
        self._root_hint = peer_id

    # ------------------------------------------------------------------ #
    # Root arbitration
    # ------------------------------------------------------------------ #

    def advertise_root(self, peer_id: str, area: float) -> None:
        """A peer declares itself the root of (a fragment of) the DR-tree.

        The paper assumes the oracle "accurately provides a subscriber
        already in the structure"; this registry is the mechanism that makes
        the oracle accurate when several fragments exist — every fragment
        root advertises itself, and all but the best one re-join under it.
        """
        self._advertised_roots[peer_id] = area

    def withdraw_root(self, peer_id: str) -> None:
        """A peer stops being (or claiming to be) a root."""
        self._advertised_roots.pop(peer_id, None)

    def best_root(self) -> Optional[str]:
        """The advertised root with the largest MBR (ties: smallest id)."""
        if not self._advertised_roots:
            return self._root_hint
        return min(
            self._advertised_roots,
            key=lambda pid: (-self._advertised_roots[pid], pid),
        )

    def members(self) -> List[str]:
        """Sorted list of known members."""
        return sorted(self._members)

    # ------------------------------------------------------------------ #
    # Contact selection
    # ------------------------------------------------------------------ #

    def contact(self, exclude: Optional[str] = None) -> Optional[str]:
        """A live member to contact, or ``None`` when the overlay is empty.

        The best advertised root, else the root hint, else the smallest
        member id — each only if it is a live member other than
        ``exclude``, which keeps a re-joining peer from being given itself.
        """
        for candidate in (self.best_root(), self._root_hint):
            if (candidate is not None and candidate != exclude
                    and candidate in self._members):
                return candidate
        return self._smallest(exclude)

    def _smallest(self, exclude: Optional[str]) -> Optional[str]:
        """The smallest member id other than ``exclude``."""
        heap, members = self._heap, self._members
        while heap and heap[0] not in members:
            heapq.heappop(heap)
        if not heap or heap[0] != exclude:
            return heap[0] if heap else None
        top = heapq.heappop(heap)
        # Drop stale entries and duplicates of ``top`` (an id removed and
        # re-added is pushed twice) until the runner-up surfaces.
        while heap and (heap[0] == top or heap[0] not in members):
            heapq.heappop(heap)
        runner_up = heap[0] if heap else None
        heapq.heappush(heap, top)
        return runner_up

    def __len__(self) -> int:
        return len(self._members)
