"""The connection oracle.

Section 3.2 (Joins): "we assume that, at connection time, a subscriber
invokes an oracle that accurately provides a subscriber already in the
structure".  The stabilization modules re-use the same oracle whenever an
orphaned peer must re-join (``Get_Contact_Node`` in Figures 11 and 14).

The oracle is deliberately simple: it tracks the set of live members and
hands out a contact.  Two policies are provided:

* ``"root"`` — return the peer currently believed to be the root (best odds
  of finding a good position, per the paper),
* ``"random"`` — return a uniformly random live member (exercises the
  upward-redirection path of the join protocol).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.rng import RandomStreams


class ContactOracle:
    """Provides joining/re-joining peers with a live member of the overlay."""

    def __init__(self, policy: str = "root", streams: Optional[RandomStreams] = None):
        if policy not in ("root", "random"):
            raise ValueError(f"unknown oracle policy {policy!r}")
        self.policy = policy
        self._rng = (streams if streams is not None else RandomStreams(0)).stream("oracle")
        self._members: Dict[str, bool] = {}
        self._root_hint: Optional[str] = None
        #: Self-proclaimed roots and the area of their advertised MBR.  Several
        #: roots can coexist transiently (after partitions, crashes of the
        #: root, or concurrent re-joins); the overlay converges to a single
        #: tree because every root defers to the best advertised root.
        self._advertised_roots: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Membership maintenance (driven by the simulation/builder)
    # ------------------------------------------------------------------ #

    def add_member(self, peer_id: str) -> None:
        """Record that ``peer_id`` is part of the overlay."""
        self._members[peer_id] = True

    def remove_member(self, peer_id: str) -> None:
        """Record that ``peer_id`` left or crashed."""
        self._members.pop(peer_id, None)
        self._advertised_roots.pop(peer_id, None)
        if self._root_hint == peer_id:
            self._root_hint = None

    def forget(self, peer_id: str) -> None:
        """Record a departure (crash or leave) of ``peer_id``.

        Drops the membership, any advertisement and a matching root hint;
        when nobody else is left to contact, the hint goes too.  The
        emptiness test is a ``contact`` probe on purpose: under the
        ``"random"`` policy it draws from the ``oracle`` stream, and every
        departure has always paid that draw.
        """
        self.remove_member(peer_id)
        if self.contact(exclude=peer_id) is None:
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

        ``exclude`` prevents a re-joining peer from being given itself.
        """
        candidates = [pid for pid in sorted(self._members) if pid != exclude]
        if not candidates:
            return None
        if self.policy == "root":
            best = self.best_root()
            if best in candidates:
                return best
            if self._root_hint in candidates:
                return self._root_hint
            return candidates[0]
        return self._rng.choice(candidates)

    def __len__(self) -> int:
        return len(self._members)
