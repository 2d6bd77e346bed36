"""The DR-tree peer process.

A :class:`DRTreePeer` owns one subscription (its constant, non-corruptible
filter) and a set of *node instances*, one per level where the peer is active
in the DR-tree.  The peer implements the paper's protocols through the mixins
assembled here:

* :class:`~repro.overlay.join.JoinMixin` — join phase and splits (Figure 8),
* :class:`~repro.overlay.leave.LeaveMixin` — controlled departures (Figure 9),
* :class:`~repro.overlay.stabilization.StabilizationMixin` — the periodic
  CHECK_MBR / CHECK_PARENT / CHECK_CHILDREN / CHECK_COVER repairs
  (Figures 10-13),
* :class:`~repro.overlay.structure.StructureMixin` — CHECK_STRUCTURE and
  compaction (Figure 14),
* :class:`~repro.overlay.dissemination.DisseminationMixin` — pub/sub event
  dissemination (Sections 2.3 and 3).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.overlay import messages as msg
from repro.overlay.config import DRTreeConfig
from repro.overlay.dissemination import DisseminationMixin
from repro.overlay.join import JoinMixin
from repro.overlay.leave import LeaveMixin
from repro.overlay.oracle import ContactOracle
from repro.overlay.stabilization import StabilizationMixin
from repro.overlay.state import LevelState
from repro.overlay.structure import StructureMixin
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.sim.process import Process
from repro.spatial.filters import Event, Subscription
from repro.spatial.rectangle import Rect

#: Signature of the delivery listener installed by the pub/sub layer:
#: ``listener(peer_id, event, matched, hops)``.
DeliveryListener = Callable[[str, Event, bool, int], None]


class DRTreePeer(JoinMixin, LeaveMixin, StabilizationMixin, StructureMixin,
                 DisseminationMixin, Process):
    """A subscriber participating in the DR-tree overlay."""

    handlers = {
        msg.JOIN: "handle_join",
        msg.ADD_CHILD: "handle_add_child",
        msg.JOIN_ACK: "handle_join_ack",
        msg.SET_PARENT: "handle_set_parent",
        msg.PROMOTE: "handle_promote",
        msg.REPLACE_CHILD: "handle_replace_child",
        msg.LEAVE: "handle_leave",
        msg.REMOVE_CHILD: "handle_remove_child",
        msg.PARENT_QUERY: "handle_parent_query",
        msg.PARENT_ACK: "handle_parent_ack",
        msg.PARENT_NACK: "handle_parent_nack",
        msg.CHECK_STRUCTURE: "handle_check_structure",
        msg.DISSOLVE: "handle_dissolve",
        msg.ADOPT_CHILDREN: "handle_adopt_children",
        msg.INITIATE_NEW_CONNECTION: "handle_initiate_new_connection",
        msg.PUBLISH_UP: "handle_publish_up",
        msg.PUBLISH_DOWN: "handle_publish_down",
    }

    def __init__(
        self,
        process_id: str,
        network: Network,
        subscription: Subscription,
        config: Optional[DRTreeConfig] = None,
        oracle: Optional[ContactOracle] = None,
    ) -> None:
        super().__init__(process_id, network)
        #: The peer's constant, non-corruptible content-based filter.
        self.subscription = subscription
        self.filter_rect: Rect = subscription.rect
        self.config = config if config is not None else DRTreeConfig()
        # ``ContactOracle`` defines __len__, so avoid the falsy-object trap of
        # ``oracle or ContactOracle()`` — an empty shared oracle must be kept.
        self.oracle = oracle if oracle is not None else ContactOracle()
        #: level → node instance state (level 0 is the leaf instance).
        self.instances: Dict[int, LevelState] = {}
        self.joined = False
        self.round_number = 0
        #: event_id → matched flag for every event this peer has received
        #: since the network last settled (the in-flight de-dup table).
        self.seen_events: Dict[str, bool] = {}
        #: Installed by the pub/sub facade for delivery accounting.
        self.delivery_listener: Optional[DeliveryListener] = None

    # ------------------------------------------------------------------ #
    # Instance helpers
    # ------------------------------------------------------------------ #

    def probation_round(self) -> int:
        """Round stamp for children acquired second-hand (splits, compaction).

        Entries transferred from another peer's children set may be stale;
        stamping them slightly in the past means they are discarded after a
        couple of rounds unless the child confirms itself with PARENT_QUERY.
        This prevents corrupted entries from circulating between compaction
        winners forever.
        """
        grace = max(0, self.config.child_staleness_rounds - 2)
        return max(0, self.round_number - grace)

    def ensure_leaf_instance(self) -> None:
        """Create the level-0 (leaf) instance if it does not exist yet."""
        if 0 not in self.instances:
            self.instances[0] = LevelState(level=0, mbr=self.filter_rect)

    def top_level(self) -> int:
        """The highest level at which this peer is active."""
        if not self.instances:
            self.ensure_leaf_instance()
        return max(self.instances)

    def top_instance(self) -> LevelState:
        """The peer's topmost instance."""
        return self.instances[self.top_level()]

    def is_overlay_root(self) -> bool:
        """True if this peer believes it is the root of the DR-tree."""
        if not self.joined or not self.instances:
            return False
        top = self.top_instance()
        return top.parent is None or top.parent == self.process_id

    def height(self) -> int:
        """Number of levels this peer spans (leaf-only peers span 1)."""
        return self.top_level() + 1

    def children_at(self, level: int) -> List[str]:
        """Sorted children ids of the instance at ``level`` (empty if absent)."""
        instance = self.instances.get(level)
        return instance.child_ids() if instance else []

    def mbr_at(self, level: int) -> Optional[Rect]:
        """MBR of the instance at ``level`` (``None`` if absent)."""
        instance = self.instances.get(level)
        return instance.mbr if instance else None

    def state_size(self) -> int:
        """Number of routing entries held (memory cost of Lemma 3.1).

        Counts one entry per child reference plus one per parent pointer and
        MBR, over all levels where the peer is active.
        """
        total = 0
        for instance in self.instances.values():
            total += len(instance.children) + 2
        return total

    # ------------------------------------------------------------------ #
    # Local-vs-remote dispatch
    # ------------------------------------------------------------------ #

    def local_or_send(self, recipient: str, kind: str, **payload) -> None:
        """Send a protocol message, short-circuiting messages to ourselves.

        The paper treats interactions between two instances owned by the same
        peer as local steps; handling them synchronously keeps the message
        counts comparable with the paper's examples.
        """
        if recipient == self.process_id:
            message = Message(sender=self.process_id, recipient=self.process_id,
                              kind=kind, payload=payload)
            self.handle_message(message)
            return
        self.send(recipient, kind, **payload)

    # ------------------------------------------------------------------ #
    # Fault-injection interface (used by repro.sim.failures)
    # ------------------------------------------------------------------ #

    def levels(self) -> List[int]:
        """Levels at which this peer currently holds (corruptible) state."""
        return sorted(self.instances)

    def corrupt_parent(self, level: int, value: Optional[str]) -> None:
        """Transient fault: overwrite the parent pointer at ``level``."""
        instance = self.instances.get(level)
        if instance is not None:
            instance.parent = value

    def corrupt_children(self, level: int, child_ids: Iterable[str]) -> None:
        """Transient fault: replace the children set at ``level``."""
        instance = self.instances.get(level)
        if instance is None or instance.is_leaf:
            return
        instance.children = {}
        for child_id in child_ids:
            if child_id == self.process_id:
                continue
            instance.add_child(child_id, self.filter_rect, 0, self.round_number)

    def corrupt_mbr(self, level: int, rect: Rect) -> None:
        """Transient fault: overwrite the MBR at ``level``."""
        instance = self.instances.get(level)
        if instance is not None:
            instance.mbr = rect

    def corrupt_underloaded(self, level: int, flag: bool) -> None:
        """Transient fault: overwrite the underloaded flag at ``level``."""
        instance = self.instances.get(level)
        if instance is not None:
            instance.underloaded = flag

    # ------------------------------------------------------------------ #
    # Introspection helpers for the verifier and the experiments
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[int, dict]:
        """A plain-data view of this peer's per-level state."""
        return {
            level: {
                "parent": instance.parent,
                "children": instance.child_ids(),
                "mbr": instance.mbr.as_tuple(),
                "underloaded": instance.underloaded,
            }
            for level, instance in self.instances.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"DRTreePeer({self.process_id!r}, levels={sorted(self.instances)}, "
            f"joined={self.joined})"
        )
