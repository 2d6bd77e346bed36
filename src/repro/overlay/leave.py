"""Controlled departures (Figure 9).

A subscriber that leaves properly sends a LEAVE message to the parent of its
topmost instance and shuts down.  The parent removes the subscriber from its
children set, recomputes its MBR and — if the removal pushed the children set
below the ``m`` limit — asks its own parent to run the structure check
(compaction).  The subtree that hung below the departing subscriber is
repaired by the stabilization mechanisms: the orphaned children notice that
their parent no longer acknowledges them and re-join.
"""

from __future__ import annotations

from repro.overlay import messages as msg
from repro.sim.messages import Message


class LeaveMixin:
    """Controlled-departure behaviour of :class:`~repro.overlay.peer.DRTreePeer`."""

    def leave(self) -> None:
        """Leave the overlay gracefully (controlled departure)."""
        self.metrics.increment("leave.controlled")
        top = self.top_level() if self.instances else None
        if top is not None:
            instance = self.instances[top]
            parent = instance.parent
            if parent and parent != self.process_id:
                self.send(parent, msg.LEAVE,
                          child=self.process_id, child_level=top)
        self.oracle.forget(self.process_id)
        self.shutdown()

    def handle_leave(self, message: Message) -> None:
        """Remove a departing child from the children set (Figure 9)."""
        child = message.payload["child"]
        child_level = int(message.payload.get("child_level", 0))
        level = child_level + 1
        instance = self.instances.get(level)
        if instance is None or child not in instance.children:
            # Look for the child at any level (the hint may be stale).
            for candidate in sorted(self.instances):
                if child in self.instances[candidate].children:
                    instance = self.instances[candidate]
                    level = candidate
                    break
            else:
                return
        instance.remove_child(child)
        instance.mbr = instance.computed_mbr(self.filter_rect)
        was_underloaded = instance.underloaded
        instance.underloaded = len(instance.children) < self.config.min_children
        self.metrics.increment("leave.children_removed")
        if (instance.underloaded and not was_underloaded
                and instance.parent
                and instance.parent != self.process_id):
            # Figure 9: ask the parent to run the structure check.
            self.send(instance.parent, msg.CHECK_STRUCTURE, level=level + 1)
        if not instance.children and level > 0:
            # The instance lost every child; dissolve it.
            self.dissolve_instance(level)
