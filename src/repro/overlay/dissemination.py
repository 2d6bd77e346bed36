"""Event dissemination over the DR-tree (Sections 2.3 and 3).

An event produced by a subscriber ``n`` is disseminated along all subtrees
for which ``n`` is a root, propagated upward to the root of the DR-tree, and
pushed down every sibling subtree encountered on the path whose MBR contains
the event.  Forwarding between two instances owned by the same peer is a
local step and costs no network message — this matches the paper's running
example, where delivering event *a* to S2, S3 and S4 requires only two
messages.

By construction the dissemination produces **no false negatives**: every MBR
on the path from the root to a matching leaf contains the event.  A **false
positive** occurs when a peer receives an event (because one of its instances
had to consider it) whose own filter does not match.

Each peer remembers the events it received only while they are in flight
(:attr:`~repro.overlay.peer.DRTreePeer.seen_events`): the table de-duplicates
an event a corrupted structure routes to the peer twice, and
:meth:`~repro.sim.network.Network.forget_receptions` empties it once the
operation that published the event has settled.  So the peer's state does
not grow with the events it has seen, and an event id published again later
is delivered again.

One fan-out
-----------
Every engine runs the same fan-out: the children whose MBR contains the
event are selected in one containment pass
(:func:`repro.spatial.containment.child_ids_containing_point`), and a hop's
remote children share one payload — the event object, its point, the
receiving level and the hop count — handed to
:meth:`~repro.sim.network.Network.send_many`.  How the network schedules
those envelopes (per-round queues, or one engine entry per fan-out under
loss or a sampling latency) is the network's choice and never changes who
receives which event at what hop count.
"""

from __future__ import annotations

from typing import Optional

from repro.overlay import messages as msg
from repro.sim.messages import Message
from repro.spatial.containment import child_ids_containing_point
from repro.spatial.filters import Event
from repro.spatial.rectangle import Point


class DisseminationMixin:
    """Dissemination behaviour of :class:`~repro.overlay.peer.DRTreePeer`."""

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #

    def publish(self, event: Event) -> None:
        """Publish ``event`` from this peer (the paper's producer node ``n``)."""
        if not self.alive:
            return
        self.metrics.increment("pubsub.published")
        point = event.to_point(self.subscription.space)
        self._record_event_reception(event, hops=0, point=point)
        # Down every subtree this peer roots.
        for level in sorted(self.instances, reverse=True):
            self._forward_down_from(level, event, point, hops=0,
                                    exclude_child=None)
        # Up towards the root, visiting sibling subtrees on the way.
        top = self.top_level()
        top_instance = self.instances[top]
        if top_instance.parent and top_instance.parent != self.process_id:
            self._send_up(top_instance.parent, event, point,
                          child_level=top, hops=1)

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #

    def handle_publish_up(self, message: Message) -> None:
        """An event bubbling up from a child: serve the siblings, keep climbing."""
        payload = message.payload
        event = payload["event_obj"]
        point = payload["point"]
        hops = payload["hops"]
        if not self._record_event_reception(event, hops, point):
            # A corrupted structure (a child listed under two parents) can
            # route the same event here twice; do not amplify it further.
            self.metrics.increment("pubsub.duplicates")
            return
        level = payload["child_level"] + 1
        if level not in self.instances:
            # Stale routing; fall back to our topmost instance.
            if not self.instances:
                return
            level = self.top_level()
        self._forward_down_from(level, event, point, hops,
                                exclude_child=payload["from_child"])
        # Also serve the levels where this peer is active above `level`
        # locally and keep climbing if a parent exists.
        for higher in sorted(lvl for lvl in self.instances if lvl > level):
            self._forward_down_from(higher, event, point, hops,
                                    exclude_child=self.process_id)
        top = self.top_level()
        top_instance = self.instances[top]
        if top_instance.parent and top_instance.parent != self.process_id:
            self._send_up(top_instance.parent, event, point,
                          child_level=top, hops=hops + 1)

    def handle_publish_down(self, message: Message) -> None:
        """An event flowing down a subtree whose MBR contains it."""
        payload = message.payload
        event = payload["event_obj"]
        point = payload["point"]
        hops = payload["hops"]
        if not self._record_event_reception(event, hops, point):
            self.metrics.increment("pubsub.duplicates")
            return
        level = payload["level"]
        if level > 0:  # most receptions are leaves: skip the call
            self._forward_down_from(level, event, point, hops,
                                    exclude_child=None)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _forward_down_from(self, level: int, event: Event, point: Point,
                           hops: int, exclude_child: Optional[str]) -> None:
        """Forward ``event`` to every child at ``level`` whose MBR contains it.

        One containment pass selects the children.  The pending remote sends
        are flushed whenever the local-descent child comes up, so the network
        sees sends (and consumes its loss/latency RNG streams) in child
        order.  A hop without a local step costs one ``send_many``.
        """
        instance = self.instances.get(level)
        if instance is None or instance.is_leaf:
            return
        targets = child_ids_containing_point(instance.children, point,
                                             exclude=exclude_child)
        if not targets:
            return
        # One payload for the whole hop: receivers treat it as read-only.
        payload = {
            "event_obj": event,
            "point": point,
            "level": level - 1,
            "hops": hops + 1,
        }
        me = self.process_id
        pending: list = []
        for child_id in targets:
            if child_id != me:
                pending.append(child_id)
                continue
            self._send_down(pending, payload)
            pending = []
            # Local step: descend our own chain without a network message.
            self._forward_down_from(level - 1, event, point, hops,
                                    exclude_child=None)
        self._send_down(pending, payload)

    def _send_down(self, recipients: list, payload: dict) -> None:
        """Send one hop's PUBLISH_DOWN to ``recipients`` (may be empty)."""
        if recipients:
            self.metrics.increment("pubsub.messages", len(recipients))
            self.network.send_many(self.process_id, recipients,
                                   msg.PUBLISH_DOWN, payload)

    def _send_up(self, parent_id: str, event: Event, point: Point,
                 child_level: int, hops: int) -> None:
        """Send PUBLISH_UP to ``parent_id``."""
        self.send(parent_id, msg.PUBLISH_UP,
                  event_obj=event, point=point,
                  from_child=self.process_id,
                  child_level=child_level, hops=hops)

    def _record_event_reception(self, event: Event, hops: int,
                                point: Point) -> bool:
        """Record that this peer saw ``event``; False if it already had.

        The record lives only while the event is in flight: the first
        record since the last settle hands the table to the network, which
        empties it when the simulation settles.
        """
        seen = self.seen_events
        if event.event_id in seen:
            return False
        if not seen:
            self.network.hold_receptions(seen)
        matched = self.subscription.matches_point(event, point)
        seen[event.event_id] = matched
        metrics = self.metrics
        metrics.increment("pubsub.receptions")
        if not matched:
            metrics.increment("pubsub.false_positives")
        if self.delivery_listener is not None:
            self.delivery_listener(self.process_id, event, matched, hops)
        return True
