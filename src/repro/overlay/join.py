"""Join phase of the DR-tree protocol (Figure 8).

A joining subscriber obtains a contact from the oracle and sends it a JOIN
request.  The request is first redirected upward until it reaches the root,
then routed downward: at every internal instance the request follows the
child whose MBR needs the least enlargement (``Choose_Best_Child``), the MBR
of every traversed instance being enlarged on the way.  The descent stops at
the lowest internal level, where the new subscriber is adopted as a child —
possibly triggering a split and, at the root, the election of a new root.

The same machinery re-inserts *subtrees*: a re-joining orphaned instance at
level ``h`` carries ``subtree_level=h`` in its JOIN request, and the descent
stops at level ``h + 1`` so that the height balance of the tree is preserved.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.overlay import messages as msg
from repro.overlay.election import choose_best_child, elect_group_parent, is_better_cover
from repro.overlay.state import ChildInfo, LevelState, serialize_children, deserialize_children
from repro.rtree.entry import Entry
from repro.rtree.split import get_split_function
from repro.sim.messages import Message
from repro.spatial.rectangle import Rect


class JoinMixin:
    """Join-phase behaviour of :class:`~repro.overlay.peer.DRTreePeer`."""

    # ------------------------------------------------------------------ #
    # Outgoing side: starting a join
    # ------------------------------------------------------------------ #

    #: A join request is retried at most this many times back-to-back; after
    #: that the peer waits for the next stabilization round to try again (the
    #: round also repairs whatever routing anomaly made the join fail).
    MAX_JOIN_RETRIES = 3

    def start_join(self) -> None:
        """Join the overlay through the oracle's contact node."""
        self.ensure_leaf_instance()
        if self.joined:
            return
        contact = self.oracle.contact(exclude=self.process_id)
        if contact is None:
            # First peer of the overlay: it is the root of a single-leaf tree.
            self._become_single_root()
            return
        self.metrics.increment("join.requests")
        self.send(
            contact,
            msg.JOIN,
            joiner=self.process_id,
            lower=self.filter_rect.lower,
            upper=self.filter_rect.upper,
            subtree_level=0,
            child_count=0,
            hops=0,
        )
        # Retry if the request is lost (e.g. the contact crashed meanwhile).
        self.set_timer(self.config.stabilization_period * 2, self._retry_join)

    def _retry_join(self) -> None:
        if self.joined or not self.alive:
            self._join_retries = 0
            return
        self._join_retries = getattr(self, "_join_retries", 0) + 1
        if self._join_retries > self.MAX_JOIN_RETRIES:
            # Give up for now; the next stabilization round re-initiates the
            # join once the structure has had a chance to repair itself.
            self.metrics.increment("join.retry_budget_exhausted")
            return
        self.metrics.increment("join.retries")
        self.start_join()

    def _become_single_root(self) -> None:
        leaf = self.instances[0]
        leaf.parent = self.process_id
        self.joined = True
        self.oracle.add_member(self.process_id)
        self.oracle.set_root_hint(self.process_id)

    def rejoin_subtree(self, level: int) -> None:
        """Re-insert the whole subtree rooted at this peer's ``level`` instance.

        Used by the stabilization modules when an instance becomes orphaned
        (its parent disappeared or disowned it).  The subtree is re-inserted
        at the height that keeps all leaves at level 0.  Re-joins are
        rate-limited to one every couple of rounds so that a subtree whose
        adoption is still being processed does not get re-inserted a second
        time elsewhere.
        """
        instance = self.instances.get(level)
        if instance is None:
            return
        last = getattr(self, "_last_rejoin_round", None)
        if last is not None and self.round_number - last < 2:
            self.metrics.increment("join.rejoin_rate_limited")
            return
        self._last_rejoin_round = self.round_number
        contact = self.oracle.contact(exclude=self.process_id)
        if contact is None:
            # Nobody else is alive: this peer becomes the root of what it has.
            instance.parent = self.process_id
            self.joined = True
            self.oracle.add_member(self.process_id)
            self.oracle.set_root_hint(self.process_id)
            return
        self.metrics.increment("join.subtree_rejoins")
        self.send(
            contact,
            msg.JOIN,
            joiner=self.process_id,
            lower=instance.mbr.lower,
            upper=instance.mbr.upper,
            subtree_level=level,
            child_count=len(instance.children),
            hops=0,
        )

    # ------------------------------------------------------------------ #
    # Incoming side: routing JOIN requests
    # ------------------------------------------------------------------ #

    def handle_join(self, message: Message) -> None:
        """Route a JOIN request (Figure 8, upper half)."""
        payload = message.payload
        joiner = payload["joiner"]
        if joiner == self.process_id:
            # Our own request was routed back to us: some peer already links
            # to us, so we *are* part of the structure.  Mark the join as
            # complete — the periodic checks repair whatever made us doubt it
            # (e.g. an INITIATE_NEW_CONNECTION that reached the current root).
            if not self.joined and self.instances:
                self.metrics.increment("join.self_loop_completed")
                self.joined = True
                self.oracle.add_member(self.process_id)
            return
        rect = Rect(tuple(payload["lower"]), tuple(payload["upper"]))
        subtree_level = int(payload.get("subtree_level", 0))
        child_count = int(payload.get("child_count", 0))
        hops = int(payload.get("hops", 0))
        descend_level = payload.get("descend_level")

        if not self.joined or not self.instances:
            # We cannot help; the joiner will retry through the oracle.
            self.metrics.increment("join.bounced")
            return
        if hops > 64:
            # Corrupted parent pointers can form routing cycles; drop the
            # request and let the joiner retry once stabilization has run.
            self.metrics.increment("join.dropped_cycles")
            return

        target_level = subtree_level + 1

        if descend_level is None:
            # Phase 1: redirect upward until the root is reached.
            if not self.is_overlay_root():
                parent = self.instances[self.top_level()].parent
                if parent and parent != self.process_id:
                    self._forward_join(parent, payload, hops + 1, descend_level=None)
                    return
            descend_level = self.top_level()

        descend_level = int(descend_level)
        self._descend_join(joiner, rect, subtree_level, child_count,
                           hops, descend_level, target_level)

    def _forward_join(self, recipient: str, payload: Dict, hops: int,
                      descend_level: Optional[int]) -> None:
        forwarded = dict(payload)
        forwarded["hops"] = hops
        if descend_level is None:
            forwarded.pop("descend_level", None)
        else:
            forwarded["descend_level"] = descend_level
        self.send(recipient, msg.JOIN, **forwarded)

    def _descend_join(self, joiner: str, rect: Rect, subtree_level: int,
                      child_count: int, hops: int, level: int,
                      target_level: int) -> None:
        """Phase 2: walk down, enlarging MBRs, until the adoption level."""
        if level not in self.instances:
            # Stale routing information: start from the lowest instance we do
            # hold that is still above the target (or adopt at the target).
            candidates = [lvl for lvl in self.instances if lvl >= target_level]
            if not candidates:
                self._adopt_child(target_level, joiner, rect, child_count, hops)
                return
            level = min(candidates)
        while True:
            instance = self.instances[level]
            if level <= target_level or instance.is_leaf:
                self._adopt_child(max(level, target_level), joiner, rect,
                                  child_count, hops)
                return
            # Enlarge the MBR on the way down (Figure 8).
            instance.mbr = instance.mbr.union(rect)
            # Never route a request towards the joiner itself: a re-joining
            # peer can still appear as an internal node on the path, and
            # forwarding the request to it would loop forever.
            candidates_mbrs = {
                cid: mbr
                for cid, mbr in instance.child_mbrs().items()
                if cid != joiner
            }
            if not candidates_mbrs:
                self._adopt_child(max(level, target_level), joiner, rect,
                                  child_count, hops)
                return
            best = choose_best_child(candidates_mbrs, rect)
            # Enlarge the cached MBR of the branch the request descends into:
            # dissemination consults these cached copies, and waiting for the
            # next PARENT_QUERY refresh would open a window of false negatives
            # for events that only interest the new subscriber.
            best_info = instance.children.get(best)
            if best_info is not None:
                best_info.mbr = best_info.mbr.union(rect)
            if best == self.process_id:
                if level - 1 in self.instances:
                    level -= 1
                    continue
                # Our own chain is broken below this level: adopt here rather
                # than looping back to the top.
                self._adopt_child(max(level, target_level), joiner, rect,
                                  child_count, hops)
                return
            payload = {
                "joiner": joiner,
                "lower": rect.lower,
                "upper": rect.upper,
                "subtree_level": subtree_level,
                "child_count": child_count,
            }
            self._forward_join(best, payload, hops + 1, descend_level=level - 1)
            return

    # ------------------------------------------------------------------ #
    # Adoption (ADD_CHILD, Figure 8 lower half)
    # ------------------------------------------------------------------ #

    def handle_add_child(self, message: Message) -> None:
        """Adopt a child pushed back up by a splitting descendant.

        If this peer no longer holds the requested level (the sender's parent
        pointer was stale), the child is adopted at the closest level this
        peer does hold.  The resulting local imbalance is repaired by the
        stabilization modules; refusing the child here would orphan a whole
        subtree and trigger an avalanche of re-joins.
        """
        payload = message.payload
        level = int(payload["level"])
        child = payload["child"]
        rect = Rect(tuple(payload["lower"]), tuple(payload["upper"]))
        child_count = int(payload.get("child_count", 0))
        if level not in self.instances:
            level = max(self.top_level(), 1)
            self.metrics.increment("join.add_child_redirected")
        self._adopt_child(level, child, rect, child_count, hops=message.hops)

    def _adopt_child(self, level: int, child: str, rect: Rect,
                     child_count: int, hops: int) -> None:
        """Add ``child`` to the instance at ``level``, splitting if needed."""
        if child == self.process_id:
            return
        self._ensure_internal_instance(level)
        instance = self.instances[level]
        if child in instance.children or len(instance.children) < self.config.max_children:
            instance.add_child(child, rect, child_count, self.round_number)
            instance.mbr = instance.computed_mbr(self.filter_rect)
            instance.underloaded = len(instance.children) < self.config.min_children
            self.local_or_send(child, msg.SET_PARENT,
                               level=level - 1, parent=self.process_id)
            self.local_or_send(child, msg.JOIN_ACK, level=level - 1, hops=hops)
            self.metrics.observe("join.hops", hops)
            self.metrics.increment("join.completed")
            self._maybe_promote_child(level)
            return
        self.metrics.increment("join.splits")
        self._split_children(level, child, rect, child_count, hops)

    def _ensure_internal_instance(self, level: int) -> None:
        """Create the instance at ``level`` if this peer lacks it.

        This covers the bootstrap case (a single-leaf root adopting its first
        child) and stale-routing races: the missing levels between the current
        top and ``level`` are created with this peer as its own child, so the
        "a subscriber is present in all levels of its subtree" rule holds.
        """
        self.ensure_leaf_instance()
        top = self.top_level()
        while top < level:
            below = self.instances[top]
            was_root = below.parent == self.process_id or below.parent is None
            new_state = LevelState(level=top + 1, mbr=below.mbr)
            new_state.add_child(self.process_id, below.mbr,
                                len(below.children), self.round_number)
            new_state.parent = self.process_id if was_root else below.parent
            below.parent = self.process_id
            self.instances[top + 1] = new_state
            if was_root:
                self.oracle.set_root_hint(self.process_id)
            top += 1

    # ------------------------------------------------------------------ #
    # Splits
    # ------------------------------------------------------------------ #

    def _maybe_split_overflow(self, level: int) -> None:
        """Split the instance at ``level`` if its children set exceeds ``M``.

        Overflow can appear outside the join path: compaction merges based on
        stale child counts, and transient faults can inject arbitrary children
        sets.  The repair re-uses the ordinary split machinery by popping one
        child and re-adding it through ``_split_children``.
        """
        instance = self.instances.get(level)
        if instance is None or len(instance.children) <= self.config.max_children:
            return
        candidates = [cid for cid in instance.children if cid != self.process_id]
        if not candidates:
            return
        popped_id = candidates[-1]
        popped = instance.children.pop(popped_id)
        self.metrics.increment("stabilization.overflow_splits")
        self._split_children(level, popped_id, popped.mbr, popped.child_count,
                             hops=0)

    def _split_children(self, level: int, new_child: str, new_rect: Rect,
                        new_child_count: int, hops: int) -> None:
        """Split an overfull children set in two groups (Section 3.2)."""
        instance = self.instances[level]
        entries = [
            Entry(rect=info.mbr, payload=(cid, info.child_count))
            for cid, info in instance.children.items()
        ]
        entries.append(Entry(rect=new_rect, payload=(new_child, new_child_count)))
        split = get_split_function(self.config.split_method)(
            entries, self.config.min_children
        )
        keep, give = (split.left, split.right)
        if self.process_id in {entry.payload[0] for entry in split.right}:
            keep, give = split.right, split.left

        keep_children = {
            entry.payload[0]: ChildInfo(
                mbr=entry.rect, child_count=entry.payload[1],
                last_seen_round=self.round_number,
            )
            for entry in keep
        }
        give_children = {
            entry.payload[0]: ChildInfo(
                mbr=entry.rect, child_count=entry.payload[1],
                last_seen_round=self.round_number,
            )
            for entry in give
        }

        instance.children = keep_children
        instance.mbr = instance.computed_mbr(self.filter_rect)
        instance.underloaded = len(instance.children) < self.config.min_children

        give_mbr = Rect.union_of(info.mbr for info in give_children.values())
        sibling = elect_group_parent({cid: info.mbr for cid, info in give_children.items()})

        # Children that stayed with us but are new (the joiner may be in `keep`).
        if new_child in keep_children:
            self.local_or_send(new_child, msg.SET_PARENT,
                               level=level - 1, parent=self.process_id)
            self.local_or_send(new_child, msg.JOIN_ACK, level=level - 1, hops=hops)
            self.metrics.observe("join.hops", hops)
            self.metrics.increment("join.completed")

        is_root_here = (instance.parent == self.process_id
                        and level == self.top_level())
        if not is_root_here and instance.parent is not None:
            parent_id = instance.parent
            self.local_or_send(
                sibling, msg.PROMOTE,
                level=level,
                children=serialize_children(give_children),
                parent=parent_id,
                joiner=new_child if new_child in give_children else None,
                hops=hops,
            )
            self.local_or_send(
                parent_id, msg.ADD_CHILD,
                level=level + 1,
                child=sibling,
                lower=give_mbr.lower,
                upper=give_mbr.upper,
                child_count=len(give_children),
            )
            return

        # Root split: elect the new root among the two subtree parents.
        self.metrics.increment("join.root_splits")
        new_root = elect_group_parent({self.process_id: instance.mbr, sibling: give_mbr})
        if new_root == self.process_id:
            self._ensure_internal_instance(level)  # no-op, keeps leaf chain valid
            root_state = LevelState(level=level + 1, mbr=instance.mbr.union(give_mbr))
            root_state.parent = self.process_id
            root_state.add_child(self.process_id, instance.mbr,
                                 len(instance.children), self.round_number)
            root_state.add_child(sibling, give_mbr, len(give_children),
                                 self.round_number)
            self.instances[level + 1] = root_state
            instance.parent = self.process_id
            self.oracle.set_root_hint(self.process_id)
            self.local_or_send(
                sibling, msg.PROMOTE,
                level=level,
                children=serialize_children(give_children),
                parent=self.process_id,
                joiner=new_child if new_child in give_children else None,
                hops=hops,
            )
        else:
            instance.parent = sibling
            self.local_or_send(
                sibling, msg.PROMOTE,
                level=level,
                children=serialize_children(give_children),
                parent=sibling,
                become_root_with={
                    self.process_id: {
                        "lower": instance.mbr.lower,
                        "upper": instance.mbr.upper,
                        "child_count": len(instance.children),
                    }
                },
                joiner=new_child if new_child in give_children else None,
                hops=hops,
            )

    # ------------------------------------------------------------------ #
    # PROMOTE: take over (or create) an internal instance
    # ------------------------------------------------------------------ #

    def handle_promote(self, message: Message) -> None:
        """Create/overwrite an internal instance with the provided children.

        Used after splits (the elected sibling parent receives its group),
        after cover exchanges (the better-covering child takes over its
        parent's role), and when a new root is elected.
        """
        payload = message.payload
        level = int(payload["level"])
        children = deserialize_children(payload["children"],
                                        self.probation_round())
        parent = payload.get("parent") or self.process_id
        joiner = payload.get("joiner")
        hops = int(payload.get("hops", 0))

        self.ensure_leaf_instance()
        if level <= 0:
            return
        state = self.instances.get(level)
        if state is None:
            state = LevelState(level=level, mbr=self.filter_rect)
            self.instances[level] = state
        state.children = children
        state.parent = parent
        state.mbr = state.computed_mbr(self.filter_rect)
        state.underloaded = len(children) < self.config.min_children
        state.parent_confirmed = True
        state.missed_parent_acks = 0

        # Make sure this peer is present at every level below the new one.
        self._fill_levels_below(level)

        for child_id in children:
            if child_id == self.process_id:
                below = self.instances.get(level - 1)
                if below is not None:
                    below.parent = self.process_id
                continue
            self.local_or_send(child_id, msg.SET_PARENT,
                               level=level - 1, parent=self.process_id)
        if joiner and joiner in children and joiner != self.process_id:
            self.local_or_send(joiner, msg.JOIN_ACK, level=level - 1, hops=hops)
            self.metrics.observe("join.hops", hops)
            self.metrics.increment("join.completed")

        become_root_with = payload.get("become_root_with")
        if become_root_with:
            root_state = LevelState(level=level + 1, mbr=state.mbr)
            root_state.parent = self.process_id
            root_state.add_child(self.process_id, state.mbr, len(children),
                                 self.round_number)
            for other_id, data in become_root_with.items():
                other_mbr = Rect(tuple(data["lower"]), tuple(data["upper"]))
                root_state.add_child(other_id, other_mbr,
                                     int(data.get("child_count", 0)),
                                     self.round_number)
                self.local_or_send(other_id, msg.SET_PARENT,
                                   level=level, parent=self.process_id)
            root_state.mbr = root_state.computed_mbr(self.filter_rect)
            self.instances[level + 1] = root_state
            state.parent = self.process_id
            self.oracle.set_root_hint(self.process_id)
        elif parent == self.process_id and level >= self.top_level():
            self.oracle.set_root_hint(self.process_id)

        self.joined = True
        self.oracle.add_member(self.process_id)

    def _fill_levels_below(self, level: int) -> None:
        """Ensure instances exist at every level in ``[0, level)``.

        A peer promoted to an internal role must be active at all lower levels
        of its own subtree; missing intermediate instances are created with
        the peer as its own single child (they will be populated or compacted
        by the stabilization modules).
        """
        self.ensure_leaf_instance()
        for lvl in range(1, level):
            if lvl in self.instances:
                continue
            below = self.instances[lvl - 1]
            state = LevelState(level=lvl, mbr=below.mbr)
            state.add_child(self.process_id, below.mbr, len(below.children),
                            self.round_number)
            state.parent = self.process_id
            state.underloaded = True
            below.parent = self.process_id
            self.instances[lvl] = state
        if level in self.instances and level - 1 in self.instances:
            if self.process_id in self.instances[level].children:
                self.instances[level - 1].parent = self.process_id

    # ------------------------------------------------------------------ #
    # Small handlers
    # ------------------------------------------------------------------ #

    def handle_join_ack(self, message: Message) -> None:
        """The joiner learns it has been placed in the tree."""
        self.joined = True
        self.oracle.add_member(self.process_id)

    def handle_set_parent(self, message: Message) -> None:
        """Record the parent of this peer's instance at the given level.

        Two guards keep the peer's own level chain authoritative:

        * claims for levels the peer does not hold are ignored (the claimer's
          stale child entry expires through CHECK_CHILDREN),
        * claims by *other* peers for a non-topmost instance are ignored —
          such an instance is by construction a child of this peer's own
          next-level instance, and accepting an external parent would tear
          the chain apart.
        """
        level = int(message.payload["level"])
        parent = message.payload["parent"]
        self.ensure_leaf_instance()
        state = self.instances.get(level)
        if state is None:
            self.metrics.increment("join.set_parent_ignored")
            return
        if parent != self.process_id and (level + 1) in self.instances:
            # This instance is a link of our own chain (the next level exists
            # locally); an external claim for it is necessarily stale.
            self.metrics.increment("join.set_parent_ignored")
            return
        state.parent = parent
        state.parent_confirmed = True
        state.missed_parent_acks = 0
