"""Periodic self-stabilization modules (Figures 10-13).

Every peer periodically runs, for every level where it is active:

* **CHECK_MBR** (Figure 10) — a leaf's MBR must equal its filter; an internal
  instance's MBR must be the union of its children's MBRs.
* **CHECK_PARENT** (Figure 11) — the peer verifies it is present in the
  children set of its parent; if not (or the parent is unreachable) it sets
  itself as parent and re-joins through the oracle.
* **CHECK_CHILDREN** (Figure 12) — children whose parent pointer is elsewhere
  (detected here through prolonged silence) are discarded and the
  ``underloaded`` flag is recomputed.
* **CHECK_COVER** (Figure 13) — if a child provides a better cover than the
  node itself, the two exchange their roles.

The message-level mechanics differ slightly from the shared-memory flavour of
the paper's pseudo-code: parent/children coherence is verified with an
explicit PARENT_QUERY / PARENT_ACK / PARENT_NACK exchange that also refreshes
the parent's cached view of the child's MBR, child count and underloaded
flag.  The observable repairs are the same.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.overlay import messages as msg
from repro.overlay.election import is_better_cover
from repro.overlay.state import serialize_children
from repro.sim.messages import Message
from repro.spatial.rectangle import Rect


#: The smallest :meth:`StabilizationMixin._root_distance_bound` of any
#: population: a distance at or below it never needs the population size.
_MIN_DISTANCE_BOUND = 16


@lru_cache(maxsize=None)
def _distance_bound_for(population: int) -> int:
    """:meth:`StabilizationMixin._root_distance_bound` of a population size."""
    return max(_MIN_DISTANCE_BOUND,
               6 + 2 * int(math.ceil(math.log2(population))))


class StabilizationMixin:
    """Periodic repair behaviour of :class:`~repro.overlay.peer.DRTreePeer`."""

    # ------------------------------------------------------------------ #
    # Round driver
    # ------------------------------------------------------------------ #

    def run_stabilization_round(self) -> None:
        """Run every CHECK_* module once at every active level."""
        if not self.alive:
            return
        self.round_number += 1
        self.metrics.increment("stabilization.rounds")
        self.ensure_leaf_instance()
        if not self.joined:
            # The peer gave up on a failing join (or was told to re-connect);
            # try again now that a repair round has run everywhere.  An
            # un-joined peer must not retain internal roles: they would keep
            # other peers attached to it while it is outside the structure.
            if self.top_level() > 0:
                self.reset_to_unjoined_leaf()
            self._join_retries = 0
            self.start_join()
            return
        instances = self.instances
        if len(instances) == 1:
            # Only the leaf: CHECK_CHILDREN and CHECK_COVER return at a
            # leaf, and nothing before CHECK_PARENT changes the levels.
            self.check_mbr(0)
            self.check_parent(0)
            self.check_structure()
            return
        levels = sorted(instances)
        for level in levels:
            if level not in instances:
                continue  # dissolved by a check run earlier in this round
            self.check_mbr(level)
            self.check_children(level)
        for check in (self.check_cover, self.check_parent):
            if list(instances) != levels:
                # A check above created or dissolved an instance: the next
                # module runs over the levels that exist now.
                levels = sorted(instances)
            for level in levels:
                if level in instances:
                    check(level)
        self.check_structure()

    # ------------------------------------------------------------------ #
    # CHECK_MBR (Figure 10)
    # ------------------------------------------------------------------ #

    def check_mbr(self, level: int) -> None:
        """Repair the MBR of the instance at ``level``."""
        instance = self.instances.get(level)
        if instance is None:
            return
        correct = instance.computed_mbr(self.filter_rect)
        if (instance.mbr is not correct
                and instance.mbr.as_tuple() != correct.as_tuple()):
            self.metrics.increment("stabilization.mbr_repairs")
            instance.mbr = correct

    # ------------------------------------------------------------------ #
    # CHECK_CHILDREN (Figure 12)
    # ------------------------------------------------------------------ #

    def check_children(self, level: int) -> None:
        """Discard stale/foreign children and recompute the underloaded flag."""
        instance = self.instances.get(level)
        if instance is None or instance.is_leaf:
            return
        stale_after = self.config.child_staleness_rounds
        to_drop = [
            child_id
            for child_id, info in instance.children.items()
            if child_id != self.process_id
            and self.round_number - info.last_seen_round > stale_after
        ]
        for child_id in to_drop:
            self.metrics.increment("stabilization.children_dropped")
            instance.remove_child(child_id)
        # Our own lower instance is always a legitimate child when it exists;
        # re-adding it repairs a corrupted children set and keeps the
        # "present at all levels of its subtree" chain intact.
        below = self.instances.get(level - 1)
        if below is not None:
            instance.add_child(self.process_id, below.mbr,
                               len(below.children), self.round_number)
            instance.children[self.process_id].underloaded = below.underloaded
        if to_drop:
            instance.mbr = instance.computed_mbr(self.filter_rect)
        if not instance.children:
            self.dissolve_instance(level)
            return
        is_root_here = (level == self.top_level()
                        and (instance.parent == self.process_id
                             or instance.parent is None))
        if is_root_here and len(instance.children) == 1:
            # A root with a single child is redundant: the tree shrinks by one
            # level.  If the only child is another peer it becomes the new
            # root (it will notice through CHECK_PARENT / the oracle).
            only_child = next(iter(instance.children))
            self.metrics.increment("stabilization.root_collapses")
            del self.instances[level]
            self.oracle.withdraw_root(self.process_id)
            if only_child == self.process_id:
                lower = self.instances.get(level - 1)
                if lower is not None:
                    lower.parent = self.process_id
            else:
                self.local_or_send(only_child, msg.SET_PARENT,
                                   level=level - 1, parent=only_child)
            return
        was_underloaded = instance.underloaded
        instance.underloaded = len(instance.children) < self.config.min_children
        if instance.underloaded != was_underloaded:
            self.metrics.increment("stabilization.underloaded_repairs")
        if (instance.underloaded
                and instance.parent
                and instance.parent != self.process_id):
            self.local_or_send(instance.parent, msg.CHECK_STRUCTURE,
                               level=level + 1)
        # A corrupted (or over-merged) children set may exceed the M bound;
        # repair it with an ordinary split.
        self._maybe_split_overflow(level)

    # ------------------------------------------------------------------ #
    # CHECK_PARENT (Figure 11)
    # ------------------------------------------------------------------ #

    def _root_distance_bound(self) -> int:
        """Maximum plausible distance from the root to any instance.

        Parent chains in a legal DR-tree are at most the tree height long,
        i.e. ``O(log_m N)``.  A believed distance far beyond that means the
        instance hangs off a detached cycle of stale parent pointers (each
        link individually coherent but none of them leading to the root), a
        configuration ordinary parent/children checks cannot detect.
        """
        return _distance_bound_for(max(len(self.oracle), 2))

    def check_parent(self, level: int) -> None:
        """Verify this instance is still a child of its parent; re-join if not."""
        instance = self.instances.get(level)
        if instance is None:
            return
        if (level + 1) in self.instances:
            # The instance is part of this peer's own chain: its parent is the
            # peer's next-level instance, and coherence is purely local.
            instance.parent = self.process_id
            instance.parent_confirmed = True
            instance.missed_parent_acks = 0
            instance.root_distance = self.instances[level + 1].root_distance + 1
            return
        if instance.parent == self.process_id or instance.parent is None:
            if instance.parent is None:
                instance.parent = self.process_id
            instance.parent_confirmed = True
            instance.missed_parent_acks = 0
            instance.root_distance = 0
            if level == self.top_level():
                if self.joined:
                    self._arbitrate_root(level, instance)
            else:
                # A "gap" fragment: the peer also holds higher levels, but the
                # chain between them is broken, so the subtree below this
                # instance is cut off from the root.  Re-insert it.
                self.metrics.increment("stabilization.gap_rejoins")
                self.rejoin_subtree(level)
            return
        if (instance.root_distance > _MIN_DISTANCE_BOUND
                and instance.root_distance > self._root_distance_bound()):
            # Detached cycle: every parent on the chain acknowledges its
            # child, yet none of them is the root.  Break out and re-join.
            self.metrics.increment("stabilization.cycle_rejoins")
            instance.parent = self.process_id
            instance.parent_confirmed = True
            instance.missed_parent_acks = 0
            instance.root_distance = 0
            self.rejoin_subtree(level)
            return
        if not instance.parent_confirmed:
            instance.missed_parent_acks += 1
        if instance.missed_parent_acks >= self.config.parent_silence_rounds:
            # The parent is unreachable or has disowned us: re-join.
            self.metrics.increment("stabilization.orphan_rejoins")
            instance.parent = self.process_id
            instance.parent_confirmed = True
            instance.missed_parent_acks = 0
            instance.root_distance = 0
            self.rejoin_subtree(level)
            return
        self.oracle.withdraw_root(self.process_id)
        instance.parent_confirmed = False
        self.send(
            instance.parent,
            msg.PARENT_QUERY,
            level=level,
            lower=instance.mbr.lower,
            upper=instance.mbr.upper,
            child_count=len(instance.children),
            underloaded=instance.underloaded,
        )

    def _arbitrate_root(self, level: int, instance) -> None:
        """Merge fragment roots: defer to the best advertised root.

        Transient faults, root crashes and concurrent re-joins can leave the
        overlay split into several trees, each with its own self-proclaimed
        root.  Every root advertises itself (with its MBR area) through the
        oracle; any root that is not the best advertised one re-inserts its
        whole subtree under the winner, so the fragments merge back into a
        single DR-tree.
        """
        self.oracle.advertise_root(self.process_id, instance.mbr.area())
        best = self.oracle.best_root()
        if best is None or best == self.process_id:
            self.oracle.set_root_hint(self.process_id)
            return
        if not self.oracle.contact(exclude=self.process_id):
            return
        self.metrics.increment("stabilization.root_merges")
        self.oracle.withdraw_root(self.process_id)
        self.rejoin_subtree(level)

    def handle_parent_query(self, message: Message) -> None:
        """Parent side of CHECK_PARENT: confirm or disown the querying child."""
        child = message.sender
        payload = message.payload
        child_level = int(payload["level"])
        level = child_level + 1
        instance = self.instances.get(level)
        if instance is None or child not in instance.children:
            self.send(child, msg.PARENT_NACK, level=child_level)
            return
        info = instance.children[child]
        bounds = (tuple(payload["lower"]), tuple(payload["upper"]))
        # A refresh usually repeats what is cached: keep that (validated)
        # object, so the union memo below hits on identity.
        child_mbr = info.mbr if bounds == info.mbr.as_tuple() else Rect(*bounds)
        instance.add_child(
            child,
            child_mbr,
            int(payload.get("child_count", 0)),
            self.round_number,
        )
        info.underloaded = bool(payload.get("underloaded", False))
        instance.mbr = instance.computed_mbr(self.filter_rect)
        self.send(child, msg.PARENT_ACK, level=child_level,
                  root_distance=instance.root_distance + 1)

    def handle_parent_ack(self, message: Message) -> None:
        """The parent confirmed this peer; clear the orphan counters."""
        level = int(message.payload["level"])
        instance = self.instances.get(level)
        if instance is None:
            return
        instance.parent_confirmed = True
        instance.missed_parent_acks = 0
        if "root_distance" in message.payload:
            instance.root_distance = int(message.payload["root_distance"])

    def handle_parent_nack(self, message: Message) -> None:
        """The parent disowned this peer: note it, re-join if it persists.

        The NACK is not acted upon immediately: a concurrent split, promotion
        or compaction may have legitimately moved this peer under a new parent
        whose SET_PARENT is still in flight.  The instance is merely left
        unconfirmed; if no parent claims it within the next couple of rounds
        the ordinary orphan path in :meth:`check_parent` re-joins it.
        """
        level = int(message.payload["level"])
        instance = self.instances.get(level)
        if instance is None or level != self.top_level():
            return
        if instance.parent != message.sender:
            # The NACK refers to a stale parent; ignore it.
            return
        self.metrics.increment("stabilization.nacks")
        instance.parent_confirmed = False
        instance.missed_parent_acks += 1

    # ------------------------------------------------------------------ #
    # CHECK_COVER (Figure 13)
    # ------------------------------------------------------------------ #

    def check_cover(self, level: int) -> None:
        """Exchange roles with a child that provides a better cover.

        Interpretation note.  Figure 13 exchanges a node with a child that
        "better covers the node sub-tree than the node itself".  The literal
        reading of ``Is_Better_MBR_Cover`` — compare the child's subtree MBR
        area against the parent's own child-level instance — never converges:
        the exchange swaps the two roles without changing either MBR, so the
        test immediately holds in the other direction and the pair flip-flops
        forever.

        The convergent rule implemented here matches Figure 6's election
        principle: a child takes over the parent's role only when its subtree
        MBR covers the *whole* group (it equals the instance's MBR) and is
        strictly larger than the parent's own subtree below this level.
        After the exchange the new parent's own subtree is exactly that
        covering MBR, so no further exchange can trigger: the repaired state
        is a fixed point, and Property 3.1 (a containee is never an ancestor
        of its container) is restored whenever it is violated.
        """
        instance = self.instances.get(level)
        if instance is None or instance.is_leaf:
            return
        below = self.instances.get(level - 1)
        anchor_area = below.mbr.area() if below is not None else self.filter_rect.area()
        best_child = None
        best_area = anchor_area
        for child_id, info in instance.children.items():
            if child_id == self.process_id:
                continue
            if not info.mbr.contains_rect(instance.mbr):
                continue
            if is_better_cover(info.mbr.area(), best_area):
                best_child = child_id
                best_area = info.mbr.area()
        if best_child is None:
            return
        self.metrics.increment("stabilization.cover_exchanges")
        self._promote_child_to_my_role(level, best_child)

    def _maybe_promote_child(self, level: int) -> None:
        """Join-time variant of CHECK_COVER (Figure 8's Is_Better_MBR_Cover)."""
        self.check_cover(level)

    def _promote_child_to_my_role(self, level: int, child_id: str) -> None:
        """Hand the instance at ``level`` over to ``child_id`` (Adjust_Parent).

        The instances above ``level`` go with it: a peer present at level
        l + 1 is its own child at level l, so keeping them would leave this
        peer at l + 1 without l (a hole in its level chain).  ``child_id``
        takes every handed level, with this peer's id replaced by its own
        in the children sets above ``level``.
        """
        instance = self.instances.get(level)
        if instance is None or child_id not in instance.children:
            return
        handed = sorted(lvl for lvl in self.instances if lvl >= level)
        top = self.instances[handed[-1]]
        parent = top.parent
        is_root_here = parent == self.process_id
        for lvl in handed:
            children = self.instances.pop(lvl).children
            if lvl > level:
                children = {child_id if cid == self.process_id else cid: info
                            for cid, info in children.items()}
            self.local_or_send(
                child_id, msg.PROMOTE,
                level=lvl,
                children=serialize_children(children),
                parent=(child_id if is_root_here or lvl < handed[-1]
                        else parent),
            )
        if not is_root_here and parent:
            self.local_or_send(
                parent, msg.REPLACE_CHILD,
                level=handed[-1] + 1,
                old=self.process_id,
                new=child_id,
                lower=top.mbr.lower,
                upper=top.mbr.upper,
                child_count=len(top.children),
            )
        if is_root_here:
            self.oracle.set_root_hint(child_id)

    def handle_replace_child(self, message: Message) -> None:
        """Swap one child id for another after a cover exchange below."""
        level = int(message.payload["level"])
        instance = self.instances.get(level)
        if instance is None:
            return
        old = message.payload["old"]
        new = message.payload["new"]
        new_mbr = Rect(tuple(message.payload["lower"]),
                       tuple(message.payload["upper"]))
        instance.remove_child(old)
        instance.add_child(new, new_mbr,
                           int(message.payload.get("child_count", 0)),
                           self.round_number)
        instance.mbr = instance.computed_mbr(self.filter_rect)
