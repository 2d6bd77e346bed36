"""Bulk bootstrap: lay out a legal DR-tree directly (STR fast path).

Joining ``N`` subscribers one at a time through the join protocol costs
``O(N)`` message cascades and makes multi-thousand-peer scenarios
impractically slow.  For *initial construction* nothing in the paper requires
the join protocol: any legal configuration (Definition 3.1) is a valid
starting point, and the protocols only have to maintain/repair it.

This module builds such a configuration in ``O(N log N)``:

1. compute the tree's shape with :func:`repro.overlay.layout.compute_layout`
   — STR-tile the subscription rectangles
   (:func:`repro.rtree.bulk.str_groups`) into groups of at most ``M`` (and,
   because groups are balanced, at least ``m``) members, elect each group's
   parent with the paper's election rule (largest MBR wins, Figure 6), and
   repeat on the group parents until a single root remains;
2. wire the peers from that layout with :func:`wire_layout` — parent
   pointers, children sets with fresh cached MBRs/counts, ``joined`` flags,
   oracle membership and root hint.

The peers come out fully wired, so dissemination works immediately and the
first stabilization round is a pure refresh.  The verifier accepts the
configuration by construction.  Because the layout is plain data computed
from ``(id, rectangle)`` pairs alone, the sharded simulator
(:mod:`repro.sim.sharded`) reuses the exact same two steps with the wiring
split across worker processes — every shard wires its slice of the one
global layout, so the distributed overlay is node-for-node identical to the
single-process one.

Callers normally do not use this module directly:
:func:`repro.overlay.builder.build_stable_tree` and
:meth:`repro.pubsub.api.PubSubSystem.subscribe_all` switch to it
automatically at :data:`BULK_THRESHOLD` peers (``bulk=True`` forces it,
``bulk=False`` forces the join protocol).  The fast path requires an empty
simulation — it lays a tree out from scratch and cannot graft onto an
existing one.  See ``docs/architecture.md`` ("Construction paths").
"""

from __future__ import annotations

from typing import Mapping, Sequence, Set, TYPE_CHECKING

from repro.overlay.layout import TreeLayout, compute_layout
from repro.overlay.state import LevelState
from repro.spatial.filters import Subscription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.overlay.builder import DRTreeSimulation
    from repro.overlay.config import DRTreeConfig
    from repro.overlay.peer import DRTreePeer

#: ``build_stable_tree`` switches to the bulk path at this population.
BULK_THRESHOLD = 512


def bootstrap_overlay(sim: "DRTreeSimulation",
                      subscriptions: Sequence[Subscription]) -> None:
    """Create one peer per subscription and wire them into a legal DR-tree."""
    if not subscriptions:
        return
    layout = compute_layout([(sub.name, sub.rect) for sub in subscriptions],
                            sim.config)
    install_layout(sim, subscriptions, layout)


def install_layout(sim: "DRTreeSimulation",
                   subscriptions: Sequence[Subscription],
                   layout: TreeLayout) -> None:
    """Create the peers of ``subscriptions`` and wire them from ``layout``.

    ``subscriptions`` are the layout's leaves or, on a shard of the sharded
    simulator, the slice of them it owns.  Either way the oracle ends up
    holding what the single-process bootstrap gives it — the whole
    population as members and the layout's root as hint — so every shard
    starts from the same replica.
    """
    peers = [sim.add_peer(subscription, join=False)
             for subscription in subscriptions]
    for peer in peers:
        peer.ensure_leaf_instance()
    if not layout.levels:
        # Degenerate overlay: a single-leaf root.
        for peer in peers:
            peer.start_join()
        return
    wire_layout(sim.peers, layout, sim.config,
                {peer.process_id for peer in peers})
    for peer in peers:
        peer.joined = True
    for peer_id, _ in layout.leaves:
        sim.oracle.add_member(peer_id)
    sim.oracle.set_root_hint(layout.root_id)


def wire_layout(peers: Mapping[str, "DRTreePeer"], layout: TreeLayout,
                config: "DRTreeConfig", local: Set[str]) -> None:
    """Apply a computed layout to the live peers named in ``local``.

    ``local`` is every peer of the layout on one process, or a sharded
    simulator worker's own peers.  Peers outside it are never touched — a
    group whose parent is remote still wires its local children's parent
    pointers, and vice versa, so the union of the per-shard wirings equals
    the full single-process wiring.
    """
    for level_groups in layout.levels:
        for group in level_groups:
            level = group.child_level
            if group.parent in local:
                parent = peers[group.parent]
                state = LevelState(level=level + 1, mbr=group.mbr)
                for child_id, child_mbr, child_count in group.members:
                    state.add_child(child_id, child_mbr, child_count,
                                    parent.round_number)
                state.underloaded = len(state.children) < config.min_children
                state.parent = group.parent
                parent.instances[level + 1] = state
            for child_id, _, _ in group.members:
                if child_id in local:
                    child_instance = peers[child_id].instances[level]
                    child_instance.parent = group.parent
                    child_instance.parent_confirmed = True
                    child_instance.missed_parent_acks = 0
    for (peer_id, level), distance in layout.root_distances().items():
        if peer_id in local:
            instance = peers[peer_id].instances.get(level)
            if instance is not None:
                instance.root_distance = distance
