"""Global legality checking (Definitions 3.1 and 3.2).

The verifier inspects the state of every live peer and decides whether the
configuration is *legitimate*: the virtual structure defined by the parent
variables and the children sets is a legal DR-tree.  It also evaluates the
containment-awareness properties (3.1 and 3.2) and collects structural
statistics (height, degree distribution, state size) used by the experiments.

The verifier is an omniscient observer — it reads peer state directly and is
never part of the protocol.  The stabilize fixpoint every DR-tree engine runs
(:class:`StabilizeFixpoint`, over :func:`structure_signature`) lives here
too, because deciding "converged" is the verifier's question.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro.overlay.peer import DRTreePeer
from repro.sim.metrics import MetricsRegistry
from repro.spatial.containment import ContainmentGraph
from repro.spatial.rectangle import Rect


@dataclass
class VerificationReport:
    """Outcome of one verification pass."""

    violations: List[str] = field(default_factory=list)
    #: Violations of the *weak* containment awareness property (3.1).
    weak_containment_violations: List[str] = field(default_factory=list)
    #: Violations of the *strong* containment awareness property (3.2); the
    #: paper admits these can occasionally occur, so they are reported
    #: separately and do not make the configuration illegal.
    strong_containment_violations: List[str] = field(default_factory=list)
    root: Optional[str] = None
    height: int = 0
    peer_count: int = 0
    max_degree: int = 0
    min_internal_degree: int = 0
    mean_state_size: float = 0.0
    max_state_size: int = 0

    @property
    def is_legal(self) -> bool:
        """True when Definition 3.1 holds (ignoring containment-awareness)."""
        return not self.violations

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "LEGAL" if self.is_legal else f"{len(self.violations)} violations"
        return (
            f"peers={self.peer_count} root={self.root} height={self.height} "
            f"max_degree={self.max_degree} status={status}"
        )


class OverlayVerifier:
    """Checks a set of DR-tree peers against the paper's legal-state definition."""

    def __init__(self, min_children: int, max_children: int) -> None:
        self.min_children = min_children
        self.max_children = max_children

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #

    def verify(self, peers: Sequence[DRTreePeer],
               check_containment: bool = False) -> VerificationReport:
        """Run every check on the live peers of ``peers``.

        ``check_containment`` additionally evaluates the containment-awareness
        properties 3.1 and 3.2; it is opt-in because building the containment
        graph is quadratic in the number of peers and the properties are not
        part of Definition 3.1's legality.
        """
        live = [peer for peer in peers if peer.alive]
        report = VerificationReport(peer_count=len(live))
        if not live:
            return report
        by_id = {peer.process_id: peer for peer in live}

        roots = self._find_roots(live)
        if len(roots) != 1:
            report.violations.append(
                f"expected exactly one root, found {sorted(roots)}"
            )
        if roots:
            report.root = sorted(roots)[0]

        self._check_membership(live, by_id, report)
        self._check_degrees(live, report)
        self._check_coherence(live, by_id, report)
        self._check_mbrs(live, by_id, report)
        self._check_cover(live, by_id, report)
        self._check_reachability_and_balance(live, by_id, report)
        if check_containment:
            self._check_containment_awareness(live, by_id, report)
        self._collect_stats(live, report)
        return report

    # ------------------------------------------------------------------ #
    # Individual checks
    # ------------------------------------------------------------------ #

    def _find_roots(self, live: Sequence[DRTreePeer]) -> Set[str]:
        roots: Set[str] = set()
        for peer in live:
            if not peer.instances:
                continue
            top = peer.top_instance()
            if peer.joined and (top.parent is None or top.parent == peer.process_id):
                roots.add(peer.process_id)
        return roots

    def _check_membership(self, live, by_id, report: VerificationReport) -> None:
        for peer in live:
            if not peer.joined:
                report.violations.append(f"{peer.process_id} has not joined")

    def _check_degrees(self, live, report: VerificationReport) -> None:
        for peer in live:
            for level, instance in peer.instances.items():
                if level == 0:
                    continue
                degree = len(instance.children)
                is_root_instance = (
                    level == peer.top_level()
                    and (instance.parent == peer.process_id or instance.parent is None)
                )
                if degree > self.max_children:
                    report.violations.append(
                        f"{peer.process_id}@{level} has {degree} > M children"
                    )
                if is_root_instance:
                    if degree < 2 and report.peer_count > 1:
                        report.violations.append(
                            f"root {peer.process_id}@{level} has fewer than 2 children"
                        )
                elif degree < self.min_children:
                    report.violations.append(
                        f"{peer.process_id}@{level} has {degree} < m children"
                    )

    def _check_coherence(self, live, by_id, report: VerificationReport) -> None:
        for peer in live:
            for level, instance in peer.instances.items():
                # Children must point back at this peer.
                for child_id in instance.children:
                    if child_id == peer.process_id:
                        continue
                    child = by_id.get(child_id)
                    if child is None or not child.alive:
                        report.violations.append(
                            f"{peer.process_id}@{level} lists dead child {child_id}"
                        )
                        continue
                    child_instance = child.instances.get(level - 1)
                    if child_instance is None:
                        report.violations.append(
                            f"child {child_id} lacks an instance at level {level - 1}"
                        )
                    elif child_instance.parent != peer.process_id:
                        report.violations.append(
                            f"child {child_id}@{level - 1} has parent "
                            f"{child_instance.parent}, expected {peer.process_id}"
                        )
                # The parent must list this peer as a child.
                if level == peer.top_level():
                    parent_id = instance.parent
                    if parent_id and parent_id != peer.process_id:
                        parent = by_id.get(parent_id)
                        if parent is None or not parent.alive:
                            report.violations.append(
                                f"{peer.process_id}@{level} has dead parent {parent_id}"
                            )
                            continue
                        parent_instance = parent.instances.get(level + 1)
                        if (parent_instance is None
                                or peer.process_id not in parent_instance.children):
                            report.violations.append(
                                f"parent {parent_id} does not list "
                                f"{peer.process_id}@{level} as a child"
                            )

    def _check_mbrs(self, live, by_id, report: VerificationReport) -> None:
        for peer in live:
            for level, instance in peer.instances.items():
                if level == 0:
                    if instance.mbr.as_tuple() != peer.filter_rect.as_tuple():
                        report.violations.append(
                            f"leaf MBR of {peer.process_id} differs from its filter"
                        )
                    continue
                expected = self._true_child_union(peer, level, by_id)
                if expected is None:
                    continue
                if instance.mbr.as_tuple() != expected.as_tuple():
                    report.violations.append(
                        f"MBR of {peer.process_id}@{level} is not the union of its "
                        f"children's MBRs"
                    )

    def _true_child_union(self, peer: DRTreePeer, level: int, by_id
                          ) -> Optional[Rect]:
        rects: List[Rect] = []
        instance = peer.instances[level]
        for child_id in instance.children:
            child = by_id.get(child_id)
            if child is None:
                return None
            child_instance = child.instances.get(level - 1)
            if child_instance is None:
                return None
            rects.append(child_instance.mbr)
        if not rects:
            return None
        return Rect.union_of(rects)

    def _check_cover(self, live, by_id, report: VerificationReport) -> None:
        """No child may offer a strictly better cover for the whole group.

        Mirrors the protocol's CHECK_COVER interpretation (see
        ``repro.overlay.stabilization.StabilizationMixin.check_cover``): a
        violation is a child whose subtree MBR covers the node's entire MBR
        while being strictly larger than the node's own subtree below that
        level — the configuration the cover exchange would still change.
        """
        for peer in live:
            for level, instance in peer.instances.items():
                if level == 0:
                    continue
                below = peer.instances.get(level - 1)
                anchor = below.mbr.area() if below else peer.filter_rect.area()
                for child_id in instance.children:
                    if child_id == peer.process_id:
                        continue
                    child = by_id.get(child_id)
                    if child is None:
                        continue
                    child_instance = child.instances.get(level - 1)
                    if child_instance is None:
                        continue
                    child_mbr = child_instance.mbr
                    if not child_mbr.contains_rect(instance.mbr):
                        continue
                    if child_mbr.area() > anchor and not math.isclose(
                        child_mbr.area(), anchor
                    ):
                        report.violations.append(
                            f"child {child_id} covers better than "
                            f"{peer.process_id}@{level}"
                        )

    def _check_reachability_and_balance(self, live, by_id,
                                        report: VerificationReport) -> None:
        roots = self._find_roots(live)
        if len(roots) != 1:
            return
        root = by_id[next(iter(roots))]
        reached: Set[str] = set()
        leaf_levels: Set[int] = set()
        stack: List[Tuple[str, int]] = [(root.process_id, root.top_level())]
        visited: Set[Tuple[str, int]] = set()
        while stack:
            peer_id, level = stack.pop()
            if (peer_id, level) in visited:
                continue
            visited.add((peer_id, level))
            peer = by_id.get(peer_id)
            if peer is None:
                continue
            reached.add(peer_id)
            instance = peer.instances.get(level)
            if instance is None:
                continue
            if level == 0:
                leaf_levels.add(0)
                continue
            for child_id in instance.children:
                stack.append((child_id, level - 1))
        unreachable = {p.process_id for p in live} - reached
        if unreachable:
            report.violations.append(
                f"{len(unreachable)} peers unreachable from the root: "
                f"{sorted(unreachable)[:5]}..."
                if len(unreachable) > 5
                else f"peers unreachable from the root: {sorted(unreachable)}"
            )
        report.height = root.top_level() + 1

    def _check_containment_awareness(self, live, by_id,
                                     report: VerificationReport) -> None:
        """Properties 3.1 (weak) and 3.2 (strong) on the topmost instances."""
        if not live:
            return
        graph = ContainmentGraph.build([peer.subscription for peer in live])
        name_to_id = {peer.subscription.name: peer.process_id for peer in live}
        ancestors = {
            peer.process_id: self._ancestor_ids(peer, by_id) for peer in live
        }
        for container_name, containee_name in graph.containment_pairs():
            container_id = name_to_id.get(container_name)
            containee_id = name_to_id.get(containee_name)
            if container_id is None or containee_id is None:
                continue
            # Weak (3.1): the containee must not be an ancestor of the container.
            if containee_id in ancestors[container_id]:
                report.weak_containment_violations.append(
                    f"{containee_name} (containee) is an ancestor of "
                    f"{container_name} (container)"
                )
            # Strong (3.2): the container (or a sibling container) should be an
            # ancestor or sibling of the containee.
            if container_id not in ancestors[containee_id]:
                containee_peer = by_id[containee_id]
                parent = containee_peer.top_instance().parent
                container_parent = by_id[container_id].top_instance().parent
                is_sibling = parent is not None and parent == container_parent
                if not is_sibling:
                    report.strong_containment_violations.append(
                        f"{container_name} is neither ancestor nor sibling of "
                        f"{containee_name}"
                    )

    def _ancestor_ids(self, peer: DRTreePeer, by_id) -> Set[str]:
        """Peers encountered on the path from ``peer``'s topmost instance to the root."""
        ancestors: Set[str] = set()
        current = peer
        level = current.top_level()
        seen: Set[Tuple[str, int]] = set()
        while True:
            instance = current.instances.get(level)
            if instance is None:
                break
            parent_id = instance.parent
            if (parent_id is None or parent_id == current.process_id
                    or (parent_id, level + 1) in seen):
                break
            seen.add((parent_id, level + 1))
            ancestors.add(parent_id)
            current = by_id.get(parent_id)
            if current is None:
                break
            level = level + 1
        return ancestors

    def _collect_stats(self, live, report: VerificationReport) -> None:
        degrees = [
            len(instance.children)
            for peer in live
            for level, instance in peer.instances.items()
            if level > 0
        ]
        internal_degrees = [d for d in degrees if d > 0]
        state_sizes = [peer.state_size() for peer in live]
        report.max_degree = max(degrees) if degrees else 0
        report.min_internal_degree = min(internal_degrees) if internal_degrees else 0
        report.mean_state_size = (
            sum(state_sizes) / len(state_sizes) if state_sizes else 0.0
        )
        report.max_state_size = max(state_sizes) if state_sizes else 0


def structure_signature(peers: Iterable[DRTreePeer]) -> tuple:
    """A hashable snapshot of the overlay's logical structure.

    One entry per peer instance: its parent pointer and its children.  Two
    equal consecutive signatures mean the round between them performed no
    structural repair (only cache refreshes).  Reads ``process_id`` and
    ``instances`` only, so live peers and the sharded coordinator's merged
    peer views give the same answer for the same structure.
    """
    return tuple(sorted(
        (peer.process_id, level, instance.parent, tuple(instance.child_ids()))
        for peer in peers
        for level, instance in peer.instances.items()))


class StabilizeFixpoint:
    """The stabilize loop of every DR-tree engine, minus the round itself.

    Iterating yields once per synchronized round the caller must run (every
    live peer's stabilization round, then settle), until a round leaves
    :func:`structure_signature` unchanged on a legal configuration — a pure
    refresh, after which every parent's cached view of its children is
    current and dissemination is loss-free — or ``max_rounds`` have run.
    A repeated signature alone is not convergence: orphans of a crashed
    parent count missed PARENT_ACKs over quiet rounds before re-joining.
    The first signature has nothing to repeat, so even a legal tree gets
    one refresh round.

    ``peers()`` is read once per iteration.  The verifier, a full pass, runs
    only where its answer is read: when the signature repeats, and at the
    round cap.  Afterwards :attr:`report` verifies the state the loop
    leaves, and ``stabilize.rounds`` in ``metrics`` holds the rounds run.
    """

    def __init__(self, peers: Callable[[], Sequence[DRTreePeer]],
                 verifier: OverlayVerifier, max_rounds: int,
                 metrics: MetricsRegistry) -> None:
        self._peers = peers
        self._verifier = verifier
        self._max_rounds = max_rounds
        self._metrics = metrics
        self.report: Optional[VerificationReport] = None

    def __iter__(self) -> Iterator[None]:
        rounds = 0
        previous_signature = None
        while True:
            peers = self._peers()
            if rounds >= self._max_rounds:
                self.report = self._verifier.verify(peers)
                break
            signature = structure_signature(peers)
            if signature == previous_signature:
                report = self._verifier.verify(peers)
                if report.is_legal:
                    self.report = report
                    break
            previous_signature = signature
            yield
            rounds += 1
        self._metrics.observe("stabilize.rounds", rounds)
