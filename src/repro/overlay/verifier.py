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
from typing import (Callable, Iterable, Iterator, List, Optional,
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


class _Illegal(Exception):
    """Raised by the first violation a legality-only walk records."""


class _FirstViolation(list):
    """A violation list that ends the walk instead of growing."""

    def append(self, violation: str) -> None:
        raise _Illegal


class OverlayVerifier:
    """Checks a set of DR-tree peers against the paper's legal-state definition."""

    def __init__(self, min_children: int, max_children: int) -> None:
        self.min_children = min_children
        self.max_children = max_children

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #

    def verify(self, peers: Sequence[DRTreePeer],
               check_containment: bool = False) -> VerificationReport:
        """Run every check on the live peers of ``peers``.

        ``check_containment`` additionally evaluates the containment-awareness
        properties 3.1 and 3.2; it is opt-in because building the containment
        graph is quadratic in the number of peers and the properties are not
        part of Definition 3.1's legality.
        """
        report = self._walk(peers, list)
        if check_containment and report.peer_count:
            live = [peer for peer in peers if peer.alive]
            self._check_containment_awareness(
                live, {peer.process_id: peer for peer in live}, report)
        return report

    def legal_report(self, peers: Sequence[DRTreePeer]
                     ) -> Optional[VerificationReport]:
        """:meth:`verify`'s report when ``peers`` are legal, else ``None``.

        The same walk, abandoned at the first violation: a caller that only
        acts on a legal configuration (the stabilize fixpoint) pays for an
        illegal one only up to the first fault it finds.
        """
        try:
            return self._walk(peers, _FirstViolation)
        except _Illegal:
            return None

    # ------------------------------------------------------------------ #
    # The walk
    # ------------------------------------------------------------------ #

    def _walk(self, peers: Sequence[DRTreePeer],
              violations: Callable[[], List[str]]) -> VerificationReport:
        """Check Definition 3.1 in one pass over the live peers.

        Each check appends to its own list, made by ``violations``, and the
        report concatenates them in a fixed order (root, membership, degrees,
        coherence, MBRs, cover, reachability): the order one pass per check
        would list them in.  After the walk, one descent from the root checks
        that every live peer is reachable from it.
        """
        live = [peer for peer in peers if peer.alive]
        report = VerificationReport(peer_count=len(live))
        if not live:
            return report
        by_id = {peer.process_id: peer for peer in live}
        membership, degrees, coherence = violations(), violations(), violations()
        mbrs, cover = violations(), violations()
        max_children, min_children = self.max_children, self.min_children
        several = len(live) > 1
        roots: List[str] = []
        max_degree = min_internal_degree = 0
        state_total = max_state_size = 0

        for peer in live:
            pid = peer.process_id
            instances = peer.instances
            joined = peer.joined
            if not joined:
                membership.append(f"{pid} has not joined")
            state_size = peer.state_size()
            state_total += state_size
            if state_size > max_state_size:
                max_state_size = state_size
            if not instances:
                continue
            top_level = max(instances)
            top_parent = instances[top_level].parent
            if joined and (top_parent is None or top_parent == pid):
                roots.append(pid)
            for level, instance in instances.items():
                children = instance.children
                parent = instance.parent
                mbr = instance.mbr
                if level:
                    degree = len(children)
                    if degree > max_degree:
                        max_degree = degree
                    if degree and (not min_internal_degree
                                   or degree < min_internal_degree):
                        min_internal_degree = degree
                    if degree > max_children:
                        degrees.append(f"{pid}@{level} has {degree} > M children")
                    if level == top_level and (parent == pid or parent is None):
                        if degree < 2 and several:
                            degrees.append(f"root {pid}@{level} has fewer than "
                                           f"2 children")
                    elif degree < min_children:
                        degrees.append(f"{pid}@{level} has {degree} < m children")
                elif (mbr.lower != peer.filter_rect.lower
                      or mbr.upper != peer.filter_rect.upper):
                    mbrs.append(f"leaf MBR of {pid} differs from its filter")
                # One look at each child serves coherence (it points back
                # here), the MBR (the union of the children's) and the cover
                # (no child covers the group better).
                rects: List[Rect] = []
                complete = True
                anchor = None
                for child_id in children:
                    child = by_id.get(child_id)
                    child_instance = (None if child is None
                                      else child.instances.get(level - 1))
                    if child_instance is None:
                        complete = False
                        if child_id == pid:
                            continue
                        if child is None:
                            coherence.append(
                                f"{pid}@{level} lists dead child {child_id}")
                        else:
                            coherence.append(
                                f"child {child_id} lacks an instance at level "
                                f"{level - 1}")
                        continue
                    child_mbr = child_instance.mbr
                    rects.append(child_mbr)
                    if child_id == pid:
                        continue
                    if child_instance.parent != pid:
                        coherence.append(
                            f"child {child_id}@{level - 1} has parent "
                            f"{child_instance.parent}, expected {pid}")
                    if level and child_mbr.contains_rect(mbr):
                        if anchor is None:
                            below = instances.get(level - 1)
                            anchor = (below.mbr.area() if below is not None
                                      else peer.filter_rect.area())
                        area = child_mbr.area()
                        if area > anchor and not math.isclose(area, anchor):
                            cover.append(f"child {child_id} covers better "
                                         f"than {pid}@{level}")
                if level and complete and rects:
                    union = Rect.union_of(rects)
                    if mbr.lower != union.lower or mbr.upper != union.upper:
                        mbrs.append(f"MBR of {pid}@{level} is not the union of "
                                    f"its children's MBRs")
                # The parent must list this peer as a child.
                if level == top_level and parent and parent != pid:
                    parent_peer = by_id.get(parent)
                    parent_instance = (None if parent_peer is None
                                       else parent_peer.instances.get(level + 1))
                    if parent_peer is None:
                        coherence.append(
                            f"{pid}@{level} has dead parent {parent}")
                    elif (parent_instance is None
                            or pid not in parent_instance.children):
                        coherence.append(
                            f"parent {parent} does not list {pid}@{level} "
                            f"as a child")

        root_violations = violations()
        if len(roots) != 1:
            root_violations.append(
                f"expected exactly one root, found {sorted(roots)}")
        if roots:
            report.root = min(roots)
        reachability = violations()
        if len(roots) == 1:
            self._check_reachability(by_id[roots[0]], by_id, reachability,
                                     report)
        report.violations = (root_violations + membership + degrees
                             + coherence + mbrs + cover + reachability)
        report.max_degree = max_degree
        report.min_internal_degree = min_internal_degree
        report.mean_state_size = state_total / len(live)
        report.max_state_size = max_state_size
        return report

    def _check_reachability(self, root, by_id, violations: List[str],
                            report: VerificationReport) -> None:
        """Every live peer is reached by descending from ``root``.

        Children sit one level below their parent, so the descent goes level
        by level: one frontier of live ids per level, deduplicated by the set
        itself, stands in for a visited set of ``(peer, level)`` pairs.
        """
        reached: Set[str] = set()
        frontier: Set[str] = {root.process_id}
        level = root.top_level()
        while frontier:
            frontier &= by_id.keys()
            reached |= frontier
            if level == 0:
                break
            below: Set[str] = set()
            for peer_id in frontier:
                instance = by_id[peer_id].instances.get(level)
                if instance is not None:
                    below.update(instance.children)
            frontier = below
            level -= 1
        unreachable = by_id.keys() - reached
        if unreachable:
            violations.append(
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

    ``peers()`` is read once per iteration.  The verifier runs only where
    its answer is read.  When the signature repeats, only legality matters:
    :meth:`OverlayVerifier.legal_report` walks the peers and gives up at the
    first violation (an orphan still waiting out ``parent_silence_rounds``
    costs a few peers' worth of checks, not a full pass), and a legal state
    gets the full report from that same walk.  At the round cap the full
    :meth:`OverlayVerifier.verify` runs, illegal or not.  Afterwards
    :attr:`report` verifies the state the loop leaves, and
    ``stabilize.rounds`` in ``metrics`` holds the rounds run.
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
                report = self._verifier.legal_report(peers)
                if report is not None:
                    self.report = report
                    break
            previous_signature = signature
            yield
            rounds += 1
        self._metrics.observe("stabilize.rounds", rounds)
