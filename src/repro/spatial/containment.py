"""Subscription containment relation and containment graph.

Section 2.1: subscription ``S1`` *contains* ``S2`` (written ``S1 ⊒ S2``) iff
any message matching ``S2`` also matches ``S1``.  The relation is transitive
and defines a partial order; Figure 1 (right) shows the containment graph of
the running example.

The :class:`ContainmentGraph` is used by

* the containment-awareness properties (3.1 and 3.2) checked by
  :mod:`repro.overlay.verifier`,
* the containment-tree baseline (:mod:`repro.baselines.containment_tree`),
* workload statistics in the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Mapping, Protocol, Sequence, Set,
                    Tuple, TYPE_CHECKING)

from repro.spatial.filters import Subscription

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spatial.rectangle import Rect


class HasMbr(Protocol):
    """Anything exposing a minimum bounding rectangle."""

    mbr: "Rect"


def contains(container: Subscription, containee: Subscription) -> bool:
    """True if ``container ⊒ containee`` (strictly or as equal rectangles)."""
    return container.contains(containee)


def child_ids_containing_point(
    children: "Mapping[str, HasMbr]",
    point: Sequence[float],
    exclude: str | None = None,
) -> List[str]:
    """One containment pass over a child MBR list.

    ``children`` maps child ids to entries exposing an ``mbr`` rectangle (a
    DR-tree instance's children, or any mapping of objects with an ``mbr``
    attribute); the result lists, in iteration order, the ids whose MBR
    contains ``point``, skipping ``exclude``.  Semantically this equals
    ``[i for i, c in children.items() if i != exclude and
    c.mbr.contains_point(point)]`` but fuses the pass into one loop with the
    bound checks inlined — it runs once per dissemination fan-out instead of
    once per child message.  Bounds are inclusive, matching
    :meth:`repro.spatial.rectangle.Rect.contains_point`; the caller
    guarantees that the point and every rectangle share one dimensionality.
    """
    # A Point already carries its coordinate tuple; avoid copying it.
    coords = getattr(point, "coords", None)
    if coords is None:
        coords = tuple(point)
    matching: List[str] = []
    if len(coords) == 2:
        # The common case (two-attribute workloads): unrolled bound checks.
        x, y = coords
        for name, child in children.items():
            if name == exclude:
                continue
            mbr = child.mbr
            lower = mbr.lower
            upper = mbr.upper
            if lower[0] <= x <= upper[0] and lower[1] <= y <= upper[1]:
                matching.append(name)
        return matching
    for name, child in children.items():
        if name == exclude:
            continue
        mbr = child.mbr
        for coord, low, high in zip(coords, mbr.lower, mbr.upper):
            if coord < low or coord > high:
                break
        else:
            matching.append(name)
    return matching


def is_comparable(first: Subscription, second: Subscription) -> bool:
    """True if the two subscriptions are ordered by containment either way."""
    return first.contains(second) or second.contains(first)


@dataclass
class ContainmentGraph:
    """The DAG of direct containment relationships between subscriptions.

    An edge ``container -> containee`` is *direct* when no third subscription
    lies strictly between the two.  Roots are the subscriptions not contained
    in any other subscription.
    """

    subscriptions: List[Subscription] = field(default_factory=list)
    _children: Dict[str, Set[str]] = field(default_factory=dict)
    _parents: Dict[str, Set[str]] = field(default_factory=dict)
    _by_name: Dict[str, Subscription] = field(default_factory=dict)

    @classmethod
    def build(cls, subscriptions: Iterable[Subscription]) -> "ContainmentGraph":
        """Build the containment graph of ``subscriptions``.

        The construction is quadratic in the number of subscriptions, which is
        fine for the workload sizes used in the experiments (the graph is an
        analysis artefact, not part of the distributed protocol).
        """
        graph = cls()
        for subscription in subscriptions:
            graph._insert(subscription)
        graph._recompute_edges()
        return graph

    def add(self, subscription: Subscription) -> None:
        """Insert a subscription and recompute its direct edges."""
        self._insert(subscription)
        self._recompute_edges()

    def _insert(self, subscription: Subscription) -> None:
        if subscription.name in self._by_name:
            raise ValueError(f"duplicate subscription name {subscription.name!r}")
        self.subscriptions.append(subscription)
        self._by_name[subscription.name] = subscription
        self._children.setdefault(subscription.name, set())
        self._parents.setdefault(subscription.name, set())

    def _recompute_edges(self) -> None:
        names = [s.name for s in self.subscriptions]
        subs = self._by_name
        ancestors: Dict[str, Set[str]] = {name: set() for name in names}
        for name in names:
            for other in names:
                if name == other:
                    continue
                if subs[other].contains(subs[name]) and not subs[name].contains(
                    subs[other]
                ):
                    ancestors[name].add(other)
        self._children = {name: set() for name in names}
        self._parents = {name: set() for name in names}
        for name in names:
            # Direct parents: ancestors that are not ancestors of another ancestor.
            direct = set(ancestors[name])
            for candidate in ancestors[name]:
                for other in ancestors[name]:
                    if candidate == other:
                        continue
                    if candidate in ancestors[other]:
                        direct.discard(candidate)
                        break
            for parent in direct:
                self._children[parent].add(name)
                self._parents[name].add(parent)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def subscription(self, name: str) -> Subscription:
        """Look up a subscription by name."""
        return self._by_name[name]

    def children(self, name: str) -> Set[str]:
        """Direct containees of subscription ``name``."""
        return set(self._children[name])

    def parents(self, name: str) -> Set[str]:
        """Direct containers of subscription ``name``."""
        return set(self._parents[name])

    def roots(self) -> List[str]:
        """Subscriptions not contained in any other subscription."""
        return sorted(name for name, parents in self._parents.items() if not parents)

    def ancestors(self, name: str) -> Set[str]:
        """All (transitive) containers of subscription ``name``."""
        result: Set[str] = set()
        frontier = list(self._parents[name])
        while frontier:
            current = frontier.pop()
            if current in result:
                continue
            result.add(current)
            frontier.extend(self._parents[current])
        return result

    def descendants(self, name: str) -> Set[str]:
        """All (transitive) containees of subscription ``name``."""
        result: Set[str] = set()
        frontier = list(self._children[name])
        while frontier:
            current = frontier.pop()
            if current in result:
                continue
            result.add(current)
            frontier.extend(self._children[current])
        return result

    def edges(self) -> List[Tuple[str, str]]:
        """All direct ``(container, containee)`` edges, sorted."""
        return sorted(
            (parent, child)
            for parent, children in self._children.items()
            for child in children
        )

    def containment_pairs(self) -> List[Tuple[str, str]]:
        """All (transitive) ``(container, containee)`` pairs, sorted."""
        pairs = []
        for subscription in self.subscriptions:
            for descendant in self.descendants(subscription.name):
                pairs.append((subscription.name, descendant))
        return sorted(pairs)

    def depth(self) -> int:
        """Length of the longest containment chain (roots have depth 1)."""
        memo: Dict[str, int] = {}

        def chain(name: str) -> int:
            if name in memo:
                return memo[name]
            children = self._children[name]
            value = 1 if not children else 1 + max(chain(child) for child in children)
            memo[name] = value
            return value

        if not self.subscriptions:
            return 0
        return max(chain(root) for root in self.roots())

    def __len__(self) -> int:
        return len(self.subscriptions)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name
