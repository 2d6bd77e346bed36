"""Content-based filters (subscriptions) and events.

Section 2.1 of the paper defines a content-based filter as a conjunction of
predicates over named attributes, ``S = f1 ∧ ... ∧ fj`` with
``fi = (name, op, value)``.  The paper focuses on *complex filters*: the
conjunction of two or more range predicates, which geometrically define
poly-space rectangles.  An event assigns a value to every attribute and
corresponds to a point.

This module provides:

* :class:`Predicate` — a single ``(attribute, operator, value)`` triple,
* :class:`Subscription` — a conjunction of predicates with a rectangle view,
* :class:`Event` — a message carrying attribute/value pairs,
* :class:`AttributeSpace` — the ordered attribute universe used to map
  subscriptions and events to geometric objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

from repro.spatial.rectangle import Point, Rect

#: Operators supported for numeric attributes (Section 2.1).
SUPPORTED_OPERATORS = ("=", "<", ">", "<=", ">=")


@dataclass(frozen=True)
class Predicate:
    """A single attribute predicate ``(name op value)``.

    Examples: ``Predicate("price", "<", 100)``, ``Predicate("size", "=", 5)``.
    """

    attribute: str
    operator: str
    value: float

    def __post_init__(self) -> None:
        if self.operator not in SUPPORTED_OPERATORS:
            raise ValueError(
                f"unsupported operator {self.operator!r}; "
                f"expected one of {SUPPORTED_OPERATORS}"
            )

    def matches(self, value: float) -> bool:
        """Evaluate the predicate against a concrete attribute value."""
        if self.operator == "=":
            return value == self.value
        if self.operator == "<":
            return value < self.value
        if self.operator == ">":
            return value > self.value
        if self.operator == "<=":
            return value <= self.value
        return value >= self.value

    def interval(self) -> Tuple[float, float]:
        """The half-open interval of values accepted by the predicate.

        Strict and non-strict comparisons map to the same closed interval;
        this matches the geometric treatment in the paper, where filters are
        circumscribed by closed rectangles.
        """
        if self.operator == "=":
            return (self.value, self.value)
        if self.operator in ("<", "<="):
            return (-math.inf, self.value)
        return (self.value, math.inf)


@dataclass(frozen=True)
class AttributeSpace:
    """An ordered universe of attribute names.

    The DR-tree works on rectangles, so subscriptions and events expressed on
    named attributes must agree on a dimension order.  An ``AttributeSpace``
    fixes that order and provides the conversions.
    """

    names: Tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in {names}")
        if not names:
            raise ValueError("an attribute space needs at least one attribute")
        object.__setattr__(self, "names", names)

    @property
    def dimensions(self) -> int:
        """Number of attributes (dimensions)."""
        return len(self.names)

    def index(self, name: str) -> int:
        """Dimension index of attribute ``name``."""
        return self.names.index(name)

    def event_to_point(self, event: "Event") -> Point:
        """Map an event to its point in this attribute space.

        Raises ``KeyError`` if the event does not define every attribute, as
        the paper's model requires ("an event specifies a value for each
        attribute").
        """
        return Point(*(event.attributes[name] for name in self.names))

    def rect_for(self, intervals: Mapping[str, Tuple[float, float]]) -> Rect:
        """Build a rectangle from per-attribute intervals.

        Attributes not present in ``intervals`` are unbounded, mirroring the
        paper's convention for undefined attributes.
        """
        lower = []
        upper = []
        for name in self.names:
            low, high = intervals.get(name, (-math.inf, math.inf))
            lower.append(low)
            upper.append(high)
        return Rect(tuple(lower), tuple(upper))


@dataclass(frozen=True)
class Event:
    """A published message: a set of attributes with associated values."""

    attributes: Mapping[str, float]
    event_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", dict(self.attributes))

    def value(self, name: str) -> float:
        """Value of attribute ``name``."""
        return self.attributes[name]

    def to_point(self, space: AttributeSpace) -> Point:
        """Geometric representation of the event in ``space``."""
        return space.event_to_point(self)

    def __hash__(self) -> int:
        return hash((self.event_id, tuple(sorted(self.attributes.items()))))


@dataclass(frozen=True)
class Subscription:
    """A content-based filter: a conjunction of range predicates.

    A subscription is identified by ``name`` (e.g. ``"S1"``) and stores both
    its predicate form and its rectangle form.  The rectangle is the
    circumscribing poly-space rectangle used by the DR-tree; matching an event
    is done against the predicates (semantics) and against the rectangle
    (geometry) — the two coincide for the closed range filters considered by
    the paper.
    """

    name: str
    space: AttributeSpace
    predicates: Tuple[Predicate, ...] = ()
    rect: Rect = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        predicates = tuple(self.predicates)
        object.__setattr__(self, "predicates", predicates)
        if self.rect is None:
            object.__setattr__(self, "rect", self._rect_from_predicates())
        if self.rect.dimensions != self.space.dimensions:
            raise ValueError(
                "subscription rectangle dimensionality does not match the "
                f"attribute space: {self.rect.dimensions} != {self.space.dimensions}"
            )

    def _rect_from_predicates(self) -> Rect:
        intervals: Dict[str, Tuple[float, float]] = {}
        for predicate in self.predicates:
            low, high = predicate.interval()
            if predicate.attribute in intervals:
                old_low, old_high = intervals[predicate.attribute]
                low, high = max(low, old_low), min(high, old_high)
                if low > high:
                    raise ValueError(
                        f"contradictory predicates on {predicate.attribute!r}"
                    )
            intervals[predicate.attribute] = (low, high)
        unknown = set(intervals) - set(self.space.names)
        if unknown:
            raise ValueError(f"predicates on unknown attributes: {sorted(unknown)}")
        return self.space.rect_for(intervals)

    # ------------------------------------------------------------------ #
    # Matching and containment
    # ------------------------------------------------------------------ #

    def matches(self, event: Event) -> bool:
        """True if the event satisfies every predicate of the subscription.

        When the subscription was built directly from a rectangle (no
        predicate list), matching falls back to geometric containment.
        """
        if self.predicates:
            try:
                return all(
                    predicate.matches(event.value(predicate.attribute))
                    for predicate in self.predicates
                )
            except KeyError:
                return False
        try:
            point = event.to_point(self.space)
        except KeyError:
            return False
        return self.rect.contains_point(point)

    def matches_point(self, event: Event, point: Point) -> bool:
        """Exactly :meth:`matches`, with the event's point precomputed.

        The dissemination payload carries each event's point alongside the
        event, so rectangle-built subscriptions (no predicate list) can
        test containment directly instead of rebuilding the point per
        reception.  Predicate-built subscriptions fall back to the full
        predicate evaluation — the two forms only provably coincide for the
        rectangle form, and this method must never change a match outcome.
        """
        if self.predicates:
            return self.matches(event)
        rect = self.rect
        coords = point.coords
        if len(coords) == 2:
            lower = rect.lower
            upper = rect.upper
            return (lower[0] <= coords[0] <= upper[0]
                    and lower[1] <= coords[1] <= upper[1])
        for coord, low, high in zip(coords, rect.lower, rect.upper):
            if coord < low or coord > high:
                return False
        return True

    def contains(self, other: "Subscription") -> bool:
        """Subscription containment: ``self ⊒ other``.

        Every event matching ``other`` also matches ``self``.  For the range
        filters of the paper this coincides with rectangle containment.
        """
        return self.rect.contains_rect(other.rect)

    def area(self) -> float:
        """Area of the subscription's rectangle."""
        return self.rect.area()

    def __hash__(self) -> int:
        return hash((self.name, self.rect.lower, self.rect.upper))

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"Subscription({self.name}, {self.rect!r})"


def subscription_from_rect(
    name: str, space: AttributeSpace, rect: Rect
) -> Subscription:
    """Build a subscription directly from its rectangle representation.

    Workload generators produce rectangles; this helper wraps them into
    subscriptions without synthesizing predicate lists.
    """
    return Subscription(name=name, space=space, predicates=(), rect=rect)


def subscription_from_intervals(
    name: str,
    space: AttributeSpace,
    intervals: Mapping[str, Tuple[float, float]],
) -> Subscription:
    """Build a subscription from per-attribute ``(low, high)`` intervals."""
    predicates = []
    for attr, (low, high) in intervals.items():
        if low == high:
            predicates.append(Predicate(attr, "=", low))
            continue
        if low != -math.inf:
            predicates.append(Predicate(attr, ">=", low))
        if high != math.inf:
            predicates.append(Predicate(attr, "<=", high))
    return Subscription(name=name, space=space, predicates=tuple(predicates))


def make_space(*names: str) -> AttributeSpace:
    """Convenience constructor for an :class:`AttributeSpace`."""
    return AttributeSpace(tuple(names))


def ensure_same_space(space: AttributeSpace,
                      subscription: "Subscription") -> None:
    """Raise if ``subscription`` was built over a different attribute space.

    The one guard (and error message) every broker backend uses, so a
    mismatched filter fails identically on the DR-tree facade and on every
    baseline overlay.
    """
    if subscription.space.names != space.names:
        raise ValueError(
            "subscription attribute space does not match the system's"
        )


def ensure_unique_names(subscriptions: Iterable["Subscription"]) -> None:
    """Raise if a subscription batch reuses a name within itself.

    The per-subscription registration checks only see names already in the
    system, so duplicates *within* one ``subscribe_all`` batch need this
    upfront guard — shared by both broker families so the call raises
    identically (and before any subscriber is registered) everywhere.
    """
    seen: set = set()
    for subscription in subscriptions:
        if subscription.name in seen:
            raise ValueError(
                f"duplicate subscription name {subscription.name!r} within "
                "subscribe_all batch")
        seen.add(subscription.name)
