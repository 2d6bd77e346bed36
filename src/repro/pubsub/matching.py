"""Ground-truth event matching.

The accounting layer needs to know, independently of the overlay, which
subscribers *should* receive each event.  This is the oracle used to detect
false negatives (a matching subscriber that did not receive the event) and to
separate true deliveries from false positives.

Two implementations answer the question and must always agree:

* :func:`scan_subscribers` — the reference: ask every subscription whether
  it matches.  Works on any mapping (the baselines' ``overlay.subscriptions``
  is a plain dict) and is what the tests compare the index against.
* :class:`SubscriptionIndex` — the facade's membership mapping, which keeps
  the subscriptions' bounds in flat per-dimension columns and answers with
  one list pass per dimension instead of one ``matches`` call per subscriber.

The index is fed only by the facade's membership operations; it never reads
the overlay it is the oracle for.
"""

from __future__ import annotations

import math
from collections.abc import MutableMapping
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.spatial.filters import (AttributeSpace, Event, Subscription,
                                   ensure_same_space)


def scan_subscribers(
    event: Event, subscriptions: Mapping[str, Subscription]
) -> List[str]:
    """Reference oracle: ask every subscription, O(N) ``matches`` calls."""
    return sorted(
        subscriber_id
        for subscriber_id, subscription in subscriptions.items()
        if subscription.matches(event)
    )


class SubscriptionIndex(MutableMapping):
    """``subscriber id → Subscription`` mapping that can answer "who matches".

    Beside the mapping it keeps, per dimension, one ``lower`` and one
    ``upper`` column of floats, addressed by slot.  Adding appends a slot,
    removing moves the last slot into the hole, so membership operations
    stay O(1); iteration follows insertion order like a ``dict``.

    :meth:`matching` is exact, not approximate:

    * a subscription built from a rectangle matches by closed containment of
      the event's point, which is precisely what the columns hold;
    * a subscription built from predicates (strict ``<``/``>`` differ from
      the closed rectangle) uses its columns only to be ruled out, and every
      surviving candidate is confirmed with ``subscription.matches``;
    * an event that is not a complete point of plain numbers is handed to
      :func:`scan_subscribers`, so results and exceptions are the scan's.
    """

    def __init__(self, space: AttributeSpace,
                 subscriptions: Optional[Mapping[str, Subscription]] = None
                 ) -> None:
        self._space = space
        self._slots: Dict[str, int] = {}          # id -> slot, insertion order
        self._ids: List[str] = []                 # slot -> id
        self._filters: List[Subscription] = []    # slot -> subscription
        self._lower: List[List[float]] = [[] for _ in space.names]
        self._upper: List[List[float]] = [[] for _ in space.names]
        self._columns = self._lower + self._upper  # the same lists, in a row
        if subscriptions:
            self.update(subscriptions)

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def __getitem__(self, subscriber_id: str) -> Subscription:
        return self._filters[self._slots[subscriber_id]]

    def __contains__(self, subscriber_id: object) -> bool:
        return subscriber_id in self._slots

    def __iter__(self) -> Iterator[str]:
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def __setitem__(self, subscriber_id: str,
                    subscription: Subscription) -> None:
        ensure_same_space(self._space, subscription)
        lower, upper = _column_bounds(subscription)
        slot = self._slots.get(subscriber_id)
        if slot is None:
            self._slots[subscriber_id] = len(self._ids)
            self._ids.append(subscriber_id)
            self._filters.append(subscription)
            for column, value in zip(self._columns, (*lower, *upper)):
                column.append(value)
        else:
            self._filters[slot] = subscription
            for column, value in zip(self._columns, (*lower, *upper)):
                column[slot] = value

    def __delitem__(self, subscriber_id: str) -> None:
        slot = self._slots.pop(subscriber_id)
        # Swap-with-last: the tail slot fills the hole, then the tail goes.
        moved_id = self._ids[slot] = self._ids[-1]
        self._filters[slot] = self._filters[-1]
        self._ids.pop()
        self._filters.pop()
        for column in self._columns:
            column[slot] = column[-1]
            column.pop()
        if moved_id != subscriber_id:
            self._slots[moved_id] = slot

    # ------------------------------------------------------------------ #
    # The query
    # ------------------------------------------------------------------ #

    def matching(self, event: Event) -> List[str]:
        """Ids of the subscribers whose filter matches ``event`` (sorted)."""
        coords = _plain_point(event, self._space.names)
        if coords is None:
            return scan_subscribers(event, self)
        slots: Iterable[int] = range(len(self._ids))
        for coord, lower, upper in zip(coords, self._lower, self._upper):
            slots = [slot for slot in slots
                     if lower[slot] <= coord <= upper[slot]]
        ids = self._ids
        filters = self._filters
        return sorted(
            ids[slot] for slot in slots
            if not filters[slot].predicates or filters[slot].matches(event)
        )


def _plain_point(event: Event, names: Tuple[str, ...]
                 ) -> Optional[List[float]]:
    """The event's coordinates as ``Point`` would see them, or ``None``.

    ``None`` means the columns cannot decide alone: an attribute is missing,
    or some value is not a plain ``int``/``float`` (a string, a ``bool``, a
    numpy scalar, an int too large for a float...), where ``matches`` may
    coerce, compare exactly, or raise; or a value is NaN, which lies inside
    no closed interval yet matches a filter that does not constrain it.
    Every attribute is checked, not only the space's, because a predicate
    may name an attribute outside it.
    """
    attributes = event.attributes
    for value in attributes.values():
        if type(value) not in (int, float) or value != value:
            return None
    try:
        return [float(attributes[name]) for name in names]
    except (KeyError, OverflowError):
        return None


def _column_bounds(subscription: Subscription
                   ) -> Tuple[Iterable[float], Iterable[float]]:
    """Closed per-dimension bounds outside of which nothing can match.

    Rectangle-built subscriptions *are* their rectangle.  Predicate-built
    ones are bounded by their predicates' closed intervals — derived here
    rather than read from ``subscription.rect`` so the oracle depends on
    nothing but what ``matches`` itself evaluates.  ``float`` is monotone,
    so an event value that satisfies a predicate exactly also satisfies its
    rounded closed interval: the columns never rule out a true match.
    """
    if not subscription.predicates:
        return subscription.rect.lower, subscription.rect.upper
    names = subscription.space.names
    lower = [-math.inf] * len(names)
    upper = [math.inf] * len(names)
    for predicate in subscription.predicates:
        if predicate.attribute in names:
            dim = names.index(predicate.attribute)
            low, high = predicate.interval()
            lower[dim] = max(lower[dim], float(low))
            upper[dim] = min(upper[dim], float(high))
    return lower, upper


def matching_subscribers(
    event: Event, subscriptions: Mapping[str, Subscription]
) -> List[str]:
    """Ids of the subscribers whose filter matches ``event`` (sorted)."""
    if isinstance(subscriptions, SubscriptionIndex):
        return subscriptions.matching(event)
    return scan_subscribers(event, subscriptions)


def matching_matrix(
    events: Iterable[Event], subscriptions: Mapping[str, Subscription]
) -> Dict[str, List[str]]:
    """event_id → sorted list of matching subscriber ids."""
    return {
        event.event_id: matching_subscribers(event, subscriptions)
        for event in events
    }
