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
  the subscriptions' bounds in flat per-dimension columns, lists every slot
  in the buckets of dimension 0 that its interval spans, and answers with
  one list pass per dimension over the event's bucket instead of one
  ``matches`` call per subscriber.

The index is fed only by the facade's membership operations; it never reads
the overlay it is the oracle for.
"""

from __future__ import annotations

import math
from array import array
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


#: Buckets are sized so that a filter spans about this many more buckets
#: than one: total bucket entries stay near ``(1 + _SPAN) * N`` whatever the
#: filters' widths, and a bucket holds about ``(1 + 1/_SPAN)`` times the
#: filters that dimension 0 alone admits.
_SPAN = 2

#: Ceiling on the bucket count, reached only when the filters are (nearly)
#: points in dimension 0; each bucket is a dict, even when empty.
_MAX_BUCKETS = 1024


class SubscriptionIndex(MutableMapping):
    """``subscriber id → Subscription`` mapping that can answer "who matches".

    Beside the mapping it keeps, per dimension, one ``lower`` and one
    ``upper`` column of floats, addressed by slot.  Adding appends a slot,
    removing moves the last slot into the hole, so membership operations
    stay O(1) plus the buckets below; iteration follows insertion order like
    a ``dict``.

    A query does not walk every slot.  Dimension 0's extent (the finite
    bounds present) is cut into equal buckets, and each slot is listed in
    every bucket its dimension-0 interval spans.  An event coordinate picks
    one bucket by comparison first — at or below the extent's low end is
    the first bucket, at or above its high end the last — and only then by
    division; bounds and coordinates outside the extent clamp to the edge
    buckets the same way.  The mapping from value to bucket is monotone, so
    the event's bucket lists every slot whose interval holds it, and the
    column filters decide exactly as over all slots.

    The buckets are derived state:

    * built lazily by the first query, with a bucket count taken from that
      population so that a filter spans about ``1 + _SPAN`` buckets;
    * kept current by every membership operation (O(spanned buckets),
      swap-with-last's renumbered slot included);
    * dropped when the population has doubled or halved since they were
      built, so the next query rebuilds them (amortized O(1) per change);
    * never pickled: a snapshot holds only the mapping.

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
        # Flat C doubles, not lists of float objects: a query reads them at
        # scattered slots, and contiguous columns keep those reads in cache.
        self._lower: List[array] = [array("d") for _ in space.names]
        self._upper: List[array] = [array("d") for _ in space.names]
        self._columns = self._lower + self._upper  # the same arrays, in a row
        # Dimension-0 buckets (bucket -> slots), or None until a query.
        self._buckets: Optional[List[Dict[int, None]]] = None
        self._built_size = 0      # population the buckets were built for
        self._low = 0.0           # dimension 0's extent at that build ...
        self._high = 0.0
        self._scale = 0.0         # ... buckets per unit of it
        self._last = 0            # ... and the last bucket
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
            slot = self._slots[subscriber_id] = len(self._ids)
            self._ids.append(subscriber_id)
            self._filters.append(subscription)
            for column, value in zip(self._columns, (*lower, *upper)):
                column.append(value)
            self._drop_buckets_if_resized()
        else:
            self._unlist(slot)
            self._filters[slot] = subscription
            for column, value in zip(self._columns, (*lower, *upper)):
                column[slot] = value
        self._list(slot)

    def __delitem__(self, subscriber_id: str) -> None:
        slot = self._slots.pop(subscriber_id)
        self._unlist(slot)
        if slot != len(self._ids) - 1:
            self._unlist(len(self._ids) - 1)
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
            self._list(slot)  # the renumbered slot, under its new number
        self._drop_buckets_if_resized()

    # ------------------------------------------------------------------ #
    # Dimension-0 buckets
    # ------------------------------------------------------------------ #

    def _bucket_of(self, value: float) -> int:
        """The bucket holding ``value``: monotone, and total on floats.

        Only a value strictly inside a non-degenerate extent is divided, so
        the product stays finite; a NaN (a predicate's bound, which no
        coordinate satisfies) fails both comparisons and lands in bucket 0.
        """
        if value >= self._high:
            return self._last
        if value > self._low:
            return min(int((value - self._low) * self._scale), self._last)
        return 0

    def _span(self, slot: int) -> range:
        return range(self._bucket_of(self._lower[0][slot]),
                     self._bucket_of(self._upper[0][slot]) + 1)

    def _list(self, slot: int) -> None:
        """Enter ``slot`` in the buckets its columns' interval spans."""
        if self._buckets is not None:
            for bucket in self._span(slot):
                self._buckets[bucket][slot] = None

    def _unlist(self, slot: int) -> None:
        if self._buckets is not None:
            for bucket in self._span(slot):
                del self._buckets[bucket][slot]

    def _drop_buckets_if_resized(self) -> None:
        size = len(self._ids)
        if size >= 2 * self._built_size or 2 * size <= self._built_size:
            self._buckets = None

    def _build_buckets(self) -> None:
        """Size the buckets to the population present, then fill them."""
        lower, upper = self._lower[0], self._upper[0]
        bounds = lower + upper
        low = min(filter(math.isfinite, bounds), default=0.0)
        high = max(filter(math.isfinite, bounds), default=0.0)
        width = high - low
        count = 1
        if 0 < width < math.inf:
            covered = 0.0
            for start, stop in zip(lower, upper):
                clipped = min(stop, high) - max(start, low)
                if clipped > 0:
                    covered += clipped
            share = covered / width / len(lower)  # mean fraction spanned
            ideal = _SPAN / share if share else math.inf
            count = max(1, int(min(_MAX_BUCKETS, len(lower), ideal)))
        scale = count / width if count > 1 else 0.0
        if not math.isfinite(scale):  # a subnormal width
            count, scale = 1, 0.0
        if count == 1:  # an empty extent: no value reaches the division
            low = high
        self._low, self._high, self._scale = low, high, scale
        self._last = count - 1
        self._buckets = [{} for _ in range(count)]
        self._built_size = len(lower)
        for slot in range(len(lower)):
            self._list(slot)

    # ------------------------------------------------------------------ #
    # The query
    # ------------------------------------------------------------------ #

    def matching(self, event: Event) -> List[str]:
        """Ids of the subscribers whose filter matches ``event`` (sorted)."""
        coords = _plain_point(event, self._space.names)
        if coords is None:
            return scan_subscribers(event, self)
        if self._buckets is None:
            self._build_buckets()
        slots: Iterable[int] = self._buckets[self._bucket_of(coords[0])]
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
