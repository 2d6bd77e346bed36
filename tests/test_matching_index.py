"""Property test: the ground-truth index against the reference scan.

:class:`~repro.pubsub.matching.SubscriptionIndex` is the facade's membership
mapping *and* its delivery oracle, so it has to be right twice: as a mapping
(it must behave like the ``dict`` it replaced, insertion order included —
snapshot bytes depend on it) and as an oracle (``matching`` must equal
:func:`~repro.pubsub.matching.scan_subscribers` on every event, including
which exception is raised for a malformed one).

Hypothesis drives arbitrary add / replace / remove / re-add sequences over a
mix of subscription kinds and queries with events whose coordinates are
drawn from the bounds themselves, where closed and strict comparisons part.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pubsub.matching import (SubscriptionIndex, _column_bounds,
                                   matching_subscribers, scan_subscribers)
from repro.spatial.filters import (AttributeSpace, Event, Predicate,
                                   Subscription, make_space,
                                   subscription_from_intervals,
                                   subscription_from_rect)
from repro.spatial.rectangle import Rect

#: Few ids, so sequences keep hitting replace, remove and re-add; their
#: lexicographic order (S1 < S10 < S100 < S2) differs from the numeric one.
IDS = ["S1", "S2", "S10", "S100", "S3"]

#: Bound values: ints beside floats, a signed zero, and a pair of integers
#: that ``float`` rounds onto one value (2**53 + 1 -> 2**53).
BOUNDS = [-1, 0, 1, 2, -0.0, 0.5, 1.5, 2.0, 2 ** 53, 2 ** 53 + 1]

#: Event values the columns cannot decide alone (or that make the scan raise).
ODD_VALUES = [math.inf, -math.inf, math.nan, True, "1", "abc", None,
              10 ** 400]

bound = st.sampled_from(BOUNDS)
side = st.one_of(bound, st.sampled_from([-math.inf, math.inf]))


@st.composite
def rect_subscriptions(draw, name: str, space: AttributeSpace):
    """Rectangle-built: bounded, one-sided, unbounded and degenerate sides."""
    lower, upper = [], []
    for _ in space.names:
        low, high = sorted((float(draw(side)), float(draw(side))))
        lower.append(low)
        upper.append(high)
    return subscription_from_rect(name, space, Rect(lower, upper))


@st.composite
def interval_subscriptions(draw, name: str, space: AttributeSpace):
    """Predicate-built from closed intervals (``=``, ``>=``, ``<=``)."""
    intervals = {}
    for attribute in draw(st.sets(st.sampled_from(space.names))):
        low, high = draw(side), draw(side)
        if low > high:
            low, high = high, low
        intervals[attribute] = (low, high)
    return subscription_from_intervals(name, space, intervals)


@st.composite
def predicate_subscriptions(draw, name: str, space: AttributeSpace):
    """Predicate-built with any operator, strict ones included.

    The rectangle is handed in explicitly and unrelated to the predicates,
    and a predicate may name an attribute outside the space: ``matches``
    evaluates only the predicates, so the oracle must not trust the
    rectangle of such a subscription.
    """
    predicates = tuple(
        Predicate(draw(st.sampled_from(space.names + ("extra",))),
                  draw(st.sampled_from(["=", "<", ">", "<=", ">="])),
                  draw(bound))
        for _ in range(draw(st.integers(1, 3))))
    rect = draw(rect_subscriptions(name, space)).rect
    return Subscription(name=name, space=space, predicates=predicates,
                        rect=rect)


def subscriptions(name: str, space: AttributeSpace):
    return st.one_of(rect_subscriptions(name, space),
                     interval_subscriptions(name, space),
                     predicate_subscriptions(name, space))


@st.composite
def events(draw, space: AttributeSpace, index: SubscriptionIndex):
    """Events on the subscriptions' own bounds, plus the malformed ones."""
    pool = list(BOUNDS)
    for subscription in index.values():
        pool.extend(subscription.rect.lower + subscription.rect.upper)
        pool.extend(p.value for p in subscription.predicates)
    value = st.one_of(st.sampled_from(pool), st.sampled_from(pool),
                      st.sampled_from(ODD_VALUES))
    attributes = {name: draw(value) for name in space.names}
    if draw(st.integers(0, 9)) == 0:
        del attributes[draw(st.sampled_from(space.names))]
    if draw(st.booleans()):
        attributes["extra"] = draw(value)
    return Event(attributes, event_id="e")


def answer(query, event):
    """The query's result, or the exception it raised (type and text)."""
    try:
        return query(event)
    except Exception as exc:  # noqa: BLE001 - the scan decides what raises
        return type(exc), str(exc)


def check_index(index: SubscriptionIndex) -> None:
    """Columns and slot table describe exactly the mapping's contents."""
    size = len(index)
    assert len(index._slots) == len(index._ids) == len(index._filters) == size
    assert all(a is b for a, b in zip(index._columns,
                                      index._lower + index._upper))
    assert all(len(column) == size for column in index._columns)
    for subscriber_id, slot in index._slots.items():
        assert index._ids[slot] == subscriber_id
        lower, upper = _column_bounds(index._filters[slot])
        assert [column[slot] for column in index._lower] == list(lower)
        assert [column[slot] for column in index._upper] == list(upper)
    assert sorted(index._slots.values()) == list(range(size))


def check_against(index: SubscriptionIndex, shadow: dict) -> None:
    """The index is the dict it replaced, insertion order included."""
    assert list(index) == list(shadow)
    assert list(index.items()) == list(shadow.items())
    assert len(index) == len(shadow)
    assert dict(index) == shadow
    for subscriber_id in IDS:
        assert (subscriber_id in index) == (subscriber_id in shadow)
        assert index.get(subscriber_id) is shadow.get(subscriber_id)
    check_index(index)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_index_equals_scan_under_arbitrary_membership_ops(data):
    space = make_space(*(f"a{dim}" for dim in range(data.draw(
        st.integers(1, 4), label="dimensions"))))
    index = SubscriptionIndex(space)
    shadow: dict = {}
    for _ in range(data.draw(st.integers(1, 12), label="ops")):
        subscriber_id = data.draw(st.sampled_from(IDS))
        op = data.draw(st.sampled_from(["set", "set", "del", "pop"]))
        if op == "set":  # add, replace, or re-add after a removal
            subscription = data.draw(subscriptions(subscriber_id, space))
            index[subscriber_id] = shadow[subscriber_id] = subscription
        elif op == "del" and subscriber_id not in shadow:
            with pytest.raises(KeyError):
                del index[subscriber_id]
        elif op == "del":
            del index[subscriber_id], shadow[subscriber_id]
        else:
            assert (index.pop(subscriber_id, None)
                    is shadow.pop(subscriber_id, None))
        check_against(index, shadow)
        for _ in range(3):
            event = data.draw(events(space, index))
            expected = answer(lambda e: scan_subscribers(e, dict(shadow)),
                              event)
            assert answer(index.matching, event) == expected
            assert answer(lambda e: matching_subscribers(e, index),
                          event) == expected


def test_removal_moves_the_last_slot_into_the_hole():
    space = make_space("x")
    index = SubscriptionIndex(space, {
        name: subscription_from_rect(name, space, Rect((low,), (low + 1,)))
        for low, name in enumerate(["a", "b", "c", "d"])})
    del index["b"]
    assert list(index) == ["a", "c", "d"]          # dict order, not slot order
    assert index._ids == ["a", "d", "c"]           # "d" filled the hole
    assert index.matching(Event({"x": 1.5})) == []  # "b" is in no column
    assert index.matching(Event({"x": 3.5})) == ["d"]
    assert index.matching(Event({"x": 3})) == ["c", "d"]
    check_index(index)


def test_strict_predicates_are_confirmed_not_trusted_to_the_columns():
    space = make_space("x", "y")
    index = SubscriptionIndex(space)
    index["open"] = Subscription("open", space, (Predicate("x", "<", 1.0),
                                                 Predicate("y", ">", 0.0)))
    index["closed"] = subscription_from_rect(
        "closed", space, Rect((-math.inf, 0.0), (1.0, math.inf)))
    assert index.matching(Event({"x": 1.0, "y": 0.0})) == ["closed"]
    assert index.matching(Event({"x": 1, "y": 0})) == ["closed"]
    assert index.matching(Event({"x": 0.5, "y": 0.5})) == ["closed", "open"]


def test_a_subscription_of_another_space_is_refused_and_leaves_no_trace():
    space = make_space("x", "y")
    index = SubscriptionIndex(space)
    other = make_space("x", "z")
    with pytest.raises(ValueError, match="attribute space"):
        index["S1"] = subscription_from_rect("S1", other,
                                             Rect((0, 0), (1, 1)))
    assert len(index) == 0
    check_index(index)


def test_any_other_mapping_takes_the_reference_scan(space):
    subs = {"a": subscription_from_rect("a", space, Rect((0, 0), (1, 1)))}
    event = Event({"x": 0.5})  # incomplete: the scan says "no match"
    assert matching_subscribers(event, subs) == []
    assert matching_subscribers(event, SubscriptionIndex(space, subs)) == []


# ---------------------------------------------------------------------- #
# Dimension-0 buckets
# ---------------------------------------------------------------------- #

#: Dimension-0 values no uniform population reaches: the ends of the float
#: range and values far outside every extent.
FAR = [math.inf, -math.inf, 1e308, -1e308, 1e6, -1e6]

#: Dimension-0 shapes the uniform generator never makes: zipf-skewed
#: centres, two containment chains, filters spanning the whole space, and
#: predicates open on one side (``(operator, value)``, a NaN value included).
ZIPF = [(1 / rank ** 1.5 - half, 1 / rank ** 1.5 + half)
        for rank in range(1, 65) for half in (0.0, 1e-3, 0.01, 0.1)]
CHAINS = [(centre - 0.3 * 0.7 ** depth, centre + 0.3 * 0.7 ** depth)
          for centre in (0.3, 0.7) for depth in range(13)]
SPANNING = [(0.0, 1.0), (-math.inf, math.inf), (-1e308, 1e308),
            (-1.7e308, 1.7e308)]
OPEN_SIDED = [(operator, value) for operator in ("<", "<=", ">", ">=")
              for value in (0.0, 0.25, 0.5, 1.0, math.nan)]
skewed = st.one_of(*map(st.sampled_from, (ZIPF, CHAINS, SPANNING,
                                          OPEN_SIDED)))

#: Wholly outside the extent of any build over the shapes above.
outside = st.sampled_from([(1e6, 1e6 + 1), (-1e308, -1e300), (2.0, 3.0),
                           (1e300, math.inf)])


def shaped(name: str, space: AttributeSpace, shape) -> Subscription:
    """A filter with ``shape`` in dimension 0 and [0, 1] in the others."""
    rect = Rect([0.0] * space.dimensions, [1.0] * space.dimensions)
    if isinstance(shape[0], str):
        # A NaN value has no rectangle, so the filter is handed one.
        return Subscription(name, space,
                            (Predicate(space.names[0], *shape),), rect=rect)
    return subscription_from_rect(
        name, space, Rect(shape[:1] + rect.lower[1:],
                          shape[1:] + rect.upper[1:]))


def check_buckets(index: SubscriptionIndex) -> None:
    """Each slot is listed in exactly the buckets its interval spans."""
    if index._buckets is None:
        return
    expected: list = [set() for _ in index._buckets]
    for slot in range(len(index)):
        for bucket in index._span(slot):
            expected[bucket].add(slot)
    assert [set(bucket) for bucket in index._buckets] == expected


def bucket_edges(index: SubscriptionIndex) -> list:
    """The extent's ends and the boundaries between its buckets."""
    count = index._last + 1
    edges = [index._low + (index._high - index._low) * k / count
             for k in range(count + 1)]
    return edges + [math.nextafter(edge, side)
                    for edge in edges for side in (-math.inf, math.inf)]


def check_queries(data, space: AttributeSpace,
                  index: SubscriptionIndex) -> None:
    """Events on bucket boundaries, filter bounds and the float range."""
    pool = list(FAR)
    if index._buckets is not None:
        pool.extend(bucket_edges(index))
    for subscription in index.values():
        pool.extend((subscription.rect.lower[0], subscription.rect.upper[0]))
    for first, rest in data.draw(st.lists(st.tuples(
            st.sampled_from(pool), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
            min_size=3, max_size=3)):
        event = Event({space.names[0]: first,
                       **dict.fromkeys(space.names[1:], rest)})
        assert index.matching(event) == scan_subscribers(event, dict(index))
    check_buckets(index)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bucketed_index_equals_scan_on_skewed_populations(data):
    space = make_space(*(f"a{dim}" for dim in range(data.draw(
        st.integers(1, 2), label="dimensions"))))
    index = SubscriptionIndex(space)
    names = [f"S{number}" for number in range(64)]

    def add(shapes):
        for name, shape in zip(names[len(index):], shapes):
            index[name] = shaped(name, space, shape)

    add(data.draw(st.lists(skewed, min_size=2, max_size=12)))
    check_queries(data, space, index)          # the first query builds
    built = index._built_size
    assert built == len(index) and index._buckets is not None

    # Additions and replacements outside the built extent clamp to an
    # edge bucket; below twice the built size they do not rebuild.
    add(data.draw(st.lists(outside, max_size=built - 1)))
    for name, shape in data.draw(st.lists(
            st.tuples(st.sampled_from(list(index)), outside), max_size=2)):
        index[name] = shaped(name, space, shape)
    check_index(index)
    check_buckets(index)
    assert index._buckets is not None
    check_queries(data, space, index)

    # Growth to twice the last build drops the buckets; the query rebuilds.
    built = index._built_size
    add(data.draw(st.lists(st.one_of(skewed, outside), min_size=built,
                           max_size=built)))
    assert index._buckets is None
    check_queries(data, space, index)
    assert index._built_size == len(index)

    # Shrinkage to half does the same, through every swap-with-last.
    built = index._built_size
    for name in data.draw(st.permutations(list(index)))[:built - built // 2]:
        del index[name]
        check_index(index)
        check_buckets(index)
    assert index._buckets is None
    check_queries(data, space, index)


def test_degenerate_extents_fall_back_to_one_bucket():
    space = make_space("x")
    for bounds in ([(-1.7e308, -1e307), (1e307, 1.7e308)],  # overflows
                   [(0.0, 1e-310)] * 2,            # buckets per unit do
                   [(0.5, 0.5), (0.5, 0.5)],       # width is zero
                   [(-math.inf, math.inf)] * 2):   # nothing finite
        index = SubscriptionIndex(space, {
            f"S{n}": subscription_from_rect(f"S{n}", space, Rect((a,), (b,)))
            for n, (a, b) in enumerate(bounds)})
        for value in FAR + [0.5, -1e307, 5e-311]:
            event = Event({"x": value})
            assert index.matching(event) == scan_subscribers(event, index)
        assert len(index._buckets) == 1
        check_buckets(index)


def test_subscribe_all_leaves_the_buckets_to_the_first_publish():
    from repro.api import SystemSpec
    from repro.workloads import uniform_subscriptions

    population = uniform_subscriptions(64, seed=1)
    broker = SystemSpec(population.space, backend="drtree:batched",
                        seed=1).build()
    broker.subscribe_all(list(population))
    assert broker._subscriptions._buckets is None
    broker.publish(Event(dict.fromkeys(population.space.names, 0.5)))
    assert broker._subscriptions._buckets is not None
    check_buckets(broker._subscriptions)
