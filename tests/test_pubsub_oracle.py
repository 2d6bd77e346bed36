"""The facade and its ground truth: one index, asked once per publish.

``PubSubSystem._subscriptions`` is a
:class:`~repro.pubsub.matching.SubscriptionIndex` — the membership mapping
and the delivery oracle in one object.  These tests pin, at the facade:

* the default publisher (the lexicographically smallest matching id) against
  the ``sorted(items)`` scan it replaced, kept here as the reference;
* that every membership path — including the ones that raise, snapshot /
  restore and a journal resume — leaves the index describing exactly the
  live subscribers, on every DR-tree engine, and that a baseline broker (a
  plain dict, hence the reference scan) computes the same audience;
* by counting, not by timing, that a publish asks the question once and no
  longer walks the population to answer it.
"""

from __future__ import annotations

import builtins

import pytest

import repro.pubsub.accounting as accounting_module
import repro.pubsub.api as api_module
import repro.pubsub.matching as matching_module
from repro import snapshot
from repro.api import SystemSpec
from repro.journal import journaling, read_journal
from repro.pubsub.matching import SubscriptionIndex, scan_subscribers
from repro.spatial.filters import (Event, Subscription, make_space,
                                   subscription_from_intervals,
                                   subscription_from_rect)
from repro.spatial.rectangle import Rect
from repro.workloads.events import targeted_events
from repro.workloads.subscriptions import uniform_subscriptions
from tests.conftest import random_subscriptions
from tests.test_matching_index import check_index

SPACE = make_space("x", "y")

ENGINES = [
    pytest.param("drtree:classic", None, id="classic"),
    pytest.param("drtree:batched", None, id="batched"),
    pytest.param("drtree:sharded", {"shards": 2, "transport": "inline"},
                 id="sharded-inline"),
]

PROBES = [Event({"x": x / 10, "y": y / 10}, event_id=f"probe-{x}-{y}")
          for x in range(0, 11, 2) for y in range(0, 11, 2)]


def build(backend="drtree:classic", options=None, seed=3):
    return SystemSpec(SPACE, backend=backend, seed=seed,
                      engine_options=options).build()


def box(name, low, high, space=SPACE):
    return subscription_from_rect(name, space, Rect((low, low), (high, high)))


def assert_oracle_current(broker, expected):
    """The index holds exactly ``expected`` and answers like the scan."""
    index = broker._subscriptions
    assert isinstance(index, SubscriptionIndex)
    assert list(index.items()) == list(expected.items())
    assert broker.subscribers() == sorted(expected)
    check_index(index)
    for event in PROBES:
        assert index.matching(event) == scan_subscribers(event, expected)


# --------------------------------------------------------------------------- #
# (i) The default publisher
# --------------------------------------------------------------------------- #


def scan_default_publisher(broker, event):
    """The resolution this PR replaced: sort every pair, take the first hit."""
    for subscriber_id, subscription in sorted(
            dict(broker._subscriptions).items()):
        if subscription.matches(event):
            return subscriber_id
    root = broker.simulation.root()
    if root is not None:
        return root.process_id
    return sorted(broker._subscriptions)[0]


def publisher_population():
    # "A0" sorts before every "S…" but never matches; the four that match
    # sort S1 < S10 < S100 < S2, which is not their numeric order.
    return [box("S2", 0.2, 0.8), box("S100", 0.3, 0.7), box("A0", 0.9, 1.0),
            box("S10", 0.1, 0.9), box("S1", 0.4, 0.6)]


HIT = {"x": 0.5, "y": 0.5}
MISS = {"x": 0.05, "y": 0.95}


def test_default_publisher_is_the_lexicographically_smallest_match():
    broker = build()
    broker.subscribe_all(publisher_population())
    expected = scan_default_publisher(broker, Event(HIT))
    assert expected == "S1"
    assert broker.publish(Event(HIT)).publisher_id == "S1"

    broker.fail("S1")
    expected = scan_default_publisher(broker, Event(HIT))
    assert expected == "S10"  # not "S2": ids compare as strings
    outcome = broker.publish(Event(HIT))
    assert outcome.publisher_id == "S10"
    assert outcome.intended == {"S10", "S100", "S2"}
    assert outcome.false_negatives == set()


def test_default_publisher_falls_back_to_the_root_and_respects_an_explicit_one():
    broker = build()
    broker.subscribe_all(publisher_population())
    root = broker.simulation.root().process_id
    assert scan_default_publisher(broker, Event(MISS)) == root
    outcome = broker.publish(Event(MISS))
    assert outcome.intended == set()
    assert outcome.publisher_id == root

    outcome = broker.publish(Event(HIT), publisher_id="S2")
    assert outcome.publisher_id == "S2"
    outcome = broker.publish(Event(HIT), publisher_id="A0")
    assert outcome.publisher_id == "A0"  # a non-matching producer is allowed
    assert "A0" not in outcome.false_positives


@pytest.mark.parametrize("backend, options", ENGINES)
def test_publish_and_publish_many_resolve_the_same_publisher(backend,
                                                             options):
    subscriptions = random_subscriptions(SPACE, 40, seed=5)
    events = targeted_events(SPACE, subscriptions, 12, seed=6)

    def observed(outcomes):
        return [(o.event_id, o.publisher_id, sorted(o.intended),
                 sorted(o.received), sorted(o.false_positives), o.messages)
                for o in outcomes]

    one_by_one, batch = build(backend, options), build(backend, options)
    try:
        for broker in (one_by_one, batch):
            broker.subscribe_all(subscriptions)
        expected = [scan_default_publisher(one_by_one, event)
                    for event in events]
        singles = [one_by_one.publish(event) for event in events]
        assert [o.publisher_id for o in singles] == expected
        assert observed(batch.publish_many(events)) == observed(singles)
    finally:
        one_by_one.close()
        batch.close()


# --------------------------------------------------------------------------- #
# (ii) Every membership path keeps the one structure current
# --------------------------------------------------------------------------- #


def drive_membership(broker, probing=True):
    """Every membership op, the raising ones included; returns the survivors.

    ``probing=False`` issues only the succeeding ops and checks nothing on
    the way: a resumed run starts from the journaled end state and may only
    re-issue what the journal holds.
    """
    expected = {}

    def joined(*subscriptions):
        expected.update((sub.name, sub) for sub in subscriptions)

    def check():
        if probing:
            assert_oracle_current(broker, expected)

    def refused(error, match, op, *args):
        if probing:
            with pytest.raises(error, match=match):
                op(*args)

    population = random_subscriptions(SPACE, 12, seed=7)
    broker.subscribe_all(population, bulk=False)  # the join path
    joined(*population)
    check()

    late = box("late", 0.2, 0.5)
    assert broker.subscribe(late) == "late"
    joined(late)
    check()

    alien = make_space("x", "z")
    refused(ValueError, "duplicate", broker.subscribe, box("S3", 0.0, 1.0))
    refused(ValueError, "attribute space", broker.subscribe,
            box("alien", 0.0, 1.0, alien))
    refused(ValueError, "duplicate", broker.subscribe_all,
            [box("twin", 0.1, 0.2), box("twin", 0.3, 0.4)])
    refused(KeyError, "ghost", broker.unsubscribe, "ghost")
    refused(KeyError, "ghost", broker.fail, "ghost")
    check()

    broker.unsubscribe("S0")  # the first slot: the last one moves into it
    del expected["S0"]
    check()
    broker.fail("S5")
    del expected["S5"]
    check()

    moved = box("S7~1", 0.4, 0.9)
    assert broker.move_subscription("S7", moved) == "S7~1"
    del expected["S7"]
    joined(moved)
    check()

    refused(ValueError, "duplicate", broker.move_subscription,
            "S8", box("S9", 0.0, 1.0))
    refused(ValueError, "attribute space", broker.move_subscription,
            "S8", box("S8~1", 0.0, 1.0, alien))
    refused(KeyError, "S0", broker.move_subscription,
            "S0", box("S0~1", 0.0, 1.0))  # already left
    check()  # S8 is still there, unmoved
    return expected


@pytest.mark.parametrize("backend, options", ENGINES)
def test_membership_ops_keep_the_index_current(backend, options):
    broker = build(backend, options)
    try:
        expected = drive_membership(broker)
        for event in PROBES:
            outcome = broker.publish(event)
            assert outcome.intended == set(scan_subscribers(event, expected))
            assert outcome.false_negatives == set()
    finally:
        broker.close()


@pytest.mark.parametrize("backend, options", ENGINES)
def test_bulk_subscribe_all_fills_the_index(backend, options):
    population = random_subscriptions(SPACE, 64, seed=8)
    broker = build(backend, options)
    try:
        broker.subscribe_all(population, bulk=True)
        expected = {sub.name: sub for sub in population}
        assert_oracle_current(broker, expected)
        broker.unsubscribe("S63")  # the last slot: nothing to move
        del expected["S63"]
        assert_oracle_current(broker, expected)
    finally:
        broker.close()


@pytest.mark.parametrize("backend, options", ENGINES)
def test_snapshot_writes_a_plain_dict_and_restore_rebuilds_the_index(
        backend, options):
    original, restored = build(backend, options), build(backend, options)
    try:
        expected = drive_membership(original)
        blob = original.snapshot()
        # The payload holds a plain dict, as it did before the index
        # existed, so blobs written then still restore.
        stored = snapshot.load(blob, "pubsub",
                               original.backend)["subscriptions"]
        assert type(stored) is dict
        assert list(stored.items()) == list(expected.items())
        restored.restore(blob)
        assert_oracle_current(restored, expected)
        # The rebuilt index is live, not a frozen copy.
        for broker in (original, restored):
            broker.unsubscribe("S2")
        del expected["S2"]
        assert_oracle_current(restored, expected)
        for event in PROBES[:6]:
            assert (restored.publish(event).intended
                    == original.publish(event).intended)
    finally:
        original.close()
        restored.close()


def test_a_journal_resume_rebuilds_the_index(tmp_path):
    events = PROBES[:5]
    reference = build()
    expected = drive_membership(reference)
    audiences = [reference.publish(event).intended for event in events]

    path = tmp_path / "oracle.journal"
    with journaling(path, snapshot_every=3):
        victim = build()
        drive_membership(victim)
        victim.publish(events[0])
        # The crash: the context exits with the run incomplete, unsealed.

    with journaling(resume=read_journal(path)) as recorder:
        resumed = build()
        assert drive_membership(resumed, probing=False) == expected
        assert_oracle_current(resumed, expected)
        assert [resumed.publish(event).intended
                for event in events] == audiences
        recorder.seal()


def test_a_baseline_broker_scans_its_plain_dict_to_the_same_audience():
    population = random_subscriptions(SPACE, 30, seed=9)
    drtree, baseline = build(), build("flooding")
    for broker in (drtree, baseline):
        broker.subscribe_all(population)
        broker.unsubscribe("S4")
    assert type(baseline._subscriptions) is dict
    for event in PROBES:
        assert (baseline.publish(event).intended
                == drtree.publish(event).intended)


# --------------------------------------------------------------------------- #
# (iii) One question per publish, and not an O(N) one — counted, not timed
# --------------------------------------------------------------------------- #


class FacadeCounters:
    """Counts work done by the facade and its accounting, not the overlay.

    ``Subscription.matches`` calls and the sizes handed to ``sorted`` are
    recorded everywhere in ``broker.publish`` *except* under
    ``simulation.publish``: the peers' own delivery checks are the protocol
    under test, not the oracle.
    """

    def __init__(self, monkeypatch, broker):
        self.matches = 0
        self.sorted_sizes = []
        self._counting = True
        real_matches = Subscription.matches
        real_publish = broker.simulation.publish

        def matches(subscription, event):
            self.matches += self._counting
            return real_matches(subscription, event)

        def counting_sorted(iterable, **kwargs):
            items = list(iterable)
            if self._counting:
                self.sorted_sizes.append(len(items))
            return builtins.sorted(items, **kwargs)

        def publish(*args, **kwargs):
            self._counting = False
            try:
                return real_publish(*args, **kwargs)
            finally:
                self._counting = True

        monkeypatch.setattr(Subscription, "matches", matches)
        monkeypatch.setattr(broker.simulation, "publish", publish)
        for module in (api_module, accounting_module, matching_module):
            monkeypatch.setattr(module, "sorted", counting_sorted,
                                raising=False)


def test_a_publish_over_rect_subscribers_never_walks_the_population(
        monkeypatch):
    population = uniform_subscriptions(2000, seed=11)
    subscriptions = list(population)
    broker = SystemSpec(population.space, backend="drtree:batched",
                        seed=1).build()
    broker.subscribe_all(subscriptions)
    events = targeted_events(population.space, subscriptions, 5, seed=12)
    audiences = [set(scan_subscribers(event, dict(broker._subscriptions)))
                 for event in events]

    counters = FacadeCounters(monkeypatch, broker)
    outcomes = [broker.publish(event) for event in events]

    assert [outcome.intended for outcome in outcomes] == audiences
    assert all(0 < len(audience) < 200 for audience in audiences)
    assert counters.matches == 0
    # One sort per event, of the k matching ids — nothing of length N.
    assert counters.sorted_sizes == [len(audience) for audience in audiences]
    assert [outcome.publisher_id for outcome in outcomes] == [
        min(audience) for audience in audiences]


def test_predicate_subscribers_are_confirmed_once_per_column_candidate(
        monkeypatch):
    population = uniform_subscriptions(2000, seed=11)
    names = population.space.names
    subscriptions = [
        subscription_from_intervals(
            sub.name, population.space,
            dict(zip(names, zip(sub.rect.lower, sub.rect.upper))))
        for sub in population]
    assert all(sub.predicates for sub in subscriptions)
    broker = SystemSpec(population.space, backend="drtree:batched",
                        seed=1).build()
    broker.subscribe_all(subscriptions)
    events = targeted_events(population.space, subscriptions, 5, seed=12)
    candidates = [sum(sub.rect.contains_point(event.to_point(sub.space))
                      for sub in subscriptions) for event in events]

    counters = FacadeCounters(monkeypatch, broker)
    outcomes = [broker.publish(event) for event in events]

    assert all(outcome.false_negatives == set() for outcome in outcomes)
    assert 0 < counters.matches <= sum(candidates) < 2000
    assert max(counters.sorted_sizes) <= max(candidates)
