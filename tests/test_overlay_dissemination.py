"""Dissemination-level tests on the raw overlay (below the pub/sub facade)."""

from __future__ import annotations

import pytest

from repro.overlay import DRTreeConfig, build_stable_tree
from repro.spatial.filters import Event
from repro.workloads.events import targeted_events, uniform_events
from tests.conftest import random_subscriptions, record_sim_deliveries


@pytest.fixture
def sim(space):
    subs = random_subscriptions(space, 30, seed=77)
    return build_stable_tree(subs, DRTreeConfig(2, 4), seed=7)


@pytest.fixture
def recorder(sim):
    return record_sim_deliveries(sim)


def test_publish_reaches_every_matching_peer(sim, recorder, space):
    subs = [p.subscription for p in sim.live_peers()]
    for index, event in enumerate(targeted_events(space, subs, 10, seed=1)):
        publisher = sim.live_peers()[index % len(sim.live_peers())]
        sim.publish(publisher.process_id, event)
        matching = {p.process_id for p in sim.live_peers()
                    if p.subscription.matches(event)}
        assert matching <= recorder.receivers(event.event_id)


def test_publish_from_leaf_and_from_root(sim, recorder, space):
    event = Event({"x": 0.5, "y": 0.5}, event_id="from-both")
    leaf = next(p for p in sim.live_peers() if p.top_level() == 0)
    sim.publish(leaf.process_id, event)
    matching = {p.process_id for p in sim.live_peers()
                if p.subscription.matches(event)}
    assert matching <= recorder.receivers("from-both")

    event2 = Event({"x": 0.5, "y": 0.5}, event_id="from-root")
    sim.publish(sim.root().process_id, event2)
    assert matching <= recorder.receivers("from-root")


def test_duplicate_event_ids_are_not_redelivered(sim):
    event = Event({"x": 0.4, "y": 0.4}, event_id="dup")
    publisher = sim.root().process_id
    sim.publish(publisher, event)
    once = sim.metrics.counter("pubsub.receptions")
    assert once > 0
    sim.publish(publisher, event, settle=False)
    sim.publish(publisher, event)
    # While the first of the two is in flight, the second publication of
    # the same id is absorbed by the de-dup guard: one reception each.
    assert sim.metrics.counter("pubsub.receptions") == 2 * once
    assert sim.metrics.counter("pubsub.duplicates") > 0


def test_an_event_id_published_again_after_settling_is_delivered_again(
        sim, recorder):
    event = Event({"x": 0.4, "y": 0.4}, event_id="again")
    publisher = sim.root().process_id
    sim.publish(publisher, event)
    first = sorted(recorder.deliveries)
    recorder.deliveries.clear()
    sim.publish(publisher, event)
    assert sorted(recorder.deliveries) == first
    assert sim.metrics.counter("pubsub.duplicates") == 0
    # Nothing is remembered between operations.
    assert not any(p.seen_events for p in sim.live_peers())


def test_dissemination_message_cost_is_sublinear(sim, space):
    """Each publication costs far fewer messages than a broadcast."""
    peers = len(sim.live_peers())
    before = sim.metrics.counter("network.messages_sent")
    events = uniform_events(space, 20, seed=3, prefix="cost")
    for event in events:
        sim.publish(sim.root().process_id, event)
    total = sim.metrics.counter("network.messages_sent") - before
    assert total < 20 * peers  # strictly better than flooding every peer


def test_uninterested_subtrees_are_pruned(sim, space):
    """An event matching nobody generates almost no traffic."""
    event = Event({"x": 5.0, "y": 5.0}, event_id="nowhere")
    before = sim.metrics.counter("network.messages_sent")
    sim.publish(sim.root().process_id, event)
    sent = sim.metrics.counter("network.messages_sent") - before
    assert sent <= len(sim.live_peers()) // 2


def test_delivery_listener_hook(sim):
    calls = []

    def listener(pid, ev, matched, hops):
        calls.append((pid, ev.event_id, matched))

    for peer in sim.live_peers():
        peer.delivery_listener = listener
    event = Event({"x": 0.5, "y": 0.5}, event_id="hooked")
    sim.publish(sim.root().process_id, event)
    assert any(entry[1] == "hooked" for entry in calls)


def test_crashed_peer_does_not_receive(sim, recorder, space):
    victim = next(p for p in sim.live_peers() if p.top_level() == 0)
    sim.crash(victim.process_id)
    sim.stabilize(max_rounds=40)
    event = Event({"x": 0.5, "y": 0.5}, event_id="after-crash")
    sim.publish(sim.root().process_id, event)
    assert victim.process_id not in recorder.receivers("after-crash")
