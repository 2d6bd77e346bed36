"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.overlay.config import DRTreeConfig
from repro.pubsub.accounting import DeliveryAccounting
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.spatial.filters import (AttributeSpace, Event, Subscription, make_space,
                                   subscription_from_rect)
from repro.spatial.rectangle import Rect


@pytest.fixture
def space() -> AttributeSpace:
    """The two-dimensional attribute space used throughout the paper."""
    return make_space("x", "y")


@pytest.fixture
def small_config() -> DRTreeConfig:
    """The smallest legal DR-tree configuration (m=2, M=4)."""
    return DRTreeConfig(min_children=2, max_children=4)


def random_subscriptions(space: AttributeSpace, count: int, seed: int = 0,
                         max_extent: float = 0.3) -> list[Subscription]:
    """Generate ``count`` random rectangle subscriptions in the unit square."""
    rng = random.Random(seed)
    subs = []
    for index in range(count):
        x, y = rng.random(), rng.random()
        width = rng.random() * max_extent
        height = rng.random() * max_extent
        rect = Rect((x, y), (min(x + width, 1.0), min(y + height, 1.0)))
        subs.append(subscription_from_rect(f"S{index}", space, rect))
    return subs


@pytest.fixture
def rand_subs(space):
    """Factory fixture returning random subscription lists."""

    def factory(count: int, seed: int = 0, max_extent: float = 0.3):
        return random_subscriptions(space, count, seed=seed, max_extent=max_extent)

    return factory


class RecordingAccounting(DeliveryAccounting):
    """Delivery accounting that also keeps every delivery it is told of.

    The facade keeps only outcomes and running hop totals; tests that compare
    who received what at how many hops across engines read ``deliveries``,
    one ``(event_id, subscriber_id, matched, hops)`` tuple per delivery.
    """

    def __init__(self) -> None:
        super().__init__()
        self.deliveries: list[tuple[str, str, bool, int]] = []

    def record_delivery(self, subscriber_id: str, event: Event,
                        matched: bool, hops: int) -> None:
        self.deliveries.append((event.event_id, subscriber_id, matched, hops))
        super().record_delivery(subscriber_id, event, matched, hops)

    def receivers(self, event_id: str) -> set[str]:
        """Ids of the subscribers ``event_id`` was delivered to."""
        return {subscriber for delivered, subscriber, _, _ in self.deliveries
                if delivered == event_id}


def record_deliveries(broker) -> RecordingAccounting:
    """Install a :class:`RecordingAccounting` on a broker with no subscriber.

    Every engine's peers get the facade's ``accounting.record_delivery`` as
    their ``delivery_listener`` when they subscribe, so the recorder must be
    in place before the first subscribe to see every delivery.
    """
    assert not broker.subscribers(), "install the recorder before subscribing"
    broker.accounting = RecordingAccounting()
    return broker.accounting


def record_sim_deliveries(sim) -> RecordingAccounting:
    """Install a :class:`RecordingAccounting` on every peer of a raw overlay.

    For tests below the facade (a ``DRTreeSimulation`` with no accounting of
    its own): the peers' own de-dup tables hold an event only while it is in
    flight, so who received an event is read from the recorder.
    """
    recorder = RecordingAccounting()
    for peer in sim.peers.values():
        peer.delivery_listener = recorder.record_delivery
    return recorder


class PerMessageNetwork(Network):
    """The reference scheduler: a fan-out is one ``send`` per recipient.

    Under a non-transparent condition spec (loss, a sampling latency) each
    of those sends asks the pipeline for its verdict and gets its own engine
    entry, so this fixes the per-message delivery order — and each link's
    draw order — that ``Network.send_many`` must reproduce.
    """

    def send_many(self, sender, recipients, kind, payload) -> None:
        for recipient in recipients:
            self.send(Message(sender, recipient, kind, payload))
