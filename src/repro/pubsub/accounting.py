"""Delivery accounting: false positives, false negatives, message costs.

The paper's headline accuracy claims are that the DR-tree "eradicates the
false negatives and drastically drops the false positives" (2-3 % for most
workloads, per the companion technical report).  The accounting layer folds
every reception reported by the peers into per-event outcomes and compares
them against the ground truth computed by :mod:`repro.pubsub.matching`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Set

from repro.spatial.filters import Event, Subscription
from repro.pubsub.matching import matching_subscribers


@dataclass
class EventOutcome:
    """Aggregate outcome of one published event."""

    event_id: str
    publisher_id: Optional[str]
    intended: Set[str] = field(default_factory=set)
    received: Set[str] = field(default_factory=set)
    false_positives: Set[str] = field(default_factory=set)
    messages: int = 0
    max_hops: int = 0

    @property
    def false_negatives(self) -> Set[str]:
        """Matching subscribers that never received the event."""
        return self.intended - self.received

    @property
    def true_deliveries(self) -> Set[str]:
        """Matching subscribers that did receive the event."""
        return self.intended & self.received


class DeliveryAccounting:
    """Collects per-event outcomes and summarizes accuracy metrics.

    Beside the outcomes it keeps three running hop totals instead of one
    record per delivery, so its size grows with the events published, not
    with the deliveries they caused.  The totals are ``int``: their quotient
    is the same float a sum over a list of hop counts gave.
    """

    def __init__(self) -> None:
        self.outcomes: Dict[str, EventOutcome] = {}
        #: Sum and number of the hop counts of matched deliveries.
        self.matched_hops = 0
        self.matched_deliveries = 0
        #: Largest hop count of any delivery, matched or not.
        self.max_hops = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def start_event(
        self,
        event: Event,
        publisher_id: Optional[str],
        subscriptions: Mapping[str, Subscription],
    ) -> EventOutcome:
        """Register a publication and compute its ground-truth audience."""
        outcome = EventOutcome(
            event_id=event.event_id,
            publisher_id=publisher_id,
            intended=set(matching_subscribers(event, subscriptions)),
        )
        self.outcomes[event.event_id] = outcome
        return outcome

    def record_delivery(self, subscriber_id: str, event: Event,
                        matched: bool, hops: int) -> None:
        """Callback installed on every peer (the ``delivery_listener``)."""
        if matched:
            self.matched_hops += hops
            self.matched_deliveries += 1
        if hops > self.max_hops:
            self.max_hops = hops
        outcome = self.outcomes.get(event.event_id)
        if outcome is None:
            return
        outcome.received.add(subscriber_id)
        outcome.max_hops = max(outcome.max_hops, hops)
        if not matched and subscriber_id != outcome.publisher_id:
            # The producer trivially "sees" its own event; only other
            # uninterested subscribers count as false positives.
            outcome.false_positives.add(subscriber_id)

    def record_messages(self, event_id: str, count: int) -> None:
        """Record how many network messages one publication used."""
        outcome = self.outcomes.get(event_id)
        if outcome is not None:
            outcome.messages += count

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    def total_false_negatives(self) -> int:
        """Number of (event, subscriber) pairs that were missed."""
        return sum(len(o.false_negatives) for o in self.outcomes.values())

    def total_false_positives(self) -> int:
        """Number of (event, subscriber) deliveries to uninterested peers."""
        return sum(len(o.false_positives) for o in self.outcomes.values())

    def total_true_deliveries(self) -> int:
        """Number of correct (event, subscriber) deliveries."""
        return sum(len(o.true_deliveries) for o in self.outcomes.values())

    def false_positive_rate(self, population: int) -> float:
        """False positives normalised by the reachable population.

        Defined as in the paper's experiments: the fraction of uninterested
        subscribers that nevertheless received an event, averaged over all
        published events.  ``population`` is the number of live subscribers.
        """
        if not self.outcomes or population <= 0:
            return 0.0
        rates = []
        for outcome in self.outcomes.values():
            uninterested = max(population - len(outcome.intended), 1)
            rates.append(len(outcome.false_positives) / uninterested)
        return sum(rates) / len(rates)

    def delivery_rate(self) -> float:
        """Fraction of intended deliveries that actually happened."""
        intended = sum(len(o.intended) for o in self.outcomes.values())
        if intended == 0:
            return 1.0
        return self.total_true_deliveries() / intended

    def mean_messages_per_event(self) -> float:
        """Average number of network messages per publication."""
        if not self.outcomes:
            return 0.0
        return sum(o.messages for o in self.outcomes.values()) / len(self.outcomes)

    def mean_delivery_hops(self) -> float:
        """Average hop count over true deliveries."""
        if not self.matched_deliveries:
            return 0.0
        return self.matched_hops / self.matched_deliveries

    def max_delivery_hops(self) -> int:
        """Worst-case hop count over all deliveries."""
        return self.max_hops

    def summary(self, population: int) -> Dict[str, float]:
        """All headline numbers in one dictionary (used by the experiments)."""
        return {
            "events": float(len(self.outcomes)),
            "true_deliveries": float(self.total_true_deliveries()),
            "false_positives": float(self.total_false_positives()),
            "false_negatives": float(self.total_false_negatives()),
            "false_positive_rate": self.false_positive_rate(population),
            "delivery_rate": self.delivery_rate(),
            "mean_messages_per_event": self.mean_messages_per_event(),
            "mean_delivery_hops": self.mean_delivery_hops(),
            "max_delivery_hops": float(self.max_delivery_hops()),
        }
