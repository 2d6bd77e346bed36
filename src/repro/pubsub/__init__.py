"""Content-based publish/subscribe embedded in the DR-tree overlay.

This subpackage provides the user-facing facade of the reproduction:

* :class:`~repro.pubsub.api.PubSubSystem` — subscribe / unsubscribe /
  publish over a simulated DR-tree, with full delivery accounting (the
  DR-tree implementation of the :class:`~repro.api.broker.Broker` protocol),
* :class:`~repro.pubsub.accounting.DeliveryAccounting` — false positive /
  false negative / message-cost bookkeeping for every published event,
* :mod:`~repro.pubsub.matching` — ground-truth event matching used to decide
  what *should* have been delivered.
"""

from repro.pubsub.accounting import DeliveryAccounting, EventOutcome
from repro.pubsub.api import PubSubSystem
from repro.pubsub.matching import matching_subscribers

__all__ = [
    "PubSubSystem",
    "DeliveryAccounting",
    "EventOutcome",
    "matching_subscribers",
]
