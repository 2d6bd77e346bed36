"""The :class:`Broker` protocol — the one public contract every engine speaks.

A *broker* is a content-based publish/subscribe system with delivery
accounting: subscribers register rectangle (or predicate) filters over an
attribute space, publications are routed to the interested subscribers, and
every delivery is audited against the matching ground truth.  Two broker
families implement the protocol:

* :class:`~repro.pubsub.api.PubSubSystem` — the DR-tree overlay, simulated
  end to end on one of the engines of the backend table
  (:mod:`repro.api.registry`),
* :class:`~repro.baselines.broker.BaselineBroker` — the analytic baseline
  overlays (flooding, centralized, per-dimension, containment-tree) behind
  the same facade, with the same
  :class:`~repro.pubsub.accounting.DeliveryAccounting`.

Everything downstream — scenarios, the CLI's ``--backend`` flag, the trace
recorder and replay engine, the ``backend_matrix`` comparison — talks to
this protocol only, so a new backend registered with
:func:`repro.api.registry.register_backend` is immediately usable
everywhere.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Optional,
                    Protocol, runtime_checkable)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import SystemSpec
    from repro.pubsub.accounting import EventOutcome
    from repro.spatial.filters import AttributeSpace, Event, Subscription


@runtime_checkable
class Broker(Protocol):
    """A content-based publish/subscribe system with delivery accounting.

    All membership mutations raise upfront — ``ValueError`` for a filter
    from the wrong attribute space or a duplicate subscription name,
    ``KeyError`` for an unknown subscriber id — before any state changes.
    """

    #: The attribute space every subscription and event must live in.
    space: "AttributeSpace"

    @property
    def spec(self) -> "SystemSpec":
        """The :class:`~repro.api.spec.SystemSpec` that (re)builds this broker."""
        ...

    def clock(self) -> float:
        """Current logical time (simulated time, or an op counter)."""
        ...

    # -- membership ----------------------------------------------------- #

    def subscribe(self, subscription: "Subscription",
                  stabilize: bool = True) -> str:
        """Register a subscriber; returns its id (the subscription name)."""
        ...

    def subscribe_all(self, subscriptions: Iterable["Subscription"],
                      stabilize: bool = True,
                      bulk: Optional[bool] = None) -> List[str]:
        """Register many subscribers at once."""
        ...

    def unsubscribe(self, subscriber_id: str) -> None:
        """Controlled departure of a subscriber."""
        ...

    def fail(self, subscriber_id: str, stabilize: bool = True) -> None:
        """Uncontrolled departure (crash) of a subscriber."""
        ...

    def move_subscription(self, subscriber_id: str,
                          subscription: "Subscription",
                          stabilize: bool = True) -> str:
        """Replace a subscriber's filter with a freshly named one."""
        ...

    def subscribers(self) -> List[str]:
        """Ids of the live subscribers, sorted."""
        ...

    def subscription_of(self, subscriber_id: str) -> "Subscription":
        """The filter registered by ``subscriber_id``."""
        ...

    # -- publishing and reporting --------------------------------------- #

    def publish(self, event: "Event",
                publisher_id: Optional[str] = None) -> "EventOutcome":
        """Publish ``event``; returns its audited delivery outcome."""
        ...

    def publish_many(self, events: Iterable["Event"],
                     publisher_id: Optional[str] = None
                     ) -> List["EventOutcome"]:
        """Publish a sequence of events."""
        ...

    def stabilize(self, max_rounds: Optional[int] = None) -> Any:
        """Run repair/refresh rounds (a no-op on analytic backends)."""
        ...

    def summary(self) -> Dict[str, float]:
        """Headline accuracy/cost numbers for everything published so far."""
        ...

    def detach_tape(self) -> None:
        """Stop trace recording (called when a recording context exits)."""
        ...

    # -- snapshot capability (see repro.api.capabilities) ---------------- #

    def quiescent(self) -> bool:
        """True when no simulated work is in flight (snapshots are legal)."""
        ...

    def snapshot(self) -> bytes:
        """Serialize the broker's full state; see :mod:`repro.api.capabilities`.

        Backends without the ``snapshot`` capability raise
        :class:`~repro.api.capabilities.SnapshotUnsupportedError`.
        """
        ...

    def restore(self, blob: bytes) -> None:
        """Load a :meth:`snapshot` blob into this freshly built broker."""
        ...
