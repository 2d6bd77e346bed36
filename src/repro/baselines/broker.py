"""Baseline overlays behind the :class:`~repro.api.broker.Broker` protocol.

A :class:`BaselineBroker` wraps one analytic
:class:`~repro.baselines.base.BaselineOverlay` (flooding, centralized,
per-dimension, containment-tree) in the same facade the DR-tree system
exposes — and, crucially, in the same
:class:`~repro.pubsub.accounting.DeliveryAccounting`: false positives,
false negatives, message costs and hop counts are computed by exactly one
code path for every backend, so the paper's E10 accuracy/cost comparison
(and the ``backend_matrix`` scenario) is a sweep over one API rather than
two bookkeeping implementations that must be kept in agreement.

The analytic overlays have no message-passing simulator underneath, so
``stabilize`` is a no-op, churn (``fail``) collapses to a controlled
removal, and the broker's :meth:`~BaselineBroker.clock` is an operation
counter rather than simulated time — enough for trace recording and replay
(:mod:`repro.traces`) to treat both broker families identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro import snapshot as snapshots
from repro.baselines.base import BaselineOverlay
from repro.pubsub.accounting import DeliveryAccounting, EventOutcome
from repro.spatial.filters import Event, Subscription, ensure_unique_names
from repro.traces.oplog import EXECUTE, OpLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import SystemSpec


class BaselineBroker:
    """A baseline overlay speaking the full ``Broker`` protocol."""

    def __init__(self, spec: "SystemSpec", overlay: BaselineOverlay) -> None:
        if overlay.space is None:
            overlay.space = spec.space
        self.space = spec.space
        self.overlay = overlay
        self.accounting = DeliveryAccounting()
        self.stabilize_rounds = spec.stabilize_rounds
        self._spec = spec
        #: The number of the next facade-assigned event id.
        self._event_counter = 0
        self._ops = 0
        # Names of subscribers that ever left: like the simulator's peer
        # ids, subscription names are never reused, so both broker
        # families accept exactly the same op sequences (a trace recorded
        # here replays on a DR-tree backend and vice versa).
        self._retired: set = set()
        # The log must be in place before attaching: a resume-mode journal
        # re-executes journaled ops through this facade while attach() runs.
        self.oplog = OpLog(self)
        self.oplog.attach()

    def detach_tape(self) -> None:
        """Stop taping; called when the enclosing recording context exits."""
        self.oplog.detach()

    def consume_event_id(self) -> str:
        """Draw the next facade-assigned event id (journal resume lockstep)."""
        number = self._event_counter
        self._event_counter = number + 1
        return f"event-{number}"

    @property
    def backend(self) -> str:
        """This broker's backend name (e.g. ``"flooding"``)."""
        return self._spec.backend

    @property
    def spec(self) -> "SystemSpec":
        """The spec that rebuilds this broker."""
        return self._spec

    def clock(self) -> float:
        """Logical time: the number of facade operations applied so far.

        The analytic overlays have no simulated clock; a deterministic op
        counter keeps trace timestamps monotonic and replayable.
        """
        return float(self._ops)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    @property
    def _subscriptions(self) -> Dict[str, Subscription]:
        return self.overlay.subscriptions

    def _check_new_name(self, subscription: Subscription) -> None:
        if (subscription.name in self.overlay.subscriptions
                or subscription.name in self._retired):
            raise ValueError(
                f"duplicate subscription name {subscription.name!r}; "
                "subscription names are never reused"
            )

    def subscribe(self, subscription: Subscription,
                  stabilize: bool = True) -> str:
        """Register a subscriber; returns its id (the subscription name)."""
        # Every op is bracketed by the op log (see repro.traces.oplog): the
        # resume gate first, the record only once the op has succeeded.
        handled = self.oplog.replayed("subscribe", subscription, stabilize)
        if handled is not EXECUTE:
            return handled
        self.overlay.check_space(subscription)
        self._check_new_name(subscription)
        issued = self.oplog.now()
        subscriber_id = self.overlay.add_subscriber(subscription)
        self._ops += 1
        self.oplog.record("subscribe", issued, subscription, stabilize)
        return subscriber_id

    def subscribe_all(self, subscriptions: Iterable[Subscription],
                      stabilize: bool = True,
                      bulk: Optional[bool] = None) -> List[str]:
        """Register many subscribers (``bulk`` is accepted and ignored)."""
        subs = list(subscriptions)
        handled = self.oplog.replayed("subscribe_all", subs, stabilize, bulk)
        if handled is not EXECUTE:
            return handled
        ensure_unique_names(subs)
        for sub in subs:
            self.overlay.check_space(sub)
            self._check_new_name(sub)
        issued = self.oplog.now()
        ids = self.overlay.add_all(subs)
        self._ops += 1
        self.oplog.record("subscribe_all", issued, subs, stabilize, bulk)
        return ids

    def _check_known(self, subscriber_id: str) -> None:
        if subscriber_id not in self.overlay.subscriptions:
            raise KeyError(f"unknown subscriber {subscriber_id!r}")

    def unsubscribe(self, subscriber_id: str) -> None:
        """Controlled departure of a subscriber."""
        handled = self.oplog.replayed("unsubscribe", subscriber_id)
        if handled is not EXECUTE:
            return handled
        self._check_known(subscriber_id)
        issued = self.oplog.now()
        self.overlay.remove_subscriber(subscriber_id)
        self._retired.add(subscriber_id)
        self._ops += 1
        self.oplog.record("unsubscribe", issued, subscriber_id)

    def fail(self, subscriber_id: str, stabilize: bool = True) -> None:
        """Crash of a subscriber (indistinguishable from a leave here)."""
        handled = self.oplog.replayed("crash", subscriber_id, stabilize)
        if handled is not EXECUTE:
            return handled
        self._check_known(subscriber_id)
        issued = self.oplog.now()
        self.overlay.remove_subscriber(subscriber_id)
        self._retired.add(subscriber_id)
        self._ops += 1
        self.oplog.record("crash", issued, subscriber_id, stabilize)

    def move_subscription(self, subscriber_id: str,
                          subscription: Subscription,
                          stabilize: bool = True) -> str:
        """Re-subscribe under a fresh name, as the DR-tree facade does."""
        handled = self.oplog.replayed("move", subscriber_id, subscription,
                                      stabilize)
        if handled is not EXECUTE:
            return handled
        self.overlay.check_space(subscription)
        self._check_new_name(subscription)
        self._check_known(subscriber_id)
        issued = self.oplog.now()
        self.overlay.remove_subscriber(subscriber_id)
        self._retired.add(subscriber_id)
        new_id = self.overlay.add_subscriber(subscription)
        self._ops += 1
        self.oplog.record("move", issued, subscriber_id, subscription,
                          stabilize)
        return new_id

    def subscribers(self) -> List[str]:
        """Ids of the live subscribers."""
        return sorted(self.overlay.subscriptions)

    def subscription_of(self, subscriber_id: str) -> Subscription:
        """The filter registered by ``subscriber_id``."""
        return self.overlay.subscriptions[subscriber_id]

    # ------------------------------------------------------------------ #
    # Publishing and reporting
    # ------------------------------------------------------------------ #

    def publish(self, event: Event,
                publisher_id: Optional[str] = None) -> EventOutcome:
        """Publish ``event`` and return its audited delivery outcome.

        Unlike the DR-tree, the analytic overlays disseminate from a fixed
        origin, so ``publisher_id`` defaults to ``None`` (no receiver is
        excused from false-positive accounting as "the producer").
        """
        handled = self.oplog.replayed("publish", event, publisher_id)
        if handled is not EXECUTE:
            return handled
        if not self.overlay.subscriptions:
            raise RuntimeError("cannot publish into an empty system")
        auto = not event.event_id
        if auto:
            event = Event(dict(event.attributes),
                          event_id=self.consume_event_id())
        issued = self.oplog.now()
        outcome = self.accounting.start_event(event, publisher_id,
                                              self.overlay.subscriptions)
        result = self.overlay.disseminate(event)
        for subscriber_id in sorted(result.received):
            subscription = self.overlay.subscriptions.get(subscriber_id)
            if subscription is None:
                continue
            self.accounting.record_delivery(
                subscriber_id, event,
                matched=subscription.matches(event),
                hops=result.hops.get(subscriber_id, result.max_hops))
        self.accounting.record_messages(event.event_id, result.messages)
        self._ops += 1
        self.oplog.record("publish", issued, event, publisher_id, auto=auto)
        return outcome

    def publish_many(self, events: Iterable[Event],
                     publisher_id: Optional[str] = None
                     ) -> List[EventOutcome]:
        """Publish a sequence of events."""
        return [self.publish(event, publisher_id=publisher_id)
                for event in events]

    def stabilize(self, max_rounds: Optional[int] = None) -> None:
        """No-op: the analytic overlays are always converged."""
        handled = self.oplog.replayed("stabilize", max_rounds)
        if handled is not EXECUTE:
            return handled
        issued = self.oplog.now()
        self._ops += 1
        self.oplog.record("stabilize", issued, max_rounds)
        return None

    def summary(self) -> Dict[str, float]:
        """Headline accuracy/cost numbers for everything published so far."""
        return self.accounting.summary(len(self.overlay.subscriptions))

    # ------------------------------------------------------------------ #
    # Snapshot capability
    # ------------------------------------------------------------------ #

    #: The analytic overlays are plain picklable state, so the baselines
    #: support the snapshot capability too (journaled baseline runs resume).
    CAPABILITIES = frozenset({"snapshot"})

    def quiescent(self) -> bool:
        """Always true: the analytic overlays have no in-flight work."""
        return True

    def snapshot(self) -> bytes:
        """Serialize overlay, accounting and counters."""
        return snapshots.dump({
            "kind": "baseline",
            "backend": self.backend,
            "overlay": self.overlay,
            "accounting": self.accounting,
            "retired": self._retired,
            "ops": self._ops,
            "event_counter": self._event_counter,
        })

    def restore(self, blob: bytes) -> None:
        """Adopt a :meth:`snapshot` blob taken on an identically specced broker."""
        payload = snapshots.load(blob, "baseline", self.backend)
        self.overlay = payload["overlay"]
        self.accounting = payload["accounting"]
        self._retired = payload["retired"]
        self._ops = payload["ops"]
        self._event_counter = payload["event_counter"]
