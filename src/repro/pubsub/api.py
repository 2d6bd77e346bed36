"""The publish/subscribe facade.

:class:`PubSubSystem` is the DR-tree implementation of the
:class:`~repro.api.broker.Broker` protocol — the public entry point a
downstream user would adopt: it hides the simulation machinery and exposes
the operations of a content-based publish/subscribe service — ``subscribe``,
``unsubscribe``, ``publish``, ``fail``, ``move_subscription`` — plus full
delivery accounting.

Every ``Broker`` verb is written once, here: its op-log bracket, its input
checks and the event-id rule.  What a verb does to the overlay goes through
six hooks (``_name_taken``, ``_is_fresh``, ``_add``, ``_remove``,
``_disseminate``, ``_repair``), which
:class:`~repro.baselines.broker.BaselineBroker` overrides for the analytic
baselines, so both broker families accept and reject exactly the same
inputs.

The engine is a row of the backend table (:mod:`repro.api.registry`):
``engine="classic"`` or ``"batched"`` (two names for one in-process
simulator whose messages join per-round delivery queues), ``"sharded"``
(worker processes) or ``"net"`` (real sockets) selects the simulation this
facade drives.

Example
-------
>>> from repro.pubsub import PubSubSystem
>>> from repro.spatial.filters import make_space, subscription_from_intervals, Event
>>> space = make_space("price", "volume")
>>> system = PubSubSystem(space)
>>> system.subscribe(subscription_from_intervals(
...     "alice", space, {"price": (0, 100), "volume": (0, 50)}))
'alice'
>>> outcome = system.publish(Event({"price": 42.0, "volume": 7.0}, event_id="e0"))
>>> "alice" in outcome.received
True
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Union)

from repro import snapshot as snapshots
from repro.api.capabilities import (SnapshotNotQuiescentError,
                                    SnapshotStateError)
from repro.api.options import EngineOptions
from repro.api.registry import drtree_engine
from repro.overlay.bootstrap import BULK_THRESHOLD
from repro.overlay.config import DRTreeConfig
from repro.pubsub.accounting import DeliveryAccounting, EventOutcome
from repro.pubsub.matching import SubscriptionIndex
from repro.spatial.filters import (AttributeSpace, Event, Subscription,
                                   ensure_same_space, ensure_unique_names)
from repro.traces.oplog import EXECUTE, OpLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import SystemSpec
    from repro.overlay.verifier import VerificationReport


class PubSubSystem:
    """A content-based publish/subscribe service backed by a DR-tree overlay."""

    def __init__(
        self,
        space: AttributeSpace,
        config: Optional[DRTreeConfig] = None,
        seed: int = 0,
        stabilize_rounds: int = 30,
        engine: str = "classic",
        engine_options: Optional[Union[Mapping[str, object],
                                       EngineOptions]] = None,
    ) -> None:
        """``engine`` names a ``drtree:<engine>`` row of the backend table.

        ``"classic"`` and ``"batched"`` are one simulator and produce
        identical outputs.  ``"sharded"`` partitions the peers across worker
        processes: it delivers the same events, with message counts equal
        to classic's for a bulk load and publishes only (after a join,
        departure or crash its repaired tree can differ; see
        ``docs/architecture.md``).  ``engine_options`` passes
        engine-specific construction knobs (e.g. ``{"shards": 4}`` for the
        sharded engine), validated against the engine's typed option set
        (:class:`~repro.api.options.EngineOptions`); unknown names and
        invalid values raise ``ValueError`` naming the allowed keys.  An
        instance of that option set is accepted as well, and is recorded
        as the mapping of its non-default fields.
        """
        engine_spec = drtree_engine(engine)
        self.config = config if config is not None else DRTreeConfig()
        self.engine_name = engine_spec.engine
        if isinstance(engine_options, EngineOptions):
            self.engine_options = engine_options.to_mapping()
        else:
            self.engine_options = dict(engine_options or {})
        # Instance-level override of the class default: the engine decides
        # what this broker genuinely supports (the real-network engine has
        # no snapshot capability).
        self.CAPABILITIES = frozenset(engine_spec.capabilities)
        self.simulation = engine_spec.build_simulation(self.config, seed,
                                                       engine_options)
        # The live membership *and* the ground-truth oracle: one mapping,
        # kept current by the membership hooks below and by nothing else.
        self._subscriptions = SubscriptionIndex(space)
        self._init_facade(space, stabilize_rounds)

    def _init_facade(self, space: AttributeSpace,
                     stabilize_rounds: int) -> None:
        """Set the state every broker family shares; attach the op log last.

        Inside a repro.traces recording() context every facade operation is
        captured to the active trace; inside a repro.journal journaling()
        context it is additionally appended durably to the journal.  Both
        observers are purely observational, so observed and unobserved runs
        are bit-identical.  The log attaches *after* every other piece of
        state is in place: a resume-mode journal re-executes journaled ops
        through this facade while attach() runs.
        """
        self.space = space
        self.accounting = DeliveryAccounting()
        self.stabilize_rounds = stabilize_rounds
        #: The number of the next facade-assigned event id.
        self._event_counter = 0
        self.oplog = OpLog(self)
        self.oplog.attach()

    def detach_tape(self) -> None:
        """Stop taping; called when the enclosing recording context exits."""
        self.oplog.detach()

    def consume_event_id(self) -> str:
        """Draw the next facade-assigned event id.

        Used by the journal resume machinery to keep the id counter in
        lockstep while replaying publishes whose ids this facade assigned.
        """
        number = self._event_counter
        self._event_counter = number + 1
        return f"event-{number}"

    @property
    def backend(self) -> str:
        """This broker's backend name (``drtree:<engine>``)."""
        return f"drtree:{self.engine_name}"

    @property
    def spec(self) -> "SystemSpec":
        """The :class:`~repro.api.spec.SystemSpec` that rebuilds this system."""
        from repro.api.spec import SystemSpec

        return SystemSpec(
            space=self.space,
            backend=self.backend,
            config=self.config,
            seed=int(self.simulation.streams.master_seed),
            stabilize_rounds=self.stabilize_rounds,
            engine_options=dict(self.engine_options) or None,
        )

    def clock(self) -> float:
        """Current simulated time of the underlying discrete-event engine."""
        return float(self.simulation.engine.now)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def subscribe(self, subscription: Subscription,
                  stabilize: bool = True) -> str:
        """Register a subscriber; returns its id (the subscription name)."""
        # Every op is bracketed by the op log the same way (see
        # repro.traces.oplog): the resume gate first, before validation;
        # the record last, only once the op has succeeded.
        handled = self.oplog.replayed("subscribe", subscription, stabilize)
        if handled is not EXECUTE:
            return handled
        self._check_new(subscription)
        issued = self.oplog.now()
        [subscriber_id] = self._add([subscription], bulk=False)
        self._repair(stabilize)
        self.oplog.record("subscribe", issued, subscription, stabilize)
        return subscriber_id

    def _check_new(self, subscription: Subscription) -> None:
        ensure_same_space(self.space, subscription)
        # Names are never reused (the simulator's peer ids outlive a crash),
        # so the reservation check runs against every name ever taken, not
        # just the live subscriptions.
        if self._name_taken(subscription.name):
            raise ValueError(
                f"duplicate subscription name {subscription.name!r}; "
                "subscription names are never reused"
            )

    def subscribe_all(self, subscriptions: Iterable[Subscription],
                      stabilize: bool = True,
                      bulk: Optional[bool] = None) -> List[str]:
        """Register many subscribers, then stabilize once.

        Into an empty system, populations at or above
        :data:`~repro.overlay.bootstrap.BULK_THRESHOLD` take the STR
        bulk-load fast path: the overlay is laid out directly in
        ``O(n log n)`` instead of running one join cascade per subscriber.
        ``bulk=False`` forces the join protocol; ``bulk=True`` forces the
        fast path and raises if the system has ever had subscribers (the
        bootstrap can only lay out a tree from scratch) — on every backend,
        although the analytic baselines have no fast path to force.
        """
        subs = list(subscriptions)
        handled = self.oplog.replayed("subscribe_all", subs, stabilize, bulk)
        if handled is not EXECUTE:
            return handled
        # _check_new sees only already-taken names; duplicates *within*
        # this batch need the shared upfront guard so the call raises
        # before any subscriber is registered.
        ensure_unique_names(subs)
        for sub in subs:
            self._check_new(sub)
        if bulk and not self._is_fresh():
            raise ValueError(
                "bulk subscribe_all requires an empty system; pass the whole "
                "population at once or use bulk=False"
            )
        issued = self.oplog.now()
        ids = self._add(subs, bulk)
        self._repair(stabilize)
        self.oplog.record("subscribe_all", issued, subs, stabilize, bulk)
        return ids

    def _check_known(self, subscriber_id: str) -> None:
        # The Broker protocol promises KeyError for unknown (or already
        # retired) ids *before* any state changes.
        if subscriber_id not in self._subscriptions:
            raise KeyError(f"unknown subscriber {subscriber_id!r}")

    def unsubscribe(self, subscriber_id: str) -> None:
        """Controlled departure of a subscriber."""
        handled = self.oplog.replayed("unsubscribe", subscriber_id)
        if handled is not EXECUTE:
            return handled
        self._check_known(subscriber_id)
        issued = self.oplog.now()
        self._remove(subscriber_id, crash=False)
        self._repair(True)
        self.oplog.record("unsubscribe", issued, subscriber_id)

    def fail(self, subscriber_id: str, stabilize: bool = True) -> None:
        """Uncontrolled departure (crash) of a subscriber."""
        handled = self.oplog.replayed("crash", subscriber_id, stabilize)
        if handled is not EXECUTE:
            return handled
        self._check_known(subscriber_id)
        issued = self.oplog.now()
        self._remove(subscriber_id, crash=True)
        self._repair(stabilize)
        self.oplog.record("crash", issued, subscriber_id, stabilize)

    def move_subscription(self, subscriber_id: str,
                          subscription: Subscription,
                          stabilize: bool = True) -> str:
        """Move a subscriber: leave with the old filter, rejoin with a new one.

        This models mobility (a moving-range subscription): the subscriber
        departs in a controlled way and immediately re-subscribes under the
        new filter's name.  Returns the new subscriber id.  The new
        subscription must use a fresh name — peer ids are never reused by the
        simulator, and a duplicate name raises ``ValueError`` here, before
        the old subscriber has left.
        """
        handled = self.oplog.replayed("move", subscriber_id, subscription,
                                      stabilize)
        if handled is not EXECUTE:
            return handled
        self._check_new(subscription)
        self._check_known(subscriber_id)
        issued = self.oplog.now()
        self._remove(subscriber_id, crash=False)
        [new_id] = self._add([subscription], bulk=False)
        self._repair(stabilize)
        self.oplog.record("move", issued, subscriber_id, subscription,
                          stabilize)
        return new_id

    def subscribers(self) -> List[str]:
        """Ids of the live subscribers."""
        return sorted(self._subscriptions)

    def subscription_of(self, subscriber_id: str) -> Subscription:
        """The filter registered by ``subscriber_id``."""
        return self._subscriptions[subscriber_id]

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #

    def publish(self, event: Event,
                publisher_id: Optional[str] = None) -> EventOutcome:
        """Publish ``event`` and return its delivery outcome.

        ``publisher_id``, when given, must be a live subscriber; it defaults
        to the lexicographically smallest matching subscriber id when one
        exists (the paper's model: producers are nodes of the tree), falling
        back to the current root.
        """
        handled = self.oplog.replayed("publish", event, publisher_id)
        if handled is not EXECUTE:
            return handled
        if not self._subscriptions:
            raise RuntimeError("cannot publish into an empty system")
        # Everything that can reject the call comes first: a publish that
        # raises must not draw an event id or register an outcome.  Only a
        # live subscriber publishes: a departed or crashed one would send
        # nothing.
        if publisher_id and publisher_id not in self._subscriptions:
            raise KeyError(f"unknown publisher {publisher_id!r}")
        event.to_point(self.space)
        # ``auto`` tells the journal that this facade assigned the event id,
        # so a resume can keep the id counter in lockstep.
        auto = not event.event_id
        if auto:
            event = Event(dict(event.attributes),
                          event_id=self.consume_event_id())
        issued = self.oplog.now()
        outcome = self.accounting.start_event(event, publisher_id,
                                              self._subscriptions)
        messages = self._disseminate(event, outcome)
        self.accounting.record_messages(event.event_id, messages)
        # Taped with the resolved id and publisher so a replay re-issues
        # exactly this publication, not the resolution inputs.
        self.oplog.record("publish", issued, event, outcome.publisher_id,
                          auto=auto)
        return outcome

    def publish_many(self, events: Iterable[Event],
                     publisher_id: Optional[str] = None) -> List[EventOutcome]:
        """Publish a sequence of events, each exactly as :meth:`publish` does."""
        return [self.publish(event, publisher_id) for event in events]

    # ------------------------------------------------------------------ #
    # The overlay hooks: what one backend family does for the verbs above
    # ------------------------------------------------------------------ #

    def _name_taken(self, name: str) -> bool:
        """Whether ``name`` was ever a subscriber (live, departed or crashed)."""
        return name in self.simulation.peers

    def _is_fresh(self) -> bool:
        """Whether no subscriber was ever registered."""
        return not self.simulation.peers

    def _add(self, subscriptions: Sequence[Subscription],
             bulk: Optional[bool]) -> List[str]:
        """Register validated subscribers as peers; ``bulk`` as in subscribe_all."""
        use_bulk = (bulk if bulk is not None
                    else self._is_fresh()
                    and len(subscriptions) >= BULK_THRESHOLD)
        if use_bulk:
            # The simulation owns its bulk-load strategy: the single-process
            # engines run the STR bootstrap in place, the sharded engine
            # partitions the same layout across its workers.
            self.simulation.bulk_load(subscriptions)
        ids = []
        for sub in subscriptions:
            peer = (self.simulation.peer(sub.name) if use_bulk
                    else self.simulation.add_peer(sub))
            peer.delivery_listener = self.accounting.record_delivery
            self._subscriptions[peer.process_id] = sub
            ids.append(peer.process_id)
        return ids

    def _remove(self, subscriber_id: str, crash: bool) -> None:
        """Take a known subscriber out: a controlled leave or a crash."""
        if crash:
            self.simulation.crash(subscriber_id)
        else:
            self.simulation.leave(subscriber_id)
        self._subscriptions.pop(subscriber_id, None)

    def _disseminate(self, event: Event, outcome: EventOutcome) -> int:
        """Route one validated event; return the messages it cost."""
        publisher_id = outcome.publisher_id
        if not publisher_id:
            # The ground truth was just computed; the default producer is
            # its smallest id.  Set before dissemination: the publisher is
            # excused from false-positive accounting.
            publisher_id = outcome.publisher_id = (
                min(outcome.intended) if outcome.intended
                else self._fallback_publisher())
        counter = self.simulation.metrics.counter
        before = counter("network.messages_sent")
        self.simulation.publish(publisher_id, event)
        return int(counter("network.messages_sent") - before)

    def _fallback_publisher(self) -> str:
        """The producer of an event no subscriber matches: the root."""
        root = self.simulation.root()
        if root is not None:
            return root.process_id
        return min(self._subscriptions)

    def _repair(self, run: bool, max_rounds: Optional[int] = None
                ) -> Optional["VerificationReport"]:
        """Close a membership op or ``stabilize``: repair the overlay if ``run``.

        Every repair the facade runs goes through here, so its report is
        read in one place: a repair that ends illegal has hit its round cap,
        and counts ``stabilize.capped`` in the simulation's metrics.
        """
        if not run:
            return None
        report = self.simulation.stabilize(
            max_rounds=max_rounds or self.stabilize_rounds)
        if not report.is_legal:
            self.simulation.metrics.increment("stabilize.capped")
        return report

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def stabilize(self, max_rounds: Optional[int] = None):
        """Run stabilization rounds until the overlay is legal again."""
        handled = self.oplog.replayed("stabilize", max_rounds)
        if handled is not EXECUTE:
            return handled
        issued = self.oplog.now()
        report = self._repair(True, max_rounds)
        self.oplog.record("stabilize", issued, max_rounds)
        return report

    def summary(self) -> Dict[str, float]:
        """Headline accuracy/cost numbers for everything published so far.

        Engines with a real transport (``drtree:net``) additionally expose
        ``net_``-prefixed retry/timeout/condition counters through their
        ``transport_summary()``; the shared delivery columns keep their
        names so cross-backend comparisons are unaffected.
        """
        data = self.accounting.summary(len(self._subscriptions))
        transport = getattr(self.simulation, "transport_summary", None)
        if transport is not None:
            data.update(transport())
        return data

    def overlay_height(self) -> int:
        """Current height of the DR-tree."""
        return self.simulation.height()

    # ------------------------------------------------------------------ #
    # Snapshot capability
    # ------------------------------------------------------------------ #

    #: Capabilities advertised to :mod:`repro.api.capabilities` helpers.
    #: Class-level default; ``__init__`` overrides it per instance with the
    #: engine's advertised set.
    CAPABILITIES = frozenset({"snapshot"})

    def close(self) -> None:
        """Release engine resources (threads, sockets) if the engine holds any.

        The simulated engines are plain object graphs and need no teardown;
        the real-network engine shuts down its event loop, servers and
        connections.  Safe to call more than once.
        """
        close = getattr(self.simulation, "close", None)
        if close is not None:
            close()

    def quiescent(self) -> bool:
        """True when no simulated messages or timers are in flight."""
        return not self.simulation.has_pending()

    def snapshot(self) -> bytes:
        """Serialize the full broker state (overlay, accounting, counters).

        The peers' delivery listeners are wiring, not state: they are left
        out, and :meth:`restore` installs this broker's own.
        """
        if not self.quiescent():
            raise SnapshotNotQuiescentError(
                "cannot snapshot while simulated work is in flight; every "
                "facade operation settles the engine, so snapshot between "
                "operations")
        with snapshots.listeners_left_out(self.simulation.peers.values()):
            return snapshots.dump({
                "kind": "pubsub",
                "backend": self.backend,
                "subscriptions": dict(self._subscriptions),
                "accounting": self.accounting,
                "event_counter": self._event_counter,
                "sim": self.simulation.snapshot_state(),
            })

    def restore(self, blob: bytes) -> None:
        """Adopt a :meth:`snapshot` blob taken on an identically specced broker."""
        payload = snapshots.load(blob, "pubsub", self.backend)
        try:
            subscriptions = SubscriptionIndex(self.space,
                                              payload["subscriptions"])
        except (AttributeError, TypeError, ValueError) as exc:
            raise SnapshotStateError(
                f"snapshot subscriptions do not fit this broker: {exc}"
            ) from exc
        self.simulation = self.simulation.restore_state(payload["sim"])
        self._subscriptions = subscriptions
        self.accounting = payload["accounting"]
        self._event_counter = payload["event_counter"]
        snapshots.install_listener(self.simulation.peers.values(),
                                  self.accounting.record_delivery)
