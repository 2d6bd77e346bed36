"""Baseline overlays behind the :class:`~repro.api.broker.Broker` protocol.

A :class:`BaselineBroker` wraps one analytic
:class:`~repro.baselines.base.BaselineOverlay` (flooding, centralized,
per-dimension, containment-tree) in the DR-tree system's own facade: it
subclasses :class:`~repro.pubsub.api.PubSubSystem`, inherits every
``Broker`` verb — op-log bracket, input checks and event-id rule included —
and supplies only the overlay hooks those verbs call, its state, ``summary``
and its snapshot pair.  Both families therefore accept and reject exactly
the same inputs, and share one
:class:`~repro.pubsub.accounting.DeliveryAccounting`: false positives,
false negatives, message costs and hop counts are computed by one code path
for every backend, so the paper's E10 accuracy/cost comparison (and the
``backend_matrix`` scenario) is a sweep over one API.

The analytic overlays have no message-passing simulator underneath, so a
repair is a no-op (``stabilize`` returns ``None``), churn (``fail``)
collapses to a controlled removal, ``bulk`` has no fast path to select,
the default publisher is ``None`` (no receiver is excused from
false-positive accounting as "the producer"), and the broker's
:meth:`~BaselineBroker.clock` is an operation counter rather than
simulated time — enough for trace recording and replay
(:mod:`repro.traces`) to treat both broker families identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro import snapshot as snapshots
from repro.baselines.base import BaselineOverlay
from repro.pubsub.accounting import EventOutcome
from repro.pubsub.api import PubSubSystem
from repro.spatial.filters import Event, Subscription

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import SystemSpec


class BaselineBroker(PubSubSystem):
    """A baseline overlay speaking the full ``Broker`` protocol."""

    def __init__(self, spec: "SystemSpec", overlay: BaselineOverlay) -> None:
        if overlay.space is None:
            overlay.space = spec.space
        self.overlay = overlay
        self._spec = spec
        self._ops = 0
        # Names of subscribers that ever left: like the simulator's peer
        # ids, subscription names are never reused.
        self._retired: set = set()
        self._init_facade(spec.space, spec.stabilize_rounds)

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

    @property
    def _subscriptions(self) -> Dict[str, Subscription]:
        return self.overlay.subscriptions

    # ------------------------------------------------------------------ #
    # The overlay hooks of the inherited verbs
    # ------------------------------------------------------------------ #

    def _name_taken(self, name: str) -> bool:
        return name in self.overlay.subscriptions or name in self._retired

    def _is_fresh(self) -> bool:
        return not self.overlay.subscriptions and not self._retired

    def _add(self, subscriptions: Sequence[Subscription],
             bulk: Optional[bool]) -> List[str]:
        return self.overlay.add_all(subscriptions)

    def _remove(self, subscriber_id: str, crash: bool) -> None:
        # A crash is indistinguishable from a leave here.
        self.overlay.remove_subscriber(subscriber_id)
        self._retired.add(subscriber_id)

    def _disseminate(self, event: Event, outcome: EventOutcome) -> int:
        result = self.overlay.disseminate(event)
        for subscriber_id in sorted(result.received):
            subscription = self.overlay.subscriptions.get(subscriber_id)
            if subscription is None:
                continue
            self.accounting.record_delivery(
                subscriber_id, event,
                matched=subscription.matches(event),
                hops=result.hops.get(subscriber_id, result.max_hops))
        self._ops += 1
        return result.messages

    def _repair(self, run: bool, max_rounds: Optional[int] = None) -> None:
        # The analytic overlays are always converged.  Every op except a
        # publish ends here exactly once, so this is where the op clock
        # advances (a move is one tick).
        self._ops += 1

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, float]:
        """Headline accuracy/cost numbers for everything published so far."""
        return self.accounting.summary(len(self.overlay.subscriptions))

    def overlay_height(self) -> int:
        """Not defined: the analytic baselines are not a DR-tree."""
        raise NotImplementedError(
            f"{self.backend} has no DR-tree height; overlay_height() is "
            "defined on the drtree backends only")

    # ------------------------------------------------------------------ #
    # Snapshot capability
    # ------------------------------------------------------------------ #

    # The analytic overlays are plain picklable state, so the baselines keep
    # the inherited snapshot capability (journaled baseline runs resume).

    def close(self) -> None:
        """Nothing to release: the analytic overlays hold no resources."""

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
