"""Message delivery between simulated processes.

The network owns the registry of live processes and delivers every message
after a fixed ``delay``.  A message from or to a crashed process is dropped,
as after an *uncontrolled departure*.  Every other fault — message loss, extra latency,
reordering, duplication and timed partitions — comes from an optional
:class:`~repro.sim.conditions.NetConditions` spec, the one fault model
``drtree:net``'s socket runtime applies too.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Set, Tuple, TYPE_CHECKING, Union)

from repro.sim.conditions import ConditionPipeline, NetConditions
from repro.sim.engine import ScheduledEvent, SimulationEngine
from repro.sim.messages import Message
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process


@lru_cache(maxsize=None)
def _kind_counter(kind: str) -> str:
    """The ``network.messages.<kind>`` counter name, formatted once per kind."""
    return f"network.messages.{kind}"


class Network:
    """The message transport connecting all simulated processes."""

    def __init__(
        self,
        engine: SimulationEngine,
        delay: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
        conditions: Union[None, str, Mapping[str, Any], NetConditions] = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.engine = engine
        self.delay = delay
        self.metrics = metrics or MetricsRegistry()
        spec = NetConditions.coerce(conditions)
        #: The per-link decision pipeline, or ``None`` when no spec (or a
        #: transparent one) can alter a message.  ``streams`` seeds its
        #: per-link RNG streams.
        self.pipeline: Optional[ConditionPipeline] = None
        if spec is not None and not spec.is_transparent:
            self.pipeline = ConditionPipeline(
                spec, streams or RandomStreams(0), scope="network.conditions")
        #: Per-round delivery queues: delivery time -> (messages, engine
        #: entry).  Without a pipeline every message landing at the same
        #: instant appends to one buffer and grows one engine entry, so a
        #: whole round — fan-outs, stabilization and join traffic alike —
        #: costs a single scheduling operation.  With one, each delay a send
        #: or a fan-out is given gets its own engine entry instead.
        self._rounds: Dict[float, Tuple[List[Message], ScheduledEvent]] = {}
        self._processes: Dict[str, "Process"] = {}
        self._crashed: Set[str] = set()
        self._taps: List[Callable[[Message], None]] = []
        #: The receivers' de-dup tables filled since the last
        #: :meth:`forget_receptions`.
        self._held_receptions: List[Dict[str, bool]] = []

    # ------------------------------------------------------------------ #
    # Process registry
    # ------------------------------------------------------------------ #

    def register(self, process: "Process") -> None:
        """Attach a process to the network."""
        if process.process_id in self._processes:
            raise ValueError(f"duplicate process id {process.process_id!r}")
        self._processes[process.process_id] = process
        self._crashed.discard(process.process_id)

    def unregister(self, process_id: str) -> None:
        """Detach a process (it stops receiving messages)."""
        self._processes.pop(process_id, None)

    def process(self, process_id: str) -> "Process":
        """Look up a registered process by id."""
        return self._processes[process_id]

    def processes(self) -> Dict[str, "Process"]:
        """A copy of the registry (id → process)."""
        return dict(self._processes)

    def live_process_ids(self) -> List[str]:
        """Ids of registered, non-crashed processes."""
        return sorted(pid for pid in self._processes if pid not in self._crashed)

    def is_live(self, process_id: str) -> bool:
        """True when the process is registered and has not crashed."""
        return process_id in self._processes and process_id not in self._crashed

    # ------------------------------------------------------------------ #
    # Failure control
    # ------------------------------------------------------------------ #

    def crash(self, process_id: str) -> None:
        """Mark a process as crashed; all messages to it are silently dropped."""
        self._crashed.add(process_id)

    def recover(self, process_id: str) -> None:
        """Clear the crashed flag of a process."""
        self._crashed.discard(process_id)

    def crashed_ids(self) -> Set[str]:
        """The set of crashed process ids."""
        return set(self._crashed)

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #

    def add_tap(self, tap: Callable[[Message], None]) -> None:
        """Register an observer invoked for every message handed to send()."""
        self._taps.append(tap)

    def send(self, message: Message) -> None:
        """Send a message; it is delivered after the network's delay."""
        now = message.sent_at = self.engine.now
        metrics = self.metrics
        metrics.increment("network.messages_sent")
        metrics.increment(_kind_counter(message.kind))
        if self._taps:
            for tap in self._taps:
                tap(message)
        if message.sender in self._crashed:
            metrics.increment("network.messages_dropped")
        elif self.pipeline is None:
            self._enqueue_round(now + self.delay, [message])
        else:
            self._schedule_decided([message])

    def send_many(self, sender: str, recipients: Sequence[str], kind: str,
                  payload: Dict[str, Any]) -> None:
        """Send one ``kind`` message from ``sender`` to each of ``recipients``.

        Every envelope shares ``payload``; receivers treat it as read-only.
        The per-message bookkeeping (taps, crashed-sender drops, the
        pipeline's verdict) is that of one :meth:`send` per recipient, but
        the fan-out is accounted once and scheduled as a whole.

        Ordering note: without a pipeline the fan-out joins the per-round
        delivery queue of its instant, like every other message :meth:`send`
        puts in flight there, so same-instant deliveries run in send order
        as one engine entry.  With one, the fan-out gets one engine entry per
        delay its verdicts give, which keeps the per-message global delivery
        order bit for bit.
        """
        if not recipients:
            return
        now = self.engine.now
        messages = [Message(sender, recipient, kind, payload, now)
                    for recipient in recipients]
        metrics = self.metrics
        metrics.increment("network.messages_sent", len(messages))
        metrics.increment(_kind_counter(kind), len(messages))
        if self._taps:
            for message in messages:
                for tap in self._taps:
                    tap(message)
        if sender in self._crashed:
            metrics.increment("network.messages_dropped", len(messages))
        elif self.pipeline is None:
            self._enqueue_round(now + self.delay, messages)
        else:
            self._schedule_decided(messages)

    def _schedule_decided(self, messages: List[Message]) -> None:
        """Schedule ``messages`` by the pipeline's verdict on each.

        A dropped message counts under ``network.messages_<reason>``
        (``lost``, ``partitioned`` or ``drop_first``).  A delivered one is
        due after the network's delay plus the verdict's, one engine entry
        per distinct delay, ordered among all others by sequence number.  A
        duplicated one is counted and delivered once: the receiver's de-dup
        guard would drop the copy, as it does on ``drtree:net``.
        """
        decide = self.pipeline.decide
        metrics = self.metrics
        groups: Dict[float, List[Message]] = {}
        for message in messages:
            decision = decide(message.sender, message.recipient,
                              message.sent_at)
            if decision.drop is not None:
                metrics.increment(f"network.messages_{decision.drop}")
                continue
            if decision.copies > 1:
                metrics.increment("network.messages_duplicated")
            groups.setdefault(self.delay + decision.delay, []).append(message)
        for delay, group in groups.items():
            self.engine.schedule(
                delay,
                lambda batch=group: self._deliver_many(batch),
                count=len(group),
            )

    def _enqueue_round(self, time: float, messages: List[Message]) -> None:
        """Append ``messages`` to the per-round delivery queue at ``time``.

        Every message of a network without a pipeline — a single
        :meth:`send` or a :meth:`send_many` fan-out — arrives here after the
        per-message rules ran, so a transport that delivers elsewhere (a
        shard's cross-shard capture, the real-socket runtime) overrides this
        one step.
        """
        queued = self._rounds.get(time)
        if queued is None:
            entry = self.engine.schedule(
                time - self.engine.now,
                lambda when=time: self._deliver_round(when),
                count=len(messages),
            )
            self._rounds[time] = (messages, entry)
        else:
            buffer, entry = queued
            buffer.extend(messages)
            self.engine.grow_batch(entry, len(messages))

    def _deliver_round(self, time: float) -> None:
        """Deliver every message queued for the round at ``time``."""
        messages, _ = self._rounds.pop(time)
        self._deliver_many(messages)

    def _deliver_many(self, messages: List[Message]) -> None:
        """Deliver one batch, dropping each envelope as it is handled.

        The slot is cleared before the handler runs, so a round's envelopes
        are freed one by one while the next round is being built instead of
        all staying alive until the last handler returns.
        """
        processes = self._processes
        crashed = self._crashed
        delivered = dropped = 0
        for index, message in enumerate(messages):
            messages[index] = None
            recipient = processes.get(message.recipient)
            if recipient is None or message.recipient in crashed:
                dropped += 1
            else:
                delivered += 1
                recipient.handle_message(message)
        if delivered:
            self.metrics.increment("network.messages_delivered", delivered)
        if dropped:
            self.metrics.increment("network.messages_dropped", dropped)

    # ------------------------------------------------------------------ #
    # In-flight reception records
    # ------------------------------------------------------------------ #

    def hold_receptions(self, table: Dict[str, bool]) -> None:
        """Keep a receiver's de-dup table, which just got its first entry."""
        self._held_receptions.append(table)

    def forget_receptions(self) -> None:
        """Empty every held de-dup table: the events they name have settled.

        Called once the operation that published them has settled, so a
        receiver de-duplicates an event only while it is in flight.
        """
        for table in self._held_receptions:
            table.clear()
        self._held_receptions = []
