"""Message delivery between simulated processes.

The network owns the registry of live processes and delivers messages with a
configurable latency model.  It also implements the failure modes needed by
the stabilization experiments: message loss, crashed recipients (messages to
a crashed process are dropped, as after an *uncontrolled departure*), and
network partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple, TYPE_CHECKING)

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


class LatencyModel:
    """Interface of per-message latency models."""

    def sample(self) -> float:
        """Latency of the next message, in simulated time units."""
        raise NotImplementedError


@dataclass
class FixedLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units."""

    delay: float = 1.0

    def sample(self) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]`` using a named RNG stream."""

    def __init__(self, low: float, high: float, streams: RandomStreams) -> None:
        if low < 0 or high < low:
            raise ValueError("need 0 <= low <= high")
        self.low = low
        self.high = high
        self._rng = streams.stream("network.latency")

    def sample(self) -> float:
        return self._rng.uniform(self.low, self.high)


class Network:
    """The message transport connecting all simulated processes."""

    def __init__(
        self,
        engine: SimulationEngine,
        latency: Optional[LatencyModel] = None,
        metrics: Optional[MetricsRegistry] = None,
        loss_rate: float = 0.0,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.engine = engine
        self.latency = latency or FixedLatency(1.0)
        self.metrics = metrics or MetricsRegistry()
        self.loss_rate = loss_rate
        #: Per-round delivery queues: delivery time -> (messages, engine
        #: entry).  On a lossless ``FixedLatency`` network every message
        #: landing at the same instant appends to one buffer and grows one
        #: engine entry, so a whole round — fan-outs, stabilization and join
        #: traffic alike — costs a single scheduling operation.  Under loss
        #: or a sampling latency model each message (or each delay a fan-out
        #: samples) gets its own engine entry instead.
        self._rounds: Dict[float, Tuple[List[Message], ScheduledEvent]] = {}
        self._streams = streams or RandomStreams(0)
        self._loss_rng = self._streams.stream("network.loss")
        self._processes: Dict[str, "Process"] = {}
        self._crashed: Set[str] = set()
        self._partitions: List[Set[str]] = []
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

    def partition(self, groups: List[Set[str]]) -> None:
        """Install a partition: messages across groups are dropped."""
        self._partitions = [set(group) for group in groups]

    def heal_partition(self) -> None:
        """Remove any installed partition."""
        self._partitions = []

    def _partitioned(self, sender: str, recipient: str) -> bool:
        if not self._partitions:
            return False
        for group in self._partitions:
            if sender in group and recipient in group:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #

    def add_tap(self, tap: Callable[[Message], None]) -> None:
        """Register an observer invoked for every message handed to send()."""
        self._taps.append(tap)

    def send(self, message: Message) -> None:
        """Send a message; it is delivered after the latency model's delay."""
        now = message.sent_at = self.engine.now
        metrics = self.metrics
        metrics.increment("network.messages_sent")
        metrics.increment(_kind_counter(message.kind))
        if self._taps:
            for tap in self._taps:
                tap(message)
        if message.sender in self._crashed:
            metrics.increment("network.messages_dropped")
            return
        if self.loss_rate and self._loss_rng.random() < self.loss_rate:
            metrics.increment("network.messages_lost")
            return
        if self._partitions and self._partitioned(message.sender,
                                                  message.recipient):
            metrics.increment("network.messages_partitioned")
            return
        latency = self.latency
        if not self.loss_rate and type(latency) is FixedLatency:
            self._enqueue_round(now + latency.delay, [message])
        else:
            self.engine.schedule(latency.sample(),
                                 lambda: self._deliver(message))

    def send_many(self, sender: str, recipients: Sequence[str], kind: str,
                  payload: Dict[str, Any]) -> None:
        """Send one ``kind`` message from ``sender`` to each of ``recipients``.

        Every envelope shares ``payload``; receivers treat it as read-only.
        The per-message bookkeeping (taps, crash/loss/partition filtering,
        latency sampling) is that of one :meth:`send` per recipient, but the
        fan-out is accounted once and scheduled as a whole.

        Ordering note: on a lossless fixed-latency network the fan-out joins
        the per-round delivery queue of its instant, like every other
        message :meth:`send` puts in flight there, so same-instant
        deliveries run in send order as one engine entry.  That merge is
        outcome-neutral exactly because no per-message randomness exists to
        reorder; as soon as the network consumes RNG at send time
        (``loss_rate > 0``, or a sampling latency model), the fan-out gets
        one engine entry per delay it samples instead, which preserves the
        per-message global delivery order — and therefore the RNG draw
        order — bit for bit.
        """
        if not recipients:
            return
        now = self.engine.now
        messages = [Message(sender, recipient, kind, payload, now)
                    for recipient in recipients]
        metrics = self.metrics
        metrics.increment("network.messages_sent", len(messages))
        metrics.increment(_kind_counter(kind), len(messages))
        if (not self._taps and sender not in self._crashed
                and not self.loss_rate and not self._partitions):
            # Fast path: nothing can filter the batch.
            deliverable = messages
        else:
            dropped = lost = partitioned = 0
            deliverable = []
            for message in messages:
                for tap in self._taps:
                    tap(message)
                if sender in self._crashed:
                    dropped += 1
                elif self.loss_rate and self._loss_rng.random() < self.loss_rate:
                    lost += 1
                elif self._partitions and self._partitioned(sender,
                                                            message.recipient):
                    partitioned += 1
                else:
                    deliverable.append(message)
            if dropped:
                metrics.increment("network.messages_dropped", dropped)
            if lost:
                metrics.increment("network.messages_lost", lost)
            if partitioned:
                metrics.increment("network.messages_partitioned", partitioned)
            if not deliverable:
                return
        latency = self.latency
        if not self.loss_rate and type(latency) is FixedLatency:
            # No send-time randomness anywhere: merging same-instant
            # fan-outs into one round entry cannot change outcomes.
            self._enqueue_round(now + latency.delay, deliverable)
            return
        # Loss draws or latency samples happen at send time, so handler
        # execution order must match per-message scheduling exactly: one
        # entry per sampled delay (a FixedLatency samples one, drawing
        # nothing), ordered among all others by sequence number.
        groups: Dict[float, List[Message]] = {}
        for message in deliverable:
            groups.setdefault(latency.sample(), []).append(message)
        for delay, group in groups.items():
            self.engine.schedule(
                delay,
                lambda batch=group: self._deliver_many(batch),
                count=len(group),
            )

    def _enqueue_round(self, time: float, messages: List[Message]) -> None:
        """Append ``messages`` to the per-round delivery queue at ``time``.

        Every message of a lossless ``FixedLatency`` network — a single
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

    def _deliver(self, message: Message) -> None:
        recipient = self._processes.get(message.recipient)
        if recipient is None or message.recipient in self._crashed:
            self.metrics.increment("network.messages_dropped")
            return
        self.metrics.increment("network.messages_delivered")
        recipient.handle_message(message)

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

    def holds_receptions(self) -> bool:
        """True when some receiver has recorded an event since the last
        :meth:`forget_receptions`."""
        return bool(self._held_receptions)

    def forget_receptions(self) -> None:
        """Empty every held de-dup table: the events they name have settled.

        Called once the operation that published them has settled, so a
        receiver de-duplicates an event only while it is in flight.
        """
        for table in self._held_receptions:
            table.clear()
        self._held_receptions = []
