"""Event-queue scheduler with a simulated clock.

The engine maintains a priority queue of ``(time, sequence, event)`` tuples.
Running the engine pops events in time order and invokes their callbacks;
callbacks typically schedule further events (message deliveries,
timer expirations).  Time does not advance between events, so the simulation
is fully deterministic given a deterministic set of callbacks.

Batch mode
----------
Alongside the per-event heap, the engine keeps *per-round delivery queues*:
:meth:`SimulationEngine.schedule_batch` enqueues one callback standing for a
whole batch of deliveries at the same instant, stored in a FIFO bucket keyed
by delivery time.  One bucket is one *round* — on a lossless fixed-latency
network, every message put in flight for that instant.  Batched
entries cost one queue operation per batch instead of one heap push/pop per
message, which is what makes 10k-peer publication scenarios spend their time
in the protocol instead of in the scheduler.

Heap events and batch entries share the engine's sequence counter, and the
run loop merges the two queues by ``(time, sequence)``.  Deliveries therefore
execute in exactly the same global order whether they were scheduled
individually or as a batch.
"""

from __future__ import annotations

import heapq
import logging
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

logger = logging.getLogger(__name__)


class SimulationStalledError(RuntimeError):
    """Raised when a run hits its event cap with deliveries still pending.

    Subclasses :class:`RuntimeError` so callers that caught the engine's
    historical error type keep working; catching this type specifically lets
    a scenario distinguish "stalled" from other runtime failures.
    """


class BatchEntry:
    """One queued batch: a callback standing for ``count`` deliveries.

    Returned by :meth:`SimulationEngine.schedule_batch` so callers that
    accumulate work for the same instant (e.g. the network's per-round
    delivery buffer) can grow the entry via
    :meth:`SimulationEngine.grow_batch` instead of queueing a new one.
    """

    __slots__ = ("sequence", "callback", "count")

    def __init__(self, sequence: int, callback: Callable[[], None],
                 count: int) -> None:
        self.sequence = sequence
        self.callback = callback
        self.count = count


@dataclass(slots=True)
class ScheduledEvent:
    """An event waiting in the simulation queue.

    Events run in ``(time, sequence)`` order; the sequence number makes the
    ordering total and FIFO among events scheduled for the same instant.
    The queue orders ``(time, sequence, event)`` tuples — a C comparison that
    the unique sequence always decides — so events themselves are never
    compared.
    """

    time: float
    sequence: int
    callback: Callable[[], None]
    cancelled: bool = False
    label: str = ""

    def cancel(self) -> None:
        """Prevent the event's callback from running."""
        self.cancelled = True


class SimulationEngine:
    """A minimal, deterministic discrete-event simulation engine."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, ScheduledEvent]] = []
        #: The sequence number of the next scheduled event or batch entry.
        self._sequence = 0
        self._now = 0.0
        self.events_processed = 0
        #: delivery time -> FIFO of queued batch entries.
        self._batch_buckets: Dict[float, Deque[BatchEntry]] = {}
        #: min-heap of the distinct bucket times (one entry per bucket).
        self._batch_times: List[float] = []
        #: total deliveries represented by the queued batch entries.
        self._batch_pending = 0
        #: number of batch entries executed (one fan-out = one entry).
        self.batches_processed = 0

    # ------------------------------------------------------------------ #
    # Clock and scheduling
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = ScheduledEvent(time, sequence, callback, label=label)
        heapq.heappush(self._queue, (time, sequence, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        return self.schedule(time - self._now, callback, label)

    def schedule_batch(
        self, delay: float, callback: Callable[[], None], count: int = 1
    ) -> BatchEntry:
        """Enqueue ``callback`` as one batch of ``count`` deliveries.

        The callback runs once at ``now + delay`` and is expected to perform
        ``count`` deliveries itself (e.g. hand a list of messages to their
        recipients).  Batches enqueued for the same instant share one
        per-round bucket and execute FIFO; relative to individually scheduled
        events the batch occupies a single sequence number, so the merged
        execution order is the order in which work was scheduled.

        Returns the queued :class:`BatchEntry`, which remains growable via
        :meth:`grow_batch` until it executes.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        if count < 1:
            raise ValueError("a batch must represent at least one delivery")
        time = self._now + delay
        bucket = self._batch_buckets.get(time)
        if bucket is None:
            self._batch_buckets[time] = bucket = deque()
            heapq.heappush(self._batch_times, time)
        sequence = self._sequence
        self._sequence = sequence + 1
        entry = BatchEntry(sequence, callback, count)
        bucket.append(entry)
        self._batch_pending += count
        return entry

    def grow_batch(self, entry: BatchEntry, extra: int) -> None:
        """Record ``extra`` more deliveries on a queued batch entry.

        Used by callers that keep appending same-instant work to an entry's
        backing buffer (one per-round delivery queue per instant) instead of
        scheduling a new entry per fan-out; keeps :meth:`pending` and the
        ``max_events`` accounting exact.  Growing an entry that already
        executed is an error — its deliveries can never run, so accepting
        the call would permanently corrupt :meth:`pending`.
        """
        if extra < 0:
            raise ValueError("extra must be non-negative")
        if entry.count < 0:
            raise ValueError("cannot grow a batch entry that already executed")
        entry.count += extra
        self._batch_pending += extra

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Process the next pending event; returns False when the queue is empty."""
        return self._step_next() > 0

    def _step_next(self) -> int:
        """Execute whichever of heap/batch queues is next; return deliveries run."""
        event = self._peek()
        batch_time = self._batch_times[0] if self._batch_times else None
        if batch_time is not None and (
            event is None
            or batch_time < event.time
            or (batch_time == event.time
                and self._batch_buckets[batch_time][0].sequence < event.sequence)
        ):
            return self._step_batch(batch_time)
        if event is None:
            return 0
        heapq.heappop(self._queue)
        self._now = event.time
        self.events_processed += 1
        event.callback()
        return 1

    def _step_batch(self, time: float) -> int:
        """Run the oldest batch entry of the bucket at ``time``."""
        bucket = self._batch_buckets[time]
        entry = bucket.popleft()
        if not bucket:
            del self._batch_buckets[time]
            heapq.heappop(self._batch_times)
        self._now = time
        count = entry.count
        entry.count = -1  # executed sentinel; grow_batch rejects it from now on
        self._batch_pending -= count
        self.events_processed += count
        self.batches_processed += 1
        entry.callback()
        return count

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queues drain, ``until`` is reached, or ``max_events``.

        Returns the number of deliveries processed by this call.  A batch
        entry counts as its declared number of deliveries; because a batch
        executes atomically, the return value may overshoot ``max_events`` by
        at most one batch.
        """
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                break
            next_time = self._next_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                # Advance the clock to the horizon without executing the event.
                self._now = until
                return processed
            processed += self._step_next()
        if until is not None and not self.has_pending() and self._now < until:
            self._now = until
        return processed

    def run_rounds(self, max_rounds: Optional[int] = None,
                   max_events_per_round: int = 1_000_000) -> int:
        """Drain both queues one *round* (delivery instant) at a time.

        Each iteration executes everything due at the earliest pending
        instant — batch entries and individually scheduled events, merged in
        sequence order — then moves on to the instant the executed
        deliveries scheduled.  Heap-only work (timers, and the messages of a
        lossy or sampling-latency network) is drained the same way, so
        returning means :meth:`has_pending` is false.  Returns the number of
        rounds run.

        Raises :class:`SimulationStalledError` when ``max_rounds`` is hit
        with work still queued, or when a single instant fails to drain
        within ``max_events_per_round`` deliveries (a zero-delay cascade
        rescheduling into its own round would otherwise never advance the
        clock and never hit the round cap).
        """
        rounds = 0
        while self.has_pending():
            if max_rounds is not None and rounds >= max_rounds:
                logger.warning(
                    "run_rounds truncated at %d rounds with %d deliveries "
                    "still queued", rounds, self.pending(),
                )
                raise SimulationStalledError(
                    f"dissemination did not drain within {max_rounds} rounds"
                )
            round_time = self._next_time()
            processed = self.run(until=round_time,
                                 max_events=max_events_per_round)
            if (processed >= max_events_per_round and self.has_pending()
                    and self._next_time() == round_time):
                logger.warning(
                    "round at t=%.3f did not drain within %d deliveries; "
                    "a zero-delay cascade is rescheduling into its own round",
                    round_time, max_events_per_round,
                )
                raise SimulationStalledError(
                    f"round at t={round_time} exceeded "
                    f"{max_events_per_round} deliveries"
                )
            rounds += 1
        return rounds

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain (bounded by ``max_events`` for safety).

        Hitting the cap with deliveries still pending means the simulation
        stalled (a livelock or an unexpectedly heavy cascade); that is logged
        as a warning and raised as :class:`SimulationStalledError` so callers
        cannot mistake a truncated run for a converged one.
        """
        processed = self.run(max_events=max_events)
        if self.has_pending() and processed >= max_events:
            pending = self.pending()
            logger.warning(
                "simulation truncated at max_events=%d with %d deliveries "
                "still pending at t=%.3f; results up to here are incomplete",
                max_events, pending, self._now,
            )
            raise SimulationStalledError(
                f"simulation did not become idle within {max_events} events "
                f"({pending} deliveries still pending)"
            )
        return processed

    def next_event_time(self) -> Optional[float]:
        """Absolute time of the earliest live event or batch (None when idle).

        Public so external schedulers — the sharded simulator's round-barrier
        coordinator — can ask "when does this engine next need to run"
        without executing anything.
        """
        return self._next_time()

    def _next_time(self) -> Optional[float]:
        event = self._peek()
        batch_time = self._batch_times[0] if self._batch_times else None
        if event is None:
            return batch_time
        if batch_time is None:
            return event.time
        return min(event.time, batch_time)

    def _peek(self) -> Optional[ScheduledEvent]:
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][2] if queue else None

    def pending(self) -> int:
        """Number of live deliveries still queued (heap events and batches)."""
        live = sum(1 for _, _, event in self._queue if not event.cancelled)
        return live + self._batch_pending

    def has_pending(self) -> bool:
        """True when at least one live event or batch entry remains."""
        return self._peek() is not None or bool(self._batch_times)
