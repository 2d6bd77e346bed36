"""Event-queue scheduler with a simulated clock.

The engine keeps one priority queue of ``(time, sequence, entry)`` tuples.
An entry is one callback standing for ``count`` deliveries: 1 for a timer
or a single message, n for a round (every message a network puts in flight
for one instant) or a fan-out.  Running the engine pops entries in
``(time, sequence)`` order and invokes their callbacks; callbacks typically
schedule further entries (message deliveries, timer expirations).  Time does
not advance between entries, so the simulation is fully deterministic given
a deterministic set of callbacks.

Every entry takes one sequence number when it is scheduled, so entries due
at the same instant run in the order they were scheduled.  A queued entry
can grow (:meth:`SimulationEngine.grow_batch`): the network appends each
message landing on an instant to that instant's round and grows its one
entry, which is what makes 10k-peer publication scenarios spend their time
in the protocol instead of in the scheduler.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

logger = logging.getLogger(__name__)


class SimulationStalledError(RuntimeError):
    """Raised when a run hits its event cap with deliveries still pending.

    Subclasses :class:`RuntimeError` so callers that caught the engine's
    historical error type keep working; catching this type specifically lets
    a scenario distinguish "stalled" from other runtime failures.
    """


@dataclass(slots=True)
class ScheduledEvent:
    """An entry waiting in the simulation queue: a callback standing for
    ``count`` deliveries.

    Entries run in ``(time, sequence)`` order; the sequence number makes the
    ordering total and FIFO among entries scheduled for the same instant.
    The queue orders ``(time, sequence, entry)`` tuples — a C comparison
    that the unique sequence always decides — so entries themselves are
    never compared.  An entry that ran is marked ``cancelled``.
    """

    time: float
    sequence: int
    callback: Callable[[], None]
    count: int = 1
    cancelled: bool = False

    def cancel(self) -> None:
        """Prevent the entry's callback from running."""
        self.cancelled = True


class SimulationEngine:
    """A minimal, deterministic discrete-event simulation engine."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, ScheduledEvent]] = []
        #: The sequence number of the next scheduled entry.
        self._sequence = 0
        self._now = 0.0
        #: Deliveries run: an entry counts as its ``count``.
        self.events_processed = 0
        #: Entries run: a whole round or fan-out is one.
        self.batches_processed = 0

    # ------------------------------------------------------------------ #
    # Clock and scheduling
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None],
                 count: int = 1) -> ScheduledEvent:
        """Run ``callback`` ``delay`` time units from now, as ``count``
        deliveries.

        A callback standing for several deliveries performs them itself
        (e.g. hands a list of messages to their recipients).  The returned
        entry can be cancelled, or grown with :meth:`grow_batch`, until it
        runs.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        if count < 1:
            raise ValueError("an entry must represent at least one delivery")
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        entry = ScheduledEvent(time, sequence, callback, count)
        heapq.heappush(self._queue, (time, sequence, entry))
        return entry

    def schedule_at(self, time: float,
                    callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        return self.schedule(time - self._now, callback)

    def grow_batch(self, entry: ScheduledEvent, extra: int) -> None:
        """Record ``extra`` more deliveries on a queued entry.

        Used by callers that keep appending same-instant work to an entry's
        backing buffer (one per-round delivery queue per instant) instead of
        scheduling a new entry per fan-out; keeps :meth:`pending` and the
        ``max_events`` accounting exact.  Growing an entry that already ran
        or was cancelled is an error: its deliveries can never run.
        """
        if extra < 0:
            raise ValueError("extra must be non-negative")
        if entry.cancelled:
            raise ValueError("cannot grow an entry that already ran or was "
                             "cancelled")
        entry.count += extra

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Run the next pending entry; returns False when the queue is empty."""
        return self._step_next() > 0

    def _step_next(self) -> int:
        """Run the next live entry; return the deliveries it stands for."""
        queue = self._queue
        while queue:
            time, _, entry = heapq.heappop(queue)
            if entry.cancelled:
                continue
            entry.cancelled = True  # ran: grow_batch rejects it from now on
            self._now = time
            count = entry.count
            self.events_processed += count
            self.batches_processed += 1
            entry.callback()
            return count
        return 0

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the number of deliveries processed by this call.  An entry
        counts as its declared number of deliveries; because an entry
        executes atomically, the return value may overshoot ``max_events``
        by at most one entry.
        """
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                break
            next_time = self.next_event_time()
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

    def run_until_idle(self, max_events: int = 1_000_000,
                       until: Optional[float] = None) -> int:
        """Run until no events remain (bounded by ``max_events`` for safety).

        Hitting the cap with deliveries still pending means the simulation
        stalled (a livelock or an unexpectedly heavy cascade); that is logged
        as a warning and raised as :class:`SimulationStalledError` so callers
        cannot mistake a truncated run for a converged one.  ``until`` stops
        the run at that instant instead (one instant of a sharded run); work left
        after it still counts as stalled once the cap is hit, because the
        cap is the budget of the caller's whole run.
        """
        processed = self.run(until=until, max_events=max_events)
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
        """Absolute time of the earliest live entry (None when idle).

        Public so external schedulers — a sharded worker computing its
        next pending instant — can ask "when does this engine next need to run"
        without executing anything.
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def pending(self) -> int:
        """Number of live deliveries still queued."""
        return sum(entry.count for _, _, entry in self._queue
                   if not entry.cancelled)

    def has_pending(self) -> bool:
        """True when at least one live entry remains."""
        return self.next_event_time() is not None
