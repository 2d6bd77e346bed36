"""The asyncio runtime under the real-network backend.

One event loop in one background thread carries *all* peers: their TCP
servers, their per-peer background stabilizer tasks, the pooled outbound
channels and every protocol timer.  Peer protocol logic therefore executes
single-threaded (on the loop thread), exactly as it does under the
discrete-event engine — the synchronous facade bridges each operation onto
the loop with :func:`asyncio.run_coroutine_threadsafe` and blocks on the
resulting future.

Three pieces live here:

* :class:`NetClock` — the ``engine`` adapter peers see: real monotonic time
  expressed in *simulated time units* (``options.time_scale`` real seconds
  per unit), and ``schedule()`` mapping protocol timers onto
  ``loop.call_later``;
* :class:`InflightLedger` — the frame accounting that turns "stabilize" and
  "settle" into a quiescence wait: every frame accepted for transport is
  acquired against its recipient and released when the recipient's handler
  returns (or the frame is dropped), and :meth:`InflightLedger.wait_idle`
  blocks until the count reaches zero;
* :class:`NetRuntime` — the loop thread itself, the outbound channel pool
  (one FIFO writer task per destination, LRU-capped, bounded
  retry + exponential backoff on connects) and the op gate that defers
  background stabilizer ticks while a facade operation is in flight.

When a :class:`~repro.net.conditions.ConditionPipeline` is installed, every
frame entering :meth:`NetRuntime.enqueue` is routed through it first: drops
(loss, partition, ``drop_first``) never reach a channel but are counted;
delayed frames stay *held in the ledger* for the delay's duration before
joining their channel queue, so quiescence waits remain sound — "settle"
cannot complete while a condition-delayed frame is still going to arrive;
duplicated frames share the original's ``message_id`` and the dispatch-side
dedup guard drops the redundant copy (``net.conditions.duplicates_dropped``),
keeping delivered sets identical to the condition-free run.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from typing import (TYPE_CHECKING, Callable, Coroutine, Deque, Dict, Optional,
                    Tuple)
from collections import deque

from repro.net.codec import encode_frame
from repro.net.faults import NetTimeoutError, PeerUnreachableError
from repro.sim.messages import Message
from repro.sim.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.conditions import ConditionPipeline
    from repro.overlay.peer import DRTreePeer
    from repro.api.options import NetOptions


class _TimerHandle:
    """The ``ScheduledEvent``-shaped handle returned by :meth:`NetClock.schedule`."""

    __slots__ = ("_handle", "cancelled")

    def __init__(self) -> None:
        self._handle: Optional[asyncio.TimerHandle] = None
        self.cancelled = False

    def _arm(self, handle: asyncio.TimerHandle) -> None:
        if self.cancelled:
            handle.cancel()
        else:
            self._handle = handle

    def cancel(self) -> None:
        """Cancel the timer (safe from any thread, safe when already fired)."""
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()


class NetClock:
    """Real monotonic time in simulated units, plus protocol timers.

    Peers read ``engine.now`` (stamped onto outgoing messages) and arm
    one-shot timers through ``engine.schedule`` — the only two pieces of
    the discrete-event engine surface the overlay protocols use.  Both are
    mapped onto wall time: one simulated unit is ``time_scale`` real
    seconds.
    """

    def __init__(self, runtime: "NetRuntime", time_scale: float) -> None:
        self._runtime = runtime
        self.time_scale = time_scale
        self._t0 = time.monotonic()

    @property
    def now(self) -> float:
        """Elapsed real time since construction, in simulated units."""
        return (time.monotonic() - self._t0) / self.time_scale

    def schedule(self, delay: float, callback: Callable[[], None],
                 label: str = "") -> _TimerHandle:
        """Run ``callback`` after ``delay`` simulated units of real time."""
        handle = _TimerHandle()
        loop = self._runtime.loop
        real_delay = max(0.0, delay * self.time_scale)

        def arm() -> None:
            handle._arm(loop.call_later(real_delay, callback))

        if self._runtime.on_loop_thread():
            arm()
        else:
            loop.call_soon_threadsafe(arm)
        return handle


class InflightLedger:
    """Counts frames between transport acceptance and handler completion.

    All mutations happen on the loop thread, so plain integers suffice; the
    ``asyncio.Event`` flips exactly when the total reaches zero.  Per-
    recipient counts exist so a crash can retire the frames that will never
    be dispatched (their reader task died with the server).
    """

    def __init__(self) -> None:
        self.total = 0
        self._by_recipient: Dict[str, int] = {}
        self._idle = asyncio.Event()
        self._idle.set()

    def acquire(self, recipient: str) -> None:
        self.total += 1
        self._by_recipient[recipient] = \
            self._by_recipient.get(recipient, 0) + 1
        self._idle.clear()

    def release(self, recipient: str) -> None:
        held = self._by_recipient.get(recipient, 0)
        if held <= 0:
            # Already retired by a crash; nothing left to release.
            return
        self._by_recipient[recipient] = held - 1
        self.total -= 1
        if self.total == 0:
            self._idle.set()

    def retire(self, recipient: str) -> int:
        """Drop every in-flight frame addressed to a crashed recipient."""
        held = self._by_recipient.pop(recipient, 0)
        if held:
            self.total -= held
            if self.total == 0:
                self._idle.set()
        return held

    async def wait_idle(self, timeout: float) -> None:
        """Block until no frame is in flight; bounded by ``timeout`` seconds."""
        if self.total == 0:
            return
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            raise NetTimeoutError(
                f"quiescence wait exceeded {timeout:.1f}s with "
                f"{self.total} frame(s) still in flight") from None


class _Channel:
    """One FIFO outbound channel: a queue drained by a single writer task.

    Per-destination (not per sender/recipient pair): every frame bound for
    ``dst`` goes through this queue in send order, which preserves the
    per-pair FIFO delivery the simulated network guarantees while keeping
    the open-connection count ``O(peers)`` instead of ``O(tree edges)``.
    """

    def __init__(self, runtime: "NetRuntime", dst: str) -> None:
        self.runtime = runtime
        self.dst = dst
        self.queue: Deque[Message] = deque()
        self.wakeup = asyncio.Event()
        self.writer: Optional[asyncio.StreamWriter] = None
        self.closing = False
        self.task = runtime.loop.create_task(self._run(),
                                             name=f"net-ch:{dst}")

    def put(self, message: Message) -> None:
        self.queue.append(message)
        self.wakeup.set()

    async def _run(self) -> None:
        try:
            while True:
                while not self.queue:
                    self.wakeup.clear()
                    await self.wakeup.wait()
                message = self.queue.popleft()
                await self._transmit(message)
        except asyncio.CancelledError:
            raise
        finally:
            await self._close_writer()

    async def _transmit(self, message: Message) -> None:
        runtime = self.runtime
        if self.dst in runtime.crashed:
            runtime.drop(message, "crashed")
            return
        try:
            if self.writer is None:
                self.writer = await runtime.connect(self.dst)
            self.writer.write(encode_frame(message))
            await self.writer.drain()
        except PeerUnreachableError:
            runtime.drop(message, "unreachable")
            await self._close_writer()
        except (ConnectionError, OSError):
            # The pooled connection went stale (server restarted, reader
            # closed us, LRU eviction raced a write): one reconnect attempt
            # through the retry budget, then give the frame up.
            await self._close_writer()
            try:
                self.writer = await runtime.connect(self.dst)
                self.writer.write(encode_frame(message))
                await self.writer.drain()
            except (PeerUnreachableError, ConnectionError, OSError):
                runtime.drop(message, "unreachable")
                await self._close_writer()

    async def _close_writer(self) -> None:
        writer, self.writer = self.writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    def drain_pending(self) -> None:
        """Drop every queued frame (destination crashed or runtime closing)."""
        while self.queue:
            self.runtime.drop(self.queue.popleft(), "crashed")


class NetRuntime:
    """The event-loop thread and transport shared by every peer."""

    def __init__(self, options: "NetOptions", metrics: MetricsRegistry,
                 jitter_rng) -> None:
        self.options = options
        self.metrics = metrics
        #: RNG stream drawing the background stabilizers' interval jitter.
        self.jitter_rng = jitter_rng
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-net-loop", daemon=True)
        self.clock = NetClock(self, options.time_scale)
        self.ledger = InflightLedger()
        #: peer id → live DRTreePeer object (the dispatch registry).
        self.peers: Dict[str, "DRTreePeer"] = {}
        #: peer id → (host, port) of its TCP server.
        self.addresses: Dict[str, Tuple[str, int]] = {}
        self.crashed: set = set()
        self._channels: "OrderedDict[str, _Channel]" = OrderedDict()
        #: Installed condition pipeline, or ``None`` for a perfect network.
        self.pipeline: Optional["ConditionPipeline"] = None
        #: Frames currently held back by an injected delay (ledger-held).
        self.delayed_pending = 0
        #: message_id → [copies outstanding, delivered once?] for frames the
        #: pipeline duplicated; the dispatch-side dedup guard reads this.
        self._dup_state: Dict[int, list] = {}
        #: Facade operations in flight; background stabilizer ticks defer
        #: while this is non-zero, so every facade op observes (and leaves)
        #: the overlay exactly as the driven round model would.
        self.op_depth = 0
        self._closed = False
        self._thread.start()
        self._started = threading.Event()
        self.loop.call_soon_threadsafe(self._started.set)
        self._started.wait()

    # ------------------------------------------------------------------ #
    # Loop thread and bridging
    # ------------------------------------------------------------------ #

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_forever()
        finally:
            # Give cancelled tasks one last cycle, then close.
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            if pending:
                self.loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            self.loop.close()

    def on_loop_thread(self) -> bool:
        return threading.get_ident() == self._thread.ident

    def call(self, coro: Coroutine, op: bool = True):
        """Run ``coro`` on the loop thread and return its result.

        ``op=True`` (every facade operation) holds the op gate for the
        coroutine's duration, deferring background stabilizer ticks.  Must
        not be called from the loop thread (it would deadlock); loop-thread
        callers invoke the synchronous helpers directly.
        """
        if self.on_loop_thread():
            raise RuntimeError("NetRuntime.call() invoked from the loop "
                               "thread; call the coroutine directly")
        if self._closed:
            coro.close()
            raise RuntimeError("the network runtime is closed")

        async def gated():
            if op:
                self.op_depth += 1
            try:
                return await coro
            finally:
                if op:
                    self.op_depth -= 1

        return asyncio.run_coroutine_threadsafe(gated(), self.loop).result()

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    def enqueue(self, message: Message) -> None:
        """Accept one frame for transport (loop thread only)."""
        if self.pipeline is not None:
            self._enqueue_conditioned(message)
        else:
            self._enqueue_now(message)

    def _enqueue_now(self, message: Message, acquired: bool = False) -> None:
        """Hand one frame to its destination channel, ledger-acquired."""
        if not acquired:
            self.ledger.acquire(message.recipient)
        channel = self._channels.get(message.recipient)
        if channel is None:
            channel = _Channel(self, message.recipient)
            self._channels[message.recipient] = channel
            self._evict_channels()
        else:
            self._channels.move_to_end(message.recipient)
        channel.put(message)

    def _enqueue_conditioned(self, message: Message) -> None:
        """Route one frame through the installed condition pipeline."""
        decision = self.pipeline.decide(message.sender, message.recipient,
                                        self.clock.now)
        if decision.drop is not None:
            self.metrics.increment(f"net.conditions.{decision.drop}")
            self.metrics.increment(
                "network.messages_partitioned"
                if decision.drop == "partitioned"
                else "network.messages_lost")
            return
        frames = [message]
        if decision.copies > 1:
            self.metrics.increment("net.conditions.duplicated")
            self._dup_state[message.message_id] = [decision.copies, False]
            frames.extend(
                Message(message.sender, message.recipient, message.kind,
                        dict(message.payload), sent_at=message.sent_at,
                        message_id=message.message_id, hops=message.hops)
                for _ in range(decision.copies - 1))
        if decision.reordered:
            self.metrics.increment("net.conditions.reordered")
        for frame in frames:
            if decision.delay > 0.0:
                self.metrics.increment("net.conditions.delayed")
                # The frame is ledger-held for the whole delay: settle stays
                # a sound quiescence wait even while frames are "in the air".
                self.ledger.acquire(frame.recipient)
                self.delayed_pending += 1
                self.loop.call_later(
                    decision.delay * self.clock.time_scale,
                    self._release_delayed, frame)
            else:
                self._enqueue_now(frame)

    def _release_delayed(self, message: Message) -> None:
        self.delayed_pending -= 1
        self._enqueue_now(message, acquired=True)

    def _evict_channels(self) -> None:
        while len(self._channels) > self.options.max_channels:
            dst, channel = next(iter(self._channels.items()))
            if channel.queue:
                # Never evict a channel with frames still queued.
                self._channels.move_to_end(dst, last=True)
                break
            del self._channels[dst]
            channel.task.cancel()
            self.metrics.increment("net.channels_evicted")

    async def connect(self, dst: str) -> asyncio.StreamWriter:
        """Open a connection to ``dst`` with bounded retry + backoff.

        Raises :class:`PeerUnreachableError` once the retry budget is
        spent (or immediately when ``dst`` is known to be crashed).
        """
        backoff = self.options.retry_backoff
        attempts = self.options.send_retries + 1
        for attempt in range(attempts):
            if dst in self.crashed:
                raise PeerUnreachableError(f"peer {dst!r} has crashed")
            address = self.addresses.get(dst)
            if address is not None:
                try:
                    _, writer = await asyncio.open_connection(*address)
                    return writer
                except (ConnectionError, OSError):
                    pass
            if attempt + 1 < attempts:
                self.metrics.increment("net.connect_retries")
                await asyncio.sleep(backoff)
                backoff *= 2
        raise PeerUnreachableError(
            f"peer {dst!r} unreachable after {attempts} attempt(s)")

    def drop(self, message: Message, reason: str) -> None:
        """Retire a frame that will never be dispatched."""
        self.metrics.increment("network.messages_dropped")
        self.metrics.increment(f"net.frames_dropped.{reason}")
        self._dup_account(message)
        self.ledger.release(message.recipient)

    def _dup_account(self, message: Message, delivered: bool = False) -> bool:
        """Track one arrival/drop of a pipeline-duplicated frame.

        Returns True when the frame is a *redundant* copy (its twin was
        already delivered) that the dedup guard must swallow.  Untracked
        frames fall straight through.
        """
        state = self._dup_state.get(message.message_id)
        if state is None:
            return False
        state[0] -= 1
        if state[0] <= 0:
            self._dup_state.pop(message.message_id, None)
        if delivered:
            if state[1]:
                return True
            state[1] = True
        return False

    def dispatch(self, message: Message) -> None:
        """Hand one decoded frame to its recipient's handler (loop thread)."""
        peer = self.peers.get(message.recipient)
        try:
            if peer is None or message.recipient in self.crashed:
                self.metrics.increment("network.messages_dropped")
                self._dup_account(message)
                return
            if self._dup_account(message, delivered=True):
                # The duplicate's twin already ran the handler: drop this
                # copy so delivered sets match the condition-free run.
                self.metrics.increment("net.conditions.duplicates_dropped")
                self.metrics.increment("network.messages_dropped")
                return
            self.metrics.increment("network.messages_delivered")
            peer.handle_message(message)
        finally:
            self.ledger.release(message.recipient)

    # ------------------------------------------------------------------ #
    # Quiescence and failure control
    # ------------------------------------------------------------------ #

    async def wait_idle(self) -> None:
        try:
            await self.ledger.wait_idle(self.options.idle_timeout)
        except NetTimeoutError:
            self.metrics.increment("net.quiescence_timeouts")
            raise

    def has_pending(self) -> bool:
        return self.ledger.total > 0

    def mark_crashed(self, peer_id: str) -> None:
        self.crashed.add(peer_id)

    def retire_channel(self, peer_id: str) -> None:
        """Tear down the outbound channel to a crashed/departed peer."""
        channel = self._channels.pop(peer_id, None)
        if channel is not None:
            channel.drain_pending()
            channel.task.cancel()

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #

    def close(self, endpoints: Optional[Dict[str, object]] = None) -> None:
        """Stop everything: tasks, channels, servers, the loop, the thread.

        Idempotent and callable from any thread except the loop thread.
        ``endpoints`` (peer id → PeerEndpoint) is closed first when given.
        """
        if self._closed:
            return
        self._closed = True

        async def teardown() -> None:
            if endpoints:
                await asyncio.gather(
                    *(endpoint.close() for endpoint in endpoints.values()),
                    return_exceptions=True)
            for channel in self._channels.values():
                channel.drain_pending()
                channel.task.cancel()
            self._channels.clear()

        future = asyncio.run_coroutine_threadsafe(teardown(), self.loop)
        try:
            future.result(timeout=10)
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
