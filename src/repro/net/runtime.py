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
  (one FIFO channel and one connection per destination, written straight
  from :meth:`NetRuntime.enqueue` through an ``asyncio.Protocol``;
  LRU-capped, bounded retry + exponential backoff on connects) and the op
  gate that defers background stabilizer ticks while a facade operation is
  in flight.

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

    def schedule(self, delay: float,
                 callback: Callable[[], None]) -> _TimerHandle:
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
    be dispatched (their connection closed with the server).
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


class _Outbound(asyncio.Protocol):
    """The client side of one channel connection: the channel's signals."""

    def __init__(self, channel: "_Channel") -> None:
        self.channel = channel
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.channel.opened(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.channel.lost(self)

    def pause_writing(self) -> None:
        self.channel.paused = True

    def resume_writing(self) -> None:
        self.channel.paused = False
        self.channel.flush()


class _Channel:
    """One FIFO outbound channel: one connection to one destination.

    Per-destination (not per sender/recipient pair): every frame bound for
    ``dst`` goes out in send order, which preserves the per-pair FIFO
    delivery the simulated network guarantees while keeping the
    open-connection count ``O(peers)`` instead of ``O(tree edges)``.  With
    the connection open and writable, :meth:`put` writes the frame straight
    to the transport; while the connection is being opened, or while the
    transport has paused writing, frames wait in ``queue`` and
    :meth:`flush` writes them in order once it opens or resumes.  The only
    task a channel ever runs is its pending connect attempt.
    """

    def __init__(self, runtime: "NetRuntime", dst: str) -> None:
        self.runtime = runtime
        self.dst = dst
        self.queue: Deque[Message] = deque()
        #: The open connection's protocol, or ``None``.
        self.outbound: Optional[_Outbound] = None
        self.paused = False
        #: The pending connect attempt, or ``None``.
        self.connecting: Optional[asyncio.Task] = None

    def put(self, message: Message) -> None:
        outbound = self.outbound
        if outbound is not None and outbound.transport.is_closing():
            # The server side closed; its connection_lost has not run yet.
            self.lost(outbound)
            outbound = None
        if outbound is None or self.paused or self.queue:
            self.queue.append(message)
            self._ensure_connecting()
        else:
            outbound.transport.write(encode_frame(message))

    def flush(self) -> None:
        """Write queued frames in order until the queue empties or the
        transport pauses."""
        runtime = self.runtime
        queue = self.queue
        while queue and self.outbound is not None and not self.paused:
            message = queue.popleft()
            if self.dst in runtime.crashed:
                runtime.drop(message, "crashed")
            else:
                self.outbound.transport.write(encode_frame(message))

    def _ensure_connecting(self) -> None:
        if self.outbound is None and self.connecting is None:
            self.connecting = self.runtime.loop.create_task(
                self._connect(), name=f"net-connect:{self.dst}")

    async def _connect(self) -> None:
        try:
            await self.runtime.connect(self.dst, lambda: _Outbound(self))
        except PeerUnreachableError:
            self.drop_pending("crashed" if self.dst in self.runtime.crashed
                              else "unreachable")
        finally:
            self.connecting = None

    def opened(self, outbound: _Outbound) -> None:
        self.outbound = outbound
        self.paused = False
        self.flush()

    def lost(self, outbound: _Outbound) -> None:
        """The connection closed (evicted, or the server side went away):
        frames still queued reconnect through the retry budget."""
        if outbound is not self.outbound:
            return
        self.outbound = None
        self.paused = False
        if self.queue:
            self._ensure_connecting()

    def close(self) -> None:
        """Cancel the pending connect and close the connection."""
        if self.connecting is not None:
            self.connecting.cancel()
            self.connecting = None
        outbound, self.outbound = self.outbound, None
        if outbound is not None:
            outbound.transport.close()

    def drop_pending(self, reason: str = "crashed") -> None:
        """Drop every queued frame (destination crashed or runtime closing)."""
        while self.queue:
            self.runtime.drop(self.queue.popleft(), reason)


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
        #: What every inbound connection reads into (see ``net.peer``):
        #: ``data_received`` would allocate a 256 KiB ``bytes`` per read, and
        #: freeing it trimmed the loop thread's heap, so that each read paid
        #: about two page faults.
        self.receive_buffer = memoryview(bytearray(1 << 16))
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
        started = threading.Event()
        self.loop.call_soon_threadsafe(started.set)
        self._thread.start()
        if not started.wait(options.idle_timeout):
            self._closed = True
            if self.loop.is_running():
                self.loop.call_soon_threadsafe(self.loop.stop)
            else:
                self.loop.close()
            raise NetTimeoutError(
                f"the network event loop did not start within "
                f"{options.idle_timeout:.1f}s")

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
        if message.recipient in self.crashed:
            self.drop(message, "crashed")
            return
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
            channel.close()
            self.metrics.increment("net.channels_evicted")

    async def connect(self, dst: str,
                      protocol_factory: Callable[[], asyncio.Protocol]
                      = asyncio.Protocol
                      ) -> Tuple[asyncio.Transport, asyncio.Protocol]:
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
                    return await self.loop.create_connection(
                        protocol_factory, *address)
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
            channel.drop_pending()
            channel.close()

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
                channel.drop_pending()
                channel.close()
            self._channels.clear()

        future = asyncio.run_coroutine_threadsafe(teardown(), self.loop)
        try:
            future.result(timeout=10)
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
