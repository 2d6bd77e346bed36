"""`NetSimulation`: the DR-tree deployment on the real-network runtime.

This is the ``drtree:net`` counterpart of
:class:`~repro.overlay.builder.DRTreeSimulation` — same peers, same oracle,
same verifier, same driving surface for the pub/sub facade, and one shared
read-only :class:`~repro.overlay.builder.DeploymentView` (not the simulator
itself: its ``run_round`` / ``corrupt`` must not run off the loop thread) —
but every message crosses a real loopback TCP stream and every peer
additionally runs a jittered background stabilizer task.  The synchronous
facade methods bridge onto the runtime's event loop and block on the
result, so callers never see the asyncio machinery.

Determinism contract (what keeps the delivered-event digest byte-identical
to ``drtree:classic``): every facade operation (a) holds the runtime's op
gate, deferring background stabilizer ticks, (b) drains the in-flight
ledger before returning, and (c) drives :meth:`stabilize` through the
simulator's own :class:`~repro.overlay.verifier.StabilizeFixpoint` on the
loop thread — each round triggers *every* live peer's round back-to-back
(no deliveries interleave, because the single-threaded loop cannot run a
connection's ``data_received`` until the driver awaits), then waits for
quiescence.
Delivered sets on a legal, refreshed tree depend only on the subscriptions,
not on TCP arrival order, which is why real-network nondeterminism never
reaches the digest.

What does *not* carry over: protocol timers (``Process.set_timer``) fire in
real time rather than inside ``settle()``, message-count metrics include
background stabilizer traffic (the engine registers with
``metrics_identical=False``), and snapshots are unsupported — a live
socket/thread graph does not pickle (no ``snapshot`` capability).
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional, Sequence

from repro.api.capabilities import SnapshotUnsupportedError
from repro.net.conditions import ConditionPipeline, NetConditions
from repro.net.faults import NetTimeoutError
from repro.net.peer import PeerEndpoint
from repro.net.runtime import NetRuntime
from repro.net.stabilizer import PeerStabilizer
from repro.overlay.builder import DeploymentView
from repro.overlay.config import DRTreeConfig
from repro.overlay.oracle import ContactOracle
from repro.overlay.peer import DRTreePeer
from repro.overlay.verifier import (OverlayVerifier, StabilizeFixpoint,
                                   VerificationReport, structure_signature)
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import FixedLatency, Network
from repro.sim.rng import RandomStreams
from repro.spatial.filters import Event, Subscription


class NetNetwork(Network):
    """The :class:`~repro.sim.network.Network` adapter over real sockets.

    Inherits every per-message bookkeeping rule (``sent_at`` stamping, the
    ``network.messages_sent`` / per-kind counters, taps, crashed-sender
    drops) and overrides only the scheduling step: the network is lossless
    with a ``FixedLatency``, so every message reaches :meth:`_enqueue_round`,
    which hands it to the runtime's outbound channel for its recipient
    instead of a simulated round.
    """

    def __init__(self, runtime: NetRuntime, metrics: MetricsRegistry,
                 streams: RandomStreams) -> None:
        super().__init__(
            engine=runtime.clock,  # duck-typed: .now and .schedule suffice
            latency=FixedLatency(0.0),
            metrics=metrics,
            streams=streams,
        )
        self.runtime = runtime

    def register(self, process) -> None:
        super().register(process)
        self.runtime.peers[process.process_id] = process

    def unregister(self, process_id: str) -> None:
        super().unregister(process_id)
        self.runtime.peers.pop(process_id, None)

    def crash(self, process_id: str) -> None:
        super().crash(process_id)
        self.runtime.mark_crashed(process_id)

    def _enqueue_round(self, time: float, messages) -> None:
        # The round's instant is meaningless here — transit time is whatever
        # the loopback TCP stack takes.
        for message in messages:
            self.runtime.enqueue(message)


class NetSimulation(DeploymentView):
    """A DR-tree deployment where peers exchange frames over loopback TCP."""

    def __init__(self, config: Optional[DRTreeConfig] = None, seed: int = 0,
                 options=None) -> None:
        from repro.api.options import NetOptions

        self.config = config or DRTreeConfig()
        self.options = options or NetOptions()
        self.streams = RandomStreams(seed)
        self.metrics = MetricsRegistry()
        self.runtime = NetRuntime(
            self.options, self.metrics,
            jitter_rng=self.streams.stream("net.stabilizer.jitter"))
        #: The facade reads ``simulation.engine.now`` for its clock; here
        #: that is real monotonic time in simulated units.
        self.engine = self.runtime.clock
        self.network = NetNetwork(self.runtime, self.metrics, self.streams)
        self.oracle = ContactOracle()
        self.verifier = OverlayVerifier(
            self.config.min_children, self.config.max_children)
        self.peers: Dict[str, DRTreePeer] = {}
        self.endpoints: Dict[str, PeerEndpoint] = {}
        self._closed = False
        #: Bumped on every pipeline (re)installation: namespaces the
        #: per-link RNG streams so reinstalling starts fresh draws.
        self._condition_epoch = 0
        conditions = self.options.resolved_conditions()
        if conditions is not None:
            self.runtime.pipeline = ConditionPipeline(
                conditions, self.streams, origin=self.runtime.clock.now)

    # ------------------------------------------------------------------ #
    # Network conditions
    # ------------------------------------------------------------------ #

    @property
    def conditions(self) -> Optional[NetConditions]:
        """The currently installed condition spec, if any."""
        pipeline = self.runtime.pipeline
        return pipeline.conditions if pipeline is not None else None

    def set_conditions(self, conditions) -> None:
        """Install, replace or remove (``None``) the condition pipeline.

        Accepts any :meth:`NetConditions.coerce` form.  Partition windows
        of the new spec are anchored at the installation instant, so a
        window with ``start=0`` opens immediately.  Frames already delayed
        by the previous pipeline still arrive (and stay ledger-held).
        """
        spec = NetConditions.coerce(conditions)
        self.runtime.call(self._set_conditions(spec))

    async def _set_conditions(self,
                              spec: Optional[NetConditions]) -> None:
        if spec is None:
            self.runtime.pipeline = None
            return
        self._condition_epoch += 1
        self.runtime.pipeline = ConditionPipeline(
            spec, self.streams, origin=self.runtime.clock.now,
            scope=f"net.conditions.{self._condition_epoch}")

    # ------------------------------------------------------------------ #
    # Membership operations
    # ------------------------------------------------------------------ #

    def add_peer(self, subscription: Subscription,
                 peer_id: Optional[str] = None,
                 join: bool = True,
                 settle: bool = True) -> DRTreePeer:
        """Create a peer (server + stabilizer) and optionally join it."""
        peer_id = peer_id or subscription.name
        if peer_id in self.peers:
            raise ValueError(f"duplicate peer id {peer_id!r}")
        if self.runtime.on_loop_thread():
            # The bulk bootstrap path: peers are created synchronously while
            # laying out the tree; their servers start afterwards, before
            # any message can flow (the layout wiring sends nothing).
            if join:
                raise RuntimeError(
                    "loop-thread add_peer supports join=False only")
            return self._create_peer(subscription, peer_id)
        return self.runtime.call(
            self._add_peer(subscription, peer_id, join, settle))

    def _create_peer(self, subscription: Subscription,
                     peer_id: str) -> DRTreePeer:
        peer = DRTreePeer(peer_id, self.network, subscription,
                          config=self.config, oracle=self.oracle)
        self.peers[peer_id] = peer
        self.endpoints[peer_id] = PeerEndpoint(self.runtime, peer)
        return peer

    async def _start_endpoint(self, endpoint: PeerEndpoint) -> None:
        await endpoint.start()
        if self.options.stabilizer == "periodic":
            endpoint.stabilizer = PeerStabilizer(
                self.runtime, endpoint.peer, self.config.stabilization_period)

    async def _add_peer(self, subscription: Subscription, peer_id: str,
                        join: bool, settle: bool) -> DRTreePeer:
        peer = self._create_peer(subscription, peer_id)
        await self._start_endpoint(self.endpoints[peer_id])
        if join:
            peer.start_join()
            if settle:
                await self._settle_join(peer)
        return peer

    async def _settle_join(self, peer: DRTreePeer) -> None:
        """Quiesce, then hold until the join is acknowledged.

        On a perfect network quiescence implies the JOIN_ACK has run, so
        the first ``wait_idle`` suffices (zero added latency).  Under
        injected conditions the JOIN — or its ack — can vanish; the peer's
        own bounded-backoff retry timer re-sends it
        (:meth:`~repro.overlay.join.JoinMixin._retry_join`), and when that
        budget is exhausted the settle loop re-drives ``start_join``
        directly, bounded overall by ``idle_timeout`` before raising
        :class:`~repro.net.faults.NetTimeoutError`: retry-until-ack.
        """
        await self.runtime.wait_idle()
        if peer.joined:
            return
        deadline = time.monotonic() + self.options.idle_timeout
        poll = max(self.options.retry_backoff, 0.01)
        while not peer.joined:
            if time.monotonic() >= deadline:
                self.metrics.increment("net.join_settle_timeouts")
                raise NetTimeoutError(
                    f"join of {peer.process_id!r} was not acknowledged "
                    f"within {self.options.idle_timeout:.1f}s (frames "
                    "lost past the retry budget)")
            if getattr(peer, "_join_retries", 0) >= peer.MAX_JOIN_RETRIES:
                # The peer's own timer gave up until the next stabilization
                # round — which the op gate defers while we hold it.  Drive
                # the retry ourselves instead of deadlocking on it.
                peer._join_retries = 0
                self.metrics.increment("join.driven_retries")
                peer.start_join()
            await asyncio.sleep(poll)
            await self.runtime.wait_idle()

    def bulk_load(self, subscriptions: Sequence[Subscription]) -> None:
        """STR bulk bootstrap (see :func:`~repro.overlay.bootstrap.bootstrap_overlay`)."""
        self.runtime.call(self._bulk_load(subscriptions))

    async def _bulk_load(self, subscriptions: Sequence[Subscription]) -> None:
        from repro.overlay.bootstrap import bootstrap_overlay

        # The bootstrap runs synchronously on the loop thread: it only
        # creates peers (join=False) and wires the layout in place, so no
        # frame needs a server until it finishes.
        bootstrap_overlay(self, subscriptions)
        await asyncio.gather(*(self._start_endpoint(endpoint)
                               for endpoint in self.endpoints.values()
                               if endpoint.server is None))
        await self.runtime.wait_idle()

    def leave(self, peer_id: str, settle: bool = True) -> None:
        """Controlled departure of ``peer_id``."""
        peer = self.peers[peer_id]
        self.runtime.call(self._leave(peer, settle))

    async def _leave(self, peer: DRTreePeer, settle: bool) -> None:
        peer.leave()
        if settle:
            await self.runtime.wait_idle()
        await self._retire_endpoint(peer.process_id)

    async def _retire_endpoint(self, peer_id: str) -> None:
        """Tear down a dead peer's transport presence.

        Marking the id crashed makes the outbound channels drop frames to
        it immediately — the same silent drop the simulated network applies
        to crashed/unregistered recipients, minus the connect timeouts.
        """
        self.runtime.mark_crashed(peer_id)
        endpoint = self.endpoints.pop(peer_id, None)
        if endpoint is not None:
            await endpoint.close()
        self.runtime.retire_channel(peer_id)
        self.runtime.ledger.retire(peer_id)

    def crash(self, peer_id: str) -> None:
        """Uncontrolled departure (failure) of ``peer_id``."""
        peer = self.peers[peer_id]
        self.runtime.call(self._crash(peer))

    async def _crash(self, peer: DRTreePeer) -> None:
        peer.crash()  # NetNetwork.crash marks the runtime too
        self.oracle.forget(peer.process_id)
        await self._retire_endpoint(peer.process_id)

    # ------------------------------------------------------------------ #
    # Execution helpers
    # ------------------------------------------------------------------ #

    def settle(self) -> None:
        """Wait until no frame is in flight anywhere, then let the peers
        forget the events they received."""
        self.runtime.call(self._settle())

    async def _settle(self) -> None:
        await self.runtime.wait_idle()
        self.network.forget_receptions()

    def stabilize(self, max_rounds: int = 50) -> VerificationReport:
        """Driven stabilization: the simulator's round/fixpoint model.

        Used by every facade operation; the free-running background
        stabilizers handle the *undriven* case (see
        :meth:`await_convergence`) and are paused for the duration by the
        op gate.
        """
        return self.runtime.call(self._stabilize(max_rounds))

    async def _stabilize(self, max_rounds: int) -> VerificationReport:
        fixpoint = StabilizeFixpoint(self.live_peers, self.verifier,
                                     max_rounds, self.metrics)
        for _ in fixpoint:
            # All rounds trigger back-to-back with no await between them:
            # the single-threaded loop cannot deliver a frame until this
            # coroutine suspends, which reproduces the simulator's
            # "every round, then settle" ordering exactly.
            for peer in self.live_peers():
                peer.run_stabilization_round()
            await self.runtime.wait_idle()
        return fixpoint.report

    def await_convergence(self, timeout: float = 30.0,
                          poll: float = 0.05,
                          stable_polls: int = 2) -> Dict[str, object]:
        """Let the *background* stabilizers repair the overlay, unassisted.

        This is the real-network claim of the paper's Section 4: no global
        round barrier, every peer on its own jittered timer.  Polls the
        omniscient verifier (without pausing the stabilizers) until the
        configuration is legal and structurally stable, or ``timeout`` real
        seconds pass.  Returns a report dict with the mean number of
        stabilizer cycles each live peer needed — the number the net-soak
        convergence table sets against the simulator's round count.

        Soundness under injected conditions: the structure must hold still
        for ``stable_polls`` consecutive polls (one coincidental repeat is
        cheap when frames are being lost and re-sent), and convergence is
        never declared while condition-delayed frames are still in the air
        — a delayed repair frame can change the structure after it lands.
        """
        return self.runtime.call(
            self._await_convergence(timeout, poll, stable_polls), op=False)

    async def _await_convergence(self, timeout: float, poll: float,
                                 stable_polls: int) -> Dict[str, object]:
        start = time.monotonic()
        start_cycles = {pid: endpoint.stabilizer.cycles
                        for pid, endpoint in self.endpoints.items()
                        if endpoint.stabilizer is not None}
        previous_signature = None
        stable_run = 0
        legal = stable = False
        while True:
            report = self.verify()
            signature = structure_signature(self.live_peers())
            legal = report.is_legal
            if signature == previous_signature:
                stable_run += 1
            else:
                stable_run = 0
            stable = (stable_run >= max(1, stable_polls)
                      and self.runtime.delayed_pending == 0)
            if (legal and stable) or time.monotonic() - start >= timeout:
                break
            previous_signature = signature
            await asyncio.sleep(poll)
        deltas = [endpoint.stabilizer.cycles - start_cycles[pid]
                  for pid, endpoint in self.endpoints.items()
                  if endpoint.stabilizer is not None and pid in start_cycles]
        return {
            "converged": legal and stable,
            "legal": legal,
            "seconds": time.monotonic() - start,
            "cycles_mean": (sum(deltas) / len(deltas)) if deltas else 0.0,
            "cycles_max": max(deltas) if deltas else 0,
        }

    # ------------------------------------------------------------------ #
    # Publish/subscribe and inspection
    # ------------------------------------------------------------------ #

    def publish(self, publisher_id: str, event: Event,
                settle: bool = True) -> None:
        """Publish ``event`` from peer ``publisher_id``."""
        peer = self.peers[publisher_id]
        self.runtime.call(self._publish(peer, event, settle))

    async def _publish(self, peer: DRTreePeer, event: Event,
                       settle: bool) -> None:
        peer.publish(event)
        if settle:
            await self._settle()

    def transport_summary(self) -> Dict[str, float]:
        """Transport/condition counters the facade merges into ``summary()``.

        Keys are prefixed ``net_`` so they sit apart from the delivery
        columns shared with the simulated engines (whose rows must stay
        comparable field by field among themselves).
        """
        counter = self.metrics.counter
        return {
            "net_join_retries": counter("join.retries"),
            "net_connect_retries": counter("net.connect_retries"),
            "net_quiescence_timeouts": counter("net.quiescence_timeouts"),
            "net_frames_lost": counter("net.conditions.lost")
            + counter("net.conditions.drop_first"),
            "net_frames_partitioned": counter("net.conditions.partitioned"),
            "net_frames_delayed": counter("net.conditions.delayed"),
            "net_duplicates_dropped":
                counter("net.conditions.duplicates_dropped"),
        }

    # ------------------------------------------------------------------ #
    # Capability edges
    # ------------------------------------------------------------------ #

    def has_pending(self) -> bool:
        """True while frames are in flight on the transport."""
        return self.runtime.has_pending()

    def snapshot_state(self):
        raise SnapshotUnsupportedError(
            "backend 'drtree:net' does not support snapshot/restore: live "
            "sockets and the event-loop thread do not pickle")

    def restore_state(self, state):
        raise SnapshotUnsupportedError(
            "backend 'drtree:net' does not support snapshot/restore: live "
            "sockets and the event-loop thread do not pickle")

    def close(self) -> None:
        """Shut down every server, channel and the event-loop thread."""
        if self._closed:
            return
        self._closed = True
        self.runtime.close(self.endpoints)

    def __del__(self) -> None:  # pragma: no cover - GC-time safety net
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter may be tearing down
            pass
