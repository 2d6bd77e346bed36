"""The sharded simulation coordinator: ``DRTreeSimulation``, distributed.

:class:`ShardedSimulation` presents the simulation surface the pub/sub
facade drives — ``add_peer`` / ``bulk_load`` / ``publish`` / ``stabilize`` /
``crash`` / ``peers`` / ``metrics`` — while the actual event loops run in
worker processes, one DR-tree subtree per shard.

One regime, one determinism story.  :meth:`bulk_load` lays the population
out once, parent-side, and partitions it along the STR tiling, so each
worker owns whole subtrees of the *one global layout*; a population built
by joins lives on worker 0, next to the root.  Execution proceeds in
lockstep rounds: the coordinator computes the earliest pending instant
across all shards, delivers the cross-shard messages stamped for it, and
advances every shard with work to exactly that instant.  Messages cross
shards only with the (strictly positive) network latency, so no shard can
observe an effect before its cause; and because a legal DR-tree delivers
each event to each peer exactly once and stabilization refreshes are
commutative, the per-instant interleaving across shards changes no delivery
record, hop count or message counter of a bulk load, a publish or a join —
byte-identical to ``drtree:classic`` on the same seed, as the ``scale``
scenario and the shard-parity tests assert.  A repair after a crash or a
departure is the exception: orphans re-joining in one instant on several
shards may be ordered differently than in classic's single queue, so the
repaired tree, though legal and without false negatives, can be shaped
differently (see ``docs/architecture.md``, "Determinism argument").  On one
shard there is one queue and nothing to reorder, so every operation is
classic's.  ``stabilize`` runs the single-process fixpoint itself over the
merged peer views of all shards, and ``root()`` / ``height()`` give
classic's answer, the one live peer that roots itself.

**One contact oracle.**  Each shard holds a replica of the oracle
(:class:`~repro.sim.sharded.worker.ShardOracle`).  A reply's flush carries
the oracle changes that shard's peers made since its last reply; the
coordinator merges them into a mailbox per other shard, and each shard
applies its mailbox at the start of its next request, before any of its
peers runs again.  Membership and root advertisements are per peer and only
the peer's owning shard writes them, so they cannot conflict.  The root
hint is the one shared entry: replies are merged in shard order, and the
hint written by the highest shard id in an exchange wins (a shard that
wrote the hint drops any hint already waiting in its own mailbox).  A
remote change is visible one barrier later than on ``drtree:classic``,
whose peers share one oracle object.

Worker failures surface as typed errors instead of hangs:
:class:`~repro.sim.sharded.errors.ShardFailedError` for dead workers,
:class:`~repro.sim.sharded.errors.ShardStalledError` (a
``SimulationStalledError``) for shard-local stalls,
:class:`~repro.api.capabilities.SnapshotStateError` for a shard snapshot
that does not load, with shard-local warnings re-logged parent-side with the
shard id attached.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
import weakref
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.api.capabilities import SnapshotStateError
from repro.api.options import TRANSPORTS
from repro.overlay.config import DRTreeConfig
from repro.overlay.layout import (compute_layout, partition_layout,
                                  partition_members)
from repro.overlay.verifier import (OverlayVerifier, StabilizeFixpoint,
                                   VerificationReport)
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RandomStreams
from repro.sim.sharded import shm
from repro.sim.sharded.errors import (ShardFailedError, ShardStalledError,
                                      ShardedUnsupportedError)
from repro.sim.sharded.worker import (HINT, OracleChanges, ShardRuntime,
                                      shard_worker_main,
                                      shm_shard_worker_main)
from repro.spatial.filters import Event, Subscription

logger = logging.getLogger(__name__)

#: Environment override consulted by ``transport="auto"`` — the lever that
#: lets subprocess entry points (journaled runs, CI scenarios) pick the
#: transport without growing every intermediate API.
TRANSPORT_ENV_VAR = "REPRO_SHARD_TRANSPORT"


def resolve_transport(transport: str) -> str:
    """Normalize a requested transport to an effective one.

    Applies, in order: validation against :data:`TRANSPORTS`, the
    ``REPRO_SHARD_TRANSPORT`` environment override (``auto`` only), the
    daemonic-process restriction (no children allowed → ``inline``), the
    ``pipe`` → ``process`` alias, and the graceful fallback from ``shm`` to
    ``process`` when ``multiprocessing.shared_memory`` is unavailable.
    """
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown shard transport {transport!r} "
                         f"(known: {', '.join(TRANSPORTS)})")
    if transport == "auto":
        env = os.environ.get(TRANSPORT_ENV_VAR, "").strip().lower()
        if env and env != "auto":
            if env not in TRANSPORTS:
                raise ValueError(
                    f"{TRANSPORT_ENV_VAR}={env!r} is not a shard transport "
                    f"(known: {', '.join(TRANSPORTS)})")
            transport = env
    if transport == "auto":
        transport = ("inline" if multiprocessing.current_process().daemon
                     else "process")
    if transport == "pipe":
        transport = "process"
    if transport == "shm" and not shm.shm_available():
        logger.warning("shared_memory is unavailable on this platform; "
                       "falling back to the pipe transport")
        transport = "process"
    return transport

#: Global settle safety valve: more barriers than this in one settle means
#: the simulation is livelocked across shards.
MAX_SETTLE_BARRIERS = 1_000_000

#: The delivery bound of one settle: ``DRTreeSimulation.settle``'s default.
SETTLE_EVENTS = 200_000

#: Seconds between liveness checks while waiting on a worker reply.
_POLL_INTERVAL = 0.05


class ShardPeerHandle:
    """Parent-side stand-in for a peer living in a worker process.

    Carries exactly what the facade and the scenarios touch: the peer id and
    the ``delivery_listener`` slot.  Deliveries recorded in the worker are
    forwarded at round barriers and dispatched to the handle's listener.
    """

    __slots__ = ("process_id", "shard", "delivery_listener")

    def __init__(self, process_id: str, shard: int) -> None:
        self.process_id = process_id
        self.shard = shard
        self.delivery_listener = None

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"ShardPeerHandle({self.process_id!r}, shard={self.shard})"


class _PeerView:
    """Parent-side stand-in for a live worker peer, for the verifier.

    Exposes exactly the surface :class:`~repro.overlay.verifier.
    OverlayVerifier` and :func:`~repro.overlay.verifier.structure_signature`
    read — id, joined flag, filter rect, the per-level instances (shipped as
    pickled copies) and the derived helpers — so the coordinator can run the
    *real* stabilize fixpoint over the merged global structure.
    """

    __slots__ = ("process_id", "joined", "filter_rect", "instances")

    alive = True

    def __init__(self, process_id: str, joined: bool, filter_rect,
                 instances: Dict[int, Any]) -> None:
        self.process_id = process_id
        self.joined = joined
        self.filter_rect = filter_rect
        self.instances = instances

    def top_level(self) -> int:
        return max(self.instances) if self.instances else 0

    def top_instance(self):
        return self.instances[self.top_level()]

    def state_size(self) -> int:
        return sum(len(instance.children) + 2
                   for instance in self.instances.values())


class _GlobalClock:
    """The coordinator's view of simulated time (the facade's ``engine``)."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


class _InlineShard:
    """A shard executed synchronously in-process.

    Used where spawning children is impossible (daemonic pool workers) or
    undesirable (fast deterministic tests); runs the identical
    :class:`~repro.sim.sharded.worker.ShardRuntime` command set.
    """

    def __init__(self, shard_id: int, config: Optional[DRTreeConfig],
                 seed: int) -> None:
        self.shard_id = shard_id
        self.runtime = ShardRuntime(shard_id, config, seed,
                                    capture_logs=False)
        self._reply: Optional[Dict[str, Any]] = None

    def request(self, command: Tuple[Any, ...]) -> None:
        self._reply = self.runtime.execute(command)

    def collect(self) -> Dict[str, Any]:
        reply, self._reply = self._reply, None
        assert reply is not None, "collect() without a pending request"
        return reply

    def close(self) -> None:
        self.runtime.close()

    #: Inline shards have no process to kill; hard teardown is the same.
    terminate = close


#: What a dead worker or a torn byte stream raises out of a channel: pipe
#: EOF / errno failures and every shared-memory transport fault.
_CHANNEL_ERRORS = (EOFError, OSError, shm.ShmTransportError)


class _ProcessShard:
    """A shard running in its own worker process, spoken to over ``conn``.

    ``conn`` is the coordinator end of the channel the worker was handed —
    a ``multiprocessing`` pipe end or the
    :class:`~repro.sim.sharded.shm.FrameChannel` of a segment pair.  The
    command/reply semantics are the same on both, and every channel
    failure (torn frame, backpressure timeout, a peer that died
    mid-transfer) is mapped onto
    :class:`~repro.sim.sharded.errors.ShardFailedError`, so the
    coordinator's error handling is transport-blind.  ``release`` frees the
    channel (``conn.close`` for a pipe, the pair's ``unlink`` for shm): it
    runs on *both* teardown paths, polite and hard, and when the worker
    fails to start, so abnormal exits leave nothing behind in ``/dev/shm``.
    """

    def __init__(self, shard_id: int, context, target, args: Tuple[Any, ...],
                 conn, release: Callable[[], None]) -> None:
        self.shard_id = shard_id
        self.conn = conn
        self._release = release
        self.process = context.Process(
            target=target, args=args, name=f"drtree-shard-{shard_id}",
            daemon=True)
        try:
            self.process.start()
        except BaseException:
            release()
            raise

    def _failed(self, what: str) -> ShardFailedError:
        return ShardFailedError(
            self.shard_id,
            f"{what} (worker exit code {self.process.exitcode})")

    def request(self, command: Tuple[Any, ...]) -> None:
        try:
            self.conn.send(command)
        except _CHANNEL_ERRORS as exc:
            raise self._failed(f"channel to worker is gone: {exc}") from exc

    def collect(self) -> Dict[str, Any]:
        try:
            while not self.conn.poll(_POLL_INTERVAL):
                if not self.process.is_alive():
                    raise self._failed("worker process exited while a "
                                       "command was outstanding")
            return self.conn.recv()
        except _CHANNEL_ERRORS as exc:
            raise self._failed(f"worker reply unreadable: {exc}") from exc

    def close(self) -> None:
        try:
            if self.process.is_alive():
                self.conn.send(("close",))
                self.conn.poll(1.0)
        except _CHANNEL_ERRORS:
            pass
        self.process.join(timeout=2.0)
        self.terminate()

    def terminate(self) -> None:
        """Hard teardown: no close handshake, just kill and join the worker.

        Used on KeyboardInterrupt and at interpreter exit, where a worker
        may be mid-command and the request/response protocol (which
        :meth:`close` relies on) can no longer be trusted; :meth:`close`
        ends here too, by which time the worker has normally exited.
        """
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():  # pragma: no cover - stuck worker
                self.process.kill()
                self.process.join(timeout=1.0)
        self._release()


def _stop_shards(shards: List[Any], hard: bool = False) -> None:
    """Finalizer target: shut every worker down (idempotent).

    Politely by default; ``hard`` kills and joins without the handshake.
    """
    for shard in shards:
        try:
            if hard:
                shard.terminate()
            else:
                shard.close()
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass
    shards.clear()


#: Every live simulation, so interpreter exit can reap worker processes even
#: when a KeyboardInterrupt unwound past the owner's cleanup code.
_LIVE_SIMULATIONS: "weakref.WeakSet[ShardedSimulation]" = weakref.WeakSet()


@atexit.register
def _reap_live_simulations() -> None:  # pragma: no cover - exit hook
    for simulation in list(_LIVE_SIMULATIONS):
        simulation.terminate()


def _pick_context():
    """The cheapest available multiprocessing context (fork where possible)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods
                                       else "spawn")


class ShardedSimulation:
    """A DR-tree simulation partitioned across worker processes."""

    def __init__(
        self,
        config: Optional[DRTreeConfig] = None,
        seed: int = 0,
        shards: int = 2,
        transport: str = "auto",
    ) -> None:
        """``shards`` is the target worker count applied at bulk-load time.

        ``transport`` selects how shards execute and talk to the
        coordinator — one of :data:`TRANSPORTS`, normalized by
        :func:`resolve_transport`.  On every transport the shard workers
        schedule with per-round delivery queues, like every simulated
        network.
        """
        if shards < 1:
            raise ValueError("shards must be at least 1")
        transport = resolve_transport(transport)
        self.config = config if config is not None else DRTreeConfig()
        self.seed = int(seed)
        self.shards_requested = int(shards)
        self.transport = transport
        self.streams = RandomStreams(seed)
        self.metrics = MetricsRegistry()
        self.engine = _GlobalClock()
        #: peer id -> parent-side handle (never removed, like classic peers).
        self.peers: Dict[str, ShardPeerHandle] = {}
        #: Per-shard mirrors of the metric deltas (the load-balance report).
        self.shard_metrics: Dict[int, MetricsRegistry] = {}
        self.shard_deliveries: Dict[int, int] = {}
        self._shards: List[Any] = []
        self._context = (_pick_context() if transport in ("process", "shm")
                         else None)
        self._owner: Dict[str, int] = {}
        self._mailbox: Dict[int, List[Tuple[float, Any]]] = {}
        #: shard id -> other shards' oracle changes it has not applied yet.
        self._oracle_mail: Dict[int, OracleChanges] = {}
        #: Shards whose peers hold reception records, and shards to tell,
        #: with their next command, that those records have settled.
        self._holding: Set[int] = set()
        self._settled: Set[int] = set()
        self._next_times: Dict[int, Optional[float]] = {}
        self._shard_now: Dict[int, float] = {}
        #: The last root seen: joins are created on its shard.
        self._root_id: Optional[str] = None
        self._plan = None
        self._closed = False
        self._finalizer = weakref.finalize(self, _stop_shards, self._shards)
        _LIVE_SIMULATIONS.add(self)

    # ------------------------------------------------------------------ #
    # Worker management and the reply pipeline
    # ------------------------------------------------------------------ #

    def _spawn(self, shard_id: int) -> None:
        context = self._context
        if self.transport == "inline":
            shard = _InlineShard(shard_id, self.config, self.seed)
        elif self.transport == "shm":
            pair = shm.ShmTransportPair(shard_id, context=context)
            shard = _ProcessShard(
                shard_id, context, shm_shard_worker_main,
                (pair.names, shard_id, self.config, self.seed),
                pair.channel, pair.unlink)
            pair.channel.set_peer_alive(shard.process.is_alive)
        else:
            parent_conn, child_conn = context.Pipe()
            try:
                shard = _ProcessShard(
                    shard_id, context, shard_worker_main,
                    (child_conn, shard_id, self.config, self.seed,
                     parent_conn),
                    parent_conn, parent_conn.close)
            finally:
                child_conn.close()
        self._shards.append(shard)
        self.shard_metrics[shard_id] = MetricsRegistry()
        self.shard_deliveries[shard_id] = 0
        self._next_times[shard_id] = None

    def _ensure_shards(self, count: int) -> None:
        self._check_open()
        while len(self._shards) < count:
            self._spawn(len(self._shards))

    def _apply(self, shard_id: int, reply: Dict[str, Any]) -> Any:
        """Merge one reply's flush into parent state; raise routed errors."""
        for name, delta in reply["counters"].items():
            self.metrics.increment(name, delta)
            self.shard_metrics[shard_id].increment(name, delta)
        for name, values in reply["histograms"].items():
            for value in values:
                self.metrics.observe(name, value)
                self.shard_metrics[shard_id].observe(name, value)
        for time, destination, message in reply["out"]:
            self._mailbox.setdefault(destination, []).append((time, message))
        if reply.get("receptions"):
            self._holding.add(shard_id)
        else:
            self._holding.discard(shard_id)
        changes = reply.get("oracle")
        if changes:
            for shard in self._shards:
                if shard.shard_id != shard_id:
                    self._oracle_mail.setdefault(shard.shard_id,
                                                 {}).update(changes)
                elif HINT in changes:
                    self._oracle_mail.get(shard_id, {}).pop(HINT, None)
        for peer_id, event, matched, hops in reply["deliveries"]:
            self.shard_deliveries[shard_id] += 1
            handle = self.peers.get(peer_id)
            if handle is not None and handle.delivery_listener is not None:
                handle.delivery_listener(peer_id, event, matched, hops)
        for level, name, text in reply["logs"]:
            logging.getLogger(name).log(level, "[shard %d] %s", shard_id,
                                        text)
        self._next_times[shard_id] = reply["next"]
        self._shard_now[shard_id] = reply["now"]
        if not reply["ok"]:
            if reply["kind"] == "stalled":
                raise ShardStalledError(shard_id, reply["error"])
            if reply["kind"] == "snapshot":
                raise SnapshotStateError(f"shard {shard_id}: {reply['error']}")
            raise ShardFailedError(shard_id, reply["error"])
        return reply["result"]

    def _check_open(self) -> None:
        if self._closed:
            raise ShardFailedError(-1, "simulation already closed")

    def _collect_from(self, shards: List[Any],
                      failure: Optional[ShardFailedError] = None
                      ) -> List[Tuple[int, Dict[str, Any]]]:
        """Collect one pending reply from each of ``shards``.

        A dead worker means the request/response protocol can no longer be
        trusted on *any* pipe (other shards' unread replies would answer the
        wrong future command), so a :class:`ShardFailedError` — raised here,
        or by the send that preceded and passed in as ``failure`` —
        attempts every remaining shard first, keeping their pipes drained,
        then tears the whole simulation down and re-raises.
        """
        replies: List[Tuple[int, Dict[str, Any]]] = []
        for shard in shards:
            try:
                replies.append((shard.shard_id, shard.collect()))
            except ShardFailedError as exc:
                failure = failure or exc
        if failure is not None:
            self.close()
            raise failure
        return replies

    def _exchange(self, requests: Sequence[Tuple[int, Tuple[Any, ...]]]
                  ) -> List[Any]:
        """Send ``(shard id, command)`` pairs; return their results in order.

        Every command goes through here: send all, collect every reply,
        apply every flush, and only then raise the first routed error — so
        the pipes stay drained and no shard's deltas are lost because
        another shard reported a failure.  A shard's pending oracle changes,
        and the news that its reception records have settled, ride on its
        command.
        """
        self._check_open()
        sent: List[Any] = []
        failure = None
        for shard_id, command in requests:
            mail = self._oracle_mail.pop(shard_id, None)
            if mail:
                command = ("oracle", mail) + command
            if shard_id in self._settled:
                self._settled.discard(shard_id)
                command = ("settled",) + command
            shard = self._shards[shard_id]
            try:
                shard.request(command)
            except ShardFailedError as exc:
                failure = exc
                break
            sent.append(shard)
        results: List[Any] = []
        errors: List[BaseException] = []
        for shard_id, reply in self._collect_from(sent, failure):
            try:
                results.append(self._apply(shard_id, reply))
            except (ShardFailedError, ShardStalledError,
                    SnapshotStateError) as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
        return results

    def _rpc(self, shard_id: int, command: Tuple[Any, ...]) -> Any:
        (result,) = self._exchange([(shard_id, command)])
        return result

    def _broadcast(self, command: Tuple[Any, ...]) -> List[Any]:
        """Run one command on every shard; results in shard order."""
        return self._exchange([(shard.shard_id, command)
                               for shard in self._shards])

    def _advance(self, shards: List[Any], until: float, budget: int) -> int:
        """Run ``shards`` to ``until`` with their mail; deliveries processed.

        A shard that spends ``budget`` deliveries with work still queued
        raises a :class:`ShardStalledError` carrying its own id.
        """
        return sum(self._exchange([
            (shard.shard_id,
             ("advance", until, self._mailbox.pop(shard.shard_id, []),
              budget))
            for shard in shards]))

    # ------------------------------------------------------------------ #
    # The round barrier
    # ------------------------------------------------------------------ #

    def _sync_clocks(self) -> None:
        """Bring every shard's local clock up to the global instant.

        Barriers only advance shards that have work, so an idle shard's
        clock lags behind.  Before *new* work is injected at the global
        instant — a publish, a stabilization round — lagging shards get an
        empty ``advance`` to the global clock, so every shard issues the new
        work (and stamps its messages) at exactly the time the
        single-process simulator would have used.
        """
        now = self.engine.now
        self._advance([shard for shard in self._shards
                       if self._shard_now.get(shard.shard_id, 0.0) < now],
                      now, SETTLE_EVENTS)

    def _settle(self, max_events: int = SETTLE_EVENTS) -> None:
        """Advance all shards in lockstep until no work remains anywhere.

        ``max_events`` bounds the total deliveries processed across all
        shards, mirroring the single-process ``settle``/``run_until_idle``
        cap (the default is the drain bound ``DRTreeSimulation.settle``
        uses after a join, leave, publish or stabilization round).  Each
        barrier hands its shards what is left of it, so a shard that spends
        it with work queued raises a :class:`ShardStalledError` with its own
        id — on one shard, exactly where classic's settle stalls; several
        shards that only spend it together raise one with shard id -1 (like
        a batch, a barrier executes atomically, so the count may overshoot
        by at most one barrier).
        """
        barriers = 0
        processed_total = 0
        while True:
            candidates = [t for t in self._next_times.values()
                          if t is not None]
            candidates.extend(time for box in self._mailbox.values()
                              for time, _ in box)
            if not candidates:
                break
            if processed_total >= max_events:
                raise ShardStalledError(
                    -1, f"simulation did not become idle within "
                        f"{max_events} deliveries")
            target = min(candidates)
            active = [
                shard for shard in self._shards
                if self._mailbox.get(shard.shard_id)
                or (self._next_times.get(shard.shard_id) is not None
                    and self._next_times[shard.shard_id] <= target)
            ]
            processed_total += self._advance(active, target,
                                             max_events - processed_total)
            self.engine.now = max(self.engine.now, target)
            barriers += 1
            if barriers > MAX_SETTLE_BARRIERS:  # pragma: no cover - valve
                raise ShardStalledError(
                    -1, f"global settle exceeded {MAX_SETTLE_BARRIERS} "
                        "round barriers")
        # Nothing is in flight anywhere: every shard holding reception
        # records may forget them, which it does on its next command.
        self._settled |= self._holding
        self._holding = set()

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def bulk_load(self, subscriptions: Sequence[Subscription]) -> None:
        """Lay out the global DR-tree and wire one subtree per shard.

        The layout is computed once, parent-side, by the exact algorithm of
        the single-process bootstrap; :func:`~repro.overlay.layout.
        partition_layout` cuts it into subtrees along the STR tiling, and
        every worker wires its own peers from the same layout.  A tree with
        fewer subtrees than requested shards uses fewer workers.
        """
        subs = list(subscriptions)
        if self.peers:
            raise ValueError("bulk load requires an empty simulation")
        if not subs:
            return
        layout = compute_layout([(sub.name, sub.rect) for sub in subs],
                                self.config)
        plan = partition_layout(layout, self.shards_requested)
        self._ensure_shards(plan.effective_shards)
        members = partition_members(layout, plan)
        subs_by_name = {sub.name: sub for sub in subs}
        self._exchange([
            (shard.shard_id,
             ("bulk_wire",
              [subs_by_name[name] for name in members.get(shard.shard_id, [])],
              layout, plan.owner))
            for shard in self._shards])
        self._owner = dict(plan.owner)
        for sub in subs:
            self.peers[sub.name] = ShardPeerHandle(sub.name,
                                                   plan.owner[sub.name])
        self._plan = plan
        self._root_id = layout.root_id

    def add_peer(self, subscription: Subscription,
                 peer_id: Optional[str] = None, join: bool = True,
                 settle: bool = True) -> ShardPeerHandle:
        """Create and join one peer.

        The joiner is created on the shard owning the last root seen (so it
        lives next to the top of the tree; shard 0 before there is one) and
        the join protocol runs unmodified from there; descents that cross
        shards travel like any other cross-shard message, and the new
        membership reaches the other oracle replicas with the join's flush.
        """
        if peer_id is not None and peer_id != subscription.name:
            raise ShardedUnsupportedError(
                "the sharded simulator names peers after their subscription")
        if not (join and settle):
            raise ShardedUnsupportedError(
                "the sharded simulator always joins and settles new peers; "
                "use bulk_load for pre-wired construction")
        name = subscription.name
        if name in self.peers:
            raise ValueError(f"duplicate peer id {name!r}")
        self._ensure_shards(1)
        target = self._owner.get(self._root_id or "", 0)
        self._sync_clocks()
        # Every shard must route messages to the joiner before any join
        # traffic can cross a shard boundary.
        self._broadcast(("set_owner", name, target))
        self._rpc(target, ("add_peer", subscription))
        handle = ShardPeerHandle(name, target)
        self.peers[name] = handle
        self._owner[name] = target
        self._settle()
        return handle

    def leave(self, peer_id: str, settle: bool = True) -> None:
        """Controlled departure: the owning shard runs the leave protocol."""
        if peer_id not in self.peers:
            raise KeyError(peer_id)
        self._sync_clocks()
        self._rpc(self._owner[peer_id], ("leave", peer_id))
        if settle:
            self._settle()

    def crash(self, peer_id: str) -> None:
        """Uncontrolled departure: the owning shard crashes the peer."""
        if peer_id not in self.peers:
            raise KeyError(peer_id)
        self._rpc(self._owner[peer_id], ("crash", peer_id))

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def publish(self, publisher_id: str, event: Event,
                settle: bool = True) -> None:
        """Publish ``event`` from ``publisher_id``."""
        self._sync_clocks()
        self._rpc(self._owner[publisher_id],
                  ("peer_publish", publisher_id, event))
        if settle:
            self._settle()

    def settle(self, max_events: int = SETTLE_EVENTS) -> None:
        """Deliver every in-flight message across all shards."""
        self._settle(max_events=max_events)

    def stabilize(self, max_rounds: int = 50) -> VerificationReport:
        """Run synchronized stabilization rounds until the overlay is legal.

        Runs :class:`~repro.overlay.verifier.StabilizeFixpoint` over the
        merged peer snapshots of every shard (one ``peer_views`` exchange
        per iteration), so the real verifier judges the global structure.
        """
        verifier = OverlayVerifier(self.config.min_children,
                                   self.config.max_children)
        fixpoint = StabilizeFixpoint(self._peer_views, verifier, max_rounds,
                                     self.metrics)
        for _ in fixpoint:
            self._sync_clocks()
            self._broadcast(("stab_round",))
            self._settle()
        report = fixpoint.report
        # Repairs can re-elect the root: route joins to the verified one.
        if report.root is not None:
            self._root_id = report.root
        return report

    def _peer_views(self) -> List[_PeerView]:
        """Merged live-peer snapshots, in global peer-creation order."""
        by_id: Dict[str, _PeerView] = {}
        for shard_views in self._broadcast(("peer_views",)):
            for process_id, joined, filter_rect, instances in shard_views:
                by_id[process_id] = _PeerView(process_id, joined,
                                              filter_rect, instances)
        return [by_id[peer_id] for peer_id in self.peers if peer_id in by_id]

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def peer(self, peer_id: str) -> ShardPeerHandle:
        """Look up a peer handle by id."""
        return self.peers[peer_id]

    def live_peers(self) -> List[ShardPeerHandle]:
        """Handles of every peer ever created (crashes are shard-local)."""
        return list(self.peers.values())

    def _root(self) -> Optional[Tuple[str, int]]:
        """Classic's root: the one live peer rooting itself, and its top level.

        ``None`` when no peer or several do (a crashed root leaves none
        until a stabilize repairs the tree).
        """
        roots = [root for shard_roots in self._broadcast(("roots",))
                 for root in shard_roots]
        if len(roots) != 1:
            return None
        self._root_id = roots[0][0]
        return roots[0]

    def root(self) -> Optional[ShardPeerHandle]:
        """The current root peer's handle, if a unique one exists."""
        root = self._root()
        return self.peers[root[0]] if root else None

    def height(self) -> int:
        """Height of the DR-tree (number of levels)."""
        root = self._root()
        return root[1] + 1 if root else 0

    def shard_report(self) -> List[Dict[str, Any]]:
        """Per-shard load-balance and cross-shard-traffic table rows."""
        rows = []
        for shard_id in sorted(self.shard_metrics):
            registry = self.shard_metrics[shard_id]
            rows.append({
                "shard": shard_id,
                "peers": sum(1 for handle in self.peers.values()
                             if handle.shard == shard_id),
                "deliveries": int(self.shard_deliveries.get(shard_id, 0)),
                "messages": int(registry.counter("network.messages_sent")),
                "remote_out": int(registry.counter("shard.messages_out")),
                "remote_in": int(registry.counter("shard.messages_in")),
            })
        return rows

    def close(self) -> None:
        """Shut every worker down; the simulation is unusable afterwards."""
        self._shutdown(hard=False)

    def _shutdown(self, hard: bool) -> None:
        if not self._closed:
            self._closed = True
            self._finalizer.detach()
            _LIVE_SIMULATIONS.discard(self)
            _stop_shards(self._shards, hard)

    def terminate(self) -> None:
        """Hard teardown: kill and join every worker, skipping the handshake.

        Safe to call with commands outstanding (unlike :meth:`close`, whose
        polite shutdown assumes the request/response protocol is intact) —
        this is the KeyboardInterrupt and interpreter-exit path.
        """
        self._shutdown(hard=True)

    def __enter__(self) -> "ShardedSimulation":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None and not issubclass(exc_type, Exception):
            # KeyboardInterrupt/SystemExit may have left a command
            # outstanding; don't trust the pipes, just reap the workers.
            self.terminate()
        else:
            self.close()

    # ------------------------------------------------------------------ #
    # Snapshot capability (merged per-shard snapshots)
    # ------------------------------------------------------------------ #

    def has_pending(self) -> bool:
        """True while any shard has queued work or cross-shard mail waits."""
        return (any(t is not None for t in self._next_times.values())
                or any(self._mailbox.values()))

    def snapshot_state(self) -> Dict[str, Any]:
        """The picklable snapshot payload: parent state + per-shard blobs.

        Each worker snapshots its whole local simulation (`cmd_snapshot`)
        after applying its pending oracle changes, so no oracle mail is
        left to save; the coordinator adds everything it owns — handles,
        owner map, per-shard metric mirrors, the partition plan and the
        global clock.
        """
        blobs = self._broadcast(("snapshot",))
        return {
            "kind": "sharded",
            "seed": self.seed,
            "now": self.engine.now,
            "config": self.config,
            "streams": self.streams,
            "metrics": self.metrics,
            "peers": self.peers,
            "shard_metrics": self.shard_metrics,
            "shard_deliveries": dict(self.shard_deliveries),
            "owner": dict(self._owner),
            "root_id": self._root_id,
            "plan": self._plan,
            "blobs": blobs,
        }

    def restore_state(self, state: Dict[str, Any]) -> "ShardedSimulation":
        """Load a :meth:`snapshot_state` payload into this fresh simulation.

        Shard count and transport come from this simulation's own options
        (the facade rebuilt it from the same spec); worker processes are
        spawned as needed and each receives its shard's snapshot blob.
        The facade's :func:`repro.snapshot.load` has checked the keys (an
        older payload's ``multi`` and ``height`` are ignored).  The
        coordinator adopts the payload only once every worker has loaded
        its blob: on a refusal it stops the workers, which held nothing
        but the restore, and is as fresh as before.
        """
        if self.peers:
            raise SnapshotStateError(
                "sharded restore requires a freshly built simulation")
        blobs = state["blobs"]
        self._ensure_shards(len(blobs))
        try:
            # One exchange: every replica's re-announced oracle entries
            # reach the others with their next command, after all have
            # restored.
            self._exchange([(shard_id, ("restore", blob))
                            for shard_id, blob in enumerate(blobs)])
        except Exception:
            _stop_shards(self._shards)
            for mirror in (self.shard_metrics, self.shard_deliveries,
                           self._next_times, self._shard_now, self._mailbox,
                           self._oracle_mail, self._holding, self._settled):
                mirror.clear()
            raise
        self.config = state["config"]
        self.seed = state["seed"]
        self.streams = state["streams"]
        self.metrics = state["metrics"]
        self.peers = state["peers"]
        self._owner = dict(state["owner"])
        self._root_id = state["root_id"]
        self._plan = state["plan"]
        self.engine.now = float(state["now"])
        self.shard_metrics = state["shard_metrics"]
        self.shard_deliveries = dict(state["shard_deliveries"])
        return self
