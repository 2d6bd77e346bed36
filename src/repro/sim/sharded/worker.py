"""Shard worker: one process owning one slice of the DR-tree simulation.

A worker holds a completely ordinary :class:`~repro.overlay.builder.
DRTreeSimulation` whose network is swapped for :class:`ShardNetwork`: sends
to local peers behave exactly as in the single-process simulator, while
sends to peers owned by another shard are captured — fully filtered and
accounted, with their delivery time stamped — instead of being scheduled
locally.  The coordinator collects those captured messages at each round
barrier and injects them into their destination shard, where they are
delivered at the stamped instant by the destination's own event loop.

Each worker's oracle is a :class:`ShardOracle`, one replica of the single
contact oracle: it records the changes its peers make, and the flush ships
them to the coordinator, which hands every other shard the merged changes
with its next request.

The command protocol is a strict request/response loop over one pipe: the
parent sends ``(command, *args)`` tuples — prefixed with
``("oracle", changes)`` when other shards changed the oracle since this
shard's last request, and with ``("settled",)`` when a global settle has
completed since this shard reported holding reception records — and the
worker replies with a dict that always carries, besides the command's
result, the *flush* — metric deltas since the previous reply, captured
cross-shard messages, delivery records, forwarded log records, the local
engine's next pending event time, (under ``oracle``, only when there are
any) this shard's oracle changes and (``receptions``, only when true) that
its peers hold reception records to forget once everything has settled.
Errors never escape the loop: a
:class:`~repro.sim.engine.SimulationStalledError` or any other exception is
reported in the reply (with the flush of everything that happened up to the
failure) and re-raised parent-side with the shard id attached.
"""

from __future__ import annotations

import logging
import os
import sys
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro import snapshot as snapshots
from repro.api.capabilities import SnapshotStateError
from repro.overlay.bootstrap import install_layout
from repro.overlay.builder import DRTreeSimulation
from repro.overlay.config import DRTreeConfig
from repro.overlay.layout import TreeLayout
from repro.overlay.oracle import ContactOracle
from repro.sim.engine import SimulationStalledError
from repro.sim.failures import MemoryCorruptor
from repro.sim.messages import Message
from repro.sim.network import FixedLatency, Network
from repro.spatial.filters import Event, Subscription

#: One captured cross-shard message: (delivery time, destination shard, msg).
RemoteSend = Tuple[float, int, Message]

#: One forwarded delivery: (peer id, event, matched flag, hop count).
DeliveryRecord = Tuple[str, Event, bool, int]

#: Oracle changes, one final value per entry: ``("member", id)`` → present,
#: ``("root", id)`` → advertised area or ``None``, :data:`HINT` → root hint.
OracleChanges = Dict[Tuple[str, Optional[str]], Any]

#: The one entry that is not per peer, so not written by one shard only.
HINT = ("hint", None)


class ShardOracle(ContactOracle):
    """One shard's replica of the single contact oracle.

    Every mutator records its *effective* change in :attr:`changes` (most
    ``withdraw_root`` calls change nothing and record nothing); the flush
    ships and clears them.  :meth:`apply` installs changes another shard
    recorded, without recording them again.
    """

    def __init__(self) -> None:
        super().__init__()
        self.changes: OracleChanges = {}

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self.changes = {}

    def add_member(self, peer_id: str) -> None:
        if peer_id not in self._members:
            self.changes["member", peer_id] = True
        super().add_member(peer_id)

    def remove_member(self, peer_id: str) -> None:
        if peer_id in self._members:
            self.changes["member", peer_id] = False
        self.withdraw_root(peer_id)
        if self._root_hint == peer_id:
            self.set_root_hint(None)
        super().remove_member(peer_id)

    def set_root_hint(self, peer_id: Optional[str]) -> None:
        if peer_id != self._root_hint:
            self.changes[HINT] = peer_id
        super().set_root_hint(peer_id)

    def advertise_root(self, peer_id: str, area: float) -> None:
        if self._advertised_roots.get(peer_id) != area:
            self.changes["root", peer_id] = area
        super().advertise_root(peer_id, area)

    def withdraw_root(self, peer_id: str) -> None:
        if peer_id in self._advertised_roots:
            self.changes["root", peer_id] = None
        super().withdraw_root(peer_id)

    def apply(self, changes: OracleChanges) -> None:
        """Install another shard's changes (each entry is a final value)."""
        for (kind, peer_id), value in changes.items():
            if kind == "member":
                if value:
                    super().add_member(peer_id)
                else:
                    self._discard(peer_id)
            elif kind == "root":
                if value is None:
                    super().withdraw_root(peer_id)
                else:
                    super().advertise_root(peer_id, value)
            else:
                super().set_root_hint(value)

    def owned_state(self, peer_ids) -> OracleChanges:
        """Every entry of ``peer_ids`` plus the hint, as changes to ship."""
        state: OracleChanges = {}
        for peer_id in peer_ids:
            state["member", peer_id] = peer_id in self._members
            state["root", peer_id] = self._advertised_roots.get(peer_id)
        state[HINT] = self._root_hint
        return state


def _replicate_oracle(sim: DRTreeSimulation) -> ShardOracle:
    """Make ``sim``'s oracle a :class:`ShardOracle`, rebinding its peers."""
    if not isinstance(sim.oracle, ShardOracle):
        replica = ShardOracle()
        replica.__setstate__(sim.oracle.__getstate__())
        sim.oracle = replica
        for peer in sim.peers.values():
            peer.oracle = replica
    return sim.oracle


class ShardNetwork(Network):
    """A :class:`~repro.sim.network.Network` that diverts cross-shard sends.

    ``owner`` maps peer ids to shard ids.  Every peer enters it when it is
    created (the bulk wiring or a join's ``set_owner``); recipients not in
    it are treated as local: a one-shard snapshot of an older coordinator
    restores with an empty map.  The network is lossless with a
    ``FixedLatency``, so every message reaches :meth:`_enqueue_round`, the
    override point, which runs *after* the base class has applied every
    per-message rule — taps, crashed-sender drops, partitions, counters —
    so a cross-shard send is accounted exactly like a local one and only
    its delivery is remoted.
    """

    def __init__(self, shard_id: int, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.shard_id = shard_id
        #: peer id -> owning shard.
        self.owner: Dict[str, int] = {}
        #: Captured cross-shard sends since the last flush.
        self.outbound: List[RemoteSend] = []

    def _enqueue_round(self, time: float, messages: List[Message]) -> None:
        """Split messages joining a round between local delivery and capture.

        A shard network is lossless and ``FixedLatency``, so every message
        it sends — a single :meth:`send` or a ``send_many`` fan-out —
        funnels through this hook; the base class's per-delay entries are
        unreachable.  Captured messages are stamped with the round's
        delivery instant.
        """
        local: List[Message] = []
        for message in messages:
            shard = self.owner.get(message.recipient, self.shard_id)
            if shard == self.shard_id:
                local.append(message)
            else:
                self.metrics.increment("shard.messages_out")
                self.outbound.append((time, shard, message))
        if local:
            super()._enqueue_round(time, local)

    def inject(self, time: float, message: Message) -> None:
        """Deliver a message captured by another shard at its stamped time."""
        self.metrics.increment("shard.messages_in")
        self.engine.schedule_at(time, lambda: self._deliver(message))

    def flush_outbound(self) -> List[RemoteSend]:
        """Hand over (and clear) the captured cross-shard sends."""
        out = self.outbound
        self.outbound = []
        return out


class _LogCapture(logging.Handler):
    """Buffers warning-level records for forwarding through the pipe."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.records: List[Tuple[int, str, str]] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append((record.levelno, record.name, record.getMessage()))

    def drain(self) -> List[Tuple[int, str, str]]:
        records = self.records
        self.records = []
        return records


class ShardRuntime:
    """Executes shard commands against one local simulation.

    Shared by every transport: the process worker loop drives it from pipe
    or shared-memory frames, the inline transport (used where child
    processes are not allowed, e.g. inside a daemonic pool worker) calls
    :meth:`execute` directly.
    """

    def __init__(self, shard_id: int, config: Optional[DRTreeConfig],
                 seed: int, capture_logs: bool = True) -> None:
        self.shard_id = shard_id
        self.sim = DRTreeSimulation(config=config, seed=seed)
        # Swap in the shard-aware transport before any peer exists; peers
        # bind to ``sim.network`` at creation time.
        self.net = ShardNetwork(
            shard_id,
            engine=self.sim.engine,
            latency=FixedLatency(self.sim.config.message_latency),
            metrics=self.sim.metrics,
            streams=self.sim.streams,
        )
        self.sim.network = self.net
        self.sim.corruptor = MemoryCorruptor(self.net, self.sim.streams)
        _replicate_oracle(self.sim)
        self.deliveries: List[DeliveryRecord] = []
        self._last_counters: Dict[str, float] = {}
        self._last_histograms: Dict[str, int] = {}
        self._log_capture: Optional[_LogCapture] = None
        if capture_logs:
            self._log_capture = _LogCapture()
            logging.getLogger("repro").addHandler(self._log_capture)

    # ------------------------------------------------------------------ #
    # Command dispatch
    # ------------------------------------------------------------------ #

    def execute(self, command: Tuple[Any, ...]) -> Dict[str, Any]:
        """Run one command; the reply always carries the flush."""
        if command[0] == "settled":
            # Every event this shard's peers received has settled on every
            # shard: their de-dup tables are spent.
            self.net.forget_receptions()
            command = command[1:]
        if command[0] == "oracle":
            # Other shards' oracle changes, applied before any peer runs.
            self.sim.oracle.apply(command[1])
            command = command[2:]
        name, args = command[0], command[1:]
        try:
            # Interned: the interpreter's attribute cache keeps the name
            # it looked up, and a fresh string per command piled up there.
            result = getattr(self, sys.intern(f"cmd_{name}"))(*args)
            reply: Dict[str, Any] = {"ok": True, "result": result}
        except SimulationStalledError as exc:
            reply = {"ok": False, "kind": "stalled", "error": str(exc)}
        except SnapshotStateError as exc:
            reply = {"ok": False, "kind": "snapshot", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - reported through the pipe
            reply = {
                "ok": False, "kind": "error",
                "error": "".join(traceback.format_exception_only(
                    type(exc), exc)).strip(),
            }
        self._flush_into(reply)
        return reply

    def _flush_into(self, reply: Dict[str, Any]) -> None:
        counters = self.sim.metrics.counters()
        counter_deltas = {
            name: value - self._last_counters.get(name, 0.0)
            for name, value in counters.items()
            if value != self._last_counters.get(name, 0.0)
        }
        self._last_counters = counters
        histogram_deltas: Dict[str, List[float]] = {}
        for name, histogram in self.sim.metrics.histograms().items():
            seen = self._last_histograms.get(name, 0)
            if len(histogram.values) > seen:
                histogram_deltas[name] = histogram.values[seen:]
                self._last_histograms[name] = len(histogram.values)
        reply.update(
            counters=counter_deltas,
            histograms=histogram_deltas,
            out=self.net.flush_outbound(),
            deliveries=self.deliveries,
            logs=(self._log_capture.drain() if self._log_capture else []),
            next=self.sim.engine.next_event_time(),
            now=self.sim.engine.now,
        )
        self.deliveries = []
        oracle = self.sim.oracle
        if oracle.changes:
            reply["oracle"], oracle.changes = oracle.changes, {}
        if self.net.holds_receptions():
            reply["receptions"] = True

    def _collect_delivery(self, peer_id: str, event: Event, matched: bool,
                          hops: int) -> None:
        self.deliveries.append((peer_id, event, matched, hops))

    def _watch_new_peers(self) -> None:
        """Install the delivery forwarder on every peer that lacks one."""
        snapshots.install_listener(self.sim.peers.values(),
                                   self._collect_delivery)

    # ------------------------------------------------------------------ #
    # Round-barrier commands
    # ------------------------------------------------------------------ #

    def cmd_bulk_wire(self, subscriptions: List[Subscription],
                      layout: TreeLayout, owner: Dict[str, int]) -> None:
        """Instantiate this shard's peers and wire them from the layout."""
        if self.sim.peers:
            raise RuntimeError("bulk wiring requires an empty shard")
        install_layout(self.sim, subscriptions, layout)
        # Every shard starts from the bootstrap's oracle state, so it is
        # not a change to replicate.
        self.sim.oracle.changes.clear()
        self.net.owner.update(owner)
        self._watch_new_peers()

    def cmd_add_peer(self, subscription: Subscription) -> None:
        """Create one peer on this shard and start its join.

        Settling is the coordinator's: the join's descents may cross
        shards.  The join protocol runs unmodified against this shard's
        oracle replica, which holds every other shard's changes up to this
        request.
        """
        self.sim.add_peer(subscription, settle=False)
        self._watch_new_peers()

    def cmd_leave(self, peer_id: str) -> None:
        self.sim.leave(peer_id, settle=False)

    def cmd_crash(self, peer_id: str) -> None:
        self.sim.crash(peer_id)

    def cmd_set_owner(self, peer_id: str, shard: int) -> None:
        """Route future sends to ``peer_id`` toward its owning shard."""
        self.net.owner[peer_id] = shard

    def cmd_peer_publish(self, peer_id: str, event: Event) -> None:
        self.sim.peers[peer_id].publish(event)

    def cmd_stab_round(self) -> None:
        for peer in self.sim.live_peers():
            peer.run_stabilization_round()

    def cmd_peer_views(self) -> List[tuple]:
        """Structural snapshots of the live local peers.

        Ships ``(id, joined, filter rect, instances)`` per peer — everything
        the omniscient verifier reads — so the coordinator can run the real
        :class:`~repro.overlay.verifier.OverlayVerifier` over the merged
        global state between stabilization rounds, exactly as the
        single-process simulator does.  The instances travel as pickled
        copies; nothing here mutates worker state.
        """
        return [(peer.process_id, peer.joined, peer.filter_rect,
                 peer.instances)
                for peer in self.sim.live_peers()]

    def cmd_roots(self) -> List[Tuple[str, int]]:
        """``(id, top level)`` of every live local peer rooting itself."""
        return [(peer.process_id, peer.top_level())
                for peer in self.sim.live_peers() if peer.is_overlay_root()]

    def cmd_advance(self, until: float,
                    incoming: List[Tuple[float, Message]],
                    budget: int) -> int:
        """Inject cross-shard messages, then run the local engine to ``until``.

        ``budget`` is what is left of the settle's delivery bound: spending
        it with work still queued stalls the settle, which this shard
        reports (and logs) as its own.
        """
        for time, message in incoming:
            self.net.inject(time, message)
        return self.sim.engine.run_until_idle(max_events=budget, until=until)

    # ------------------------------------------------------------------ #
    # Snapshot / restore (crash recovery)
    # ------------------------------------------------------------------ #

    def cmd_snapshot(self) -> bytes:
        """Snapshot this shard's whole simulation at quiescence.

        The delivery forwarders are bound methods of this runtime (which
        holds an unpicklable logging handler), so they are left out;
        :meth:`cmd_restore` installs the receiving runtime's own.
        """
        if self.sim.engine.has_pending():
            raise RuntimeError("shard engine is not idle; cannot snapshot")
        if self.net.outbound:
            raise RuntimeError("unflushed cross-shard messages; cannot "
                               "snapshot")
        with snapshots.listeners_left_out(self.sim.peers.values()):
            return snapshots.dump({"kind": "shard", "sim": self.sim})

    def cmd_restore(self, blob: bytes) -> None:
        """Replace the local simulation with a :meth:`cmd_snapshot` blob.

        The restored replica re-announces the oracle entries of its own
        peers and its hint, so replicas restored from blobs written before
        the oracle was replicated agree again after one exchange.
        """
        sim = snapshots.load(blob, "shard")["sim"]
        oracle = _replicate_oracle(sim)
        oracle.changes = oracle.owned_state(sim.peers)
        self.sim = sim
        self.net = sim.network
        self.deliveries = []
        self._watch_new_peers()
        # The restored registries already contain their pre-crash totals;
        # re-baseline the flush so this reply reports zero deltas instead of
        # double-counting the whole history into the coordinator.
        self._last_counters = self.sim.metrics.counters()
        self._last_histograms = {
            name: len(histogram.values)
            for name, histogram in self.sim.metrics.histograms().items()
        }

    def close(self) -> None:
        if self._log_capture is not None:
            logging.getLogger("repro").removeHandler(self._log_capture)
            self._log_capture = None


def shard_worker_main(conn, shard_id: int, config: Optional[DRTreeConfig],
                      seed: int, parent_conn=None) -> None:
    """Entry point of a shard worker process: serve commands until close.

    ``conn`` is anything with the pipe-connection surface (``poll`` /
    ``recv`` / ``send`` / ``close``) — a ``multiprocessing`` pipe end or the
    shared-memory :class:`~repro.sim.sharded.shm.FrameChannel`; the loop is
    transport-agnostic.  ``parent_conn`` is the coordinator's end of a pipe,
    which a forked worker holds a copy of: it is closed first, so a reply
    sent to a dead coordinator fails with ``BrokenPipeError`` (and the
    worker exits quietly) instead of blocking for good.
    """
    if parent_conn is not None:
        parent_conn.close()
    runtime = ShardRuntime(shard_id, config, seed)
    parent = os.getppid()
    try:
        while True:
            try:
                # Workers forked later still hold this pipe's parent end, so
                # a SIGKILLed coordinator need not produce EOF here.  Poll
                # with a timeout and watch for reparenting instead — that is
                # the only reliable orphan signal.
                while not conn.poll(1.0):
                    if os.getppid() != parent:
                        return
                command = conn.recv()
            except EOFError:
                break
            if command[0] == "close":
                reply = {"ok": True, "result": None}
                runtime._flush_into(reply)
                conn.send(reply)
                break
            conn.send(runtime.execute(command))
    except BrokenPipeError:
        return
    finally:
        runtime.close()
        conn.close()


def shm_shard_worker_main(segment_names: Tuple[str, str, Any, Any],
                          shard_id: int, config: Optional[DRTreeConfig],
                          seed: int) -> None:
    """Entry point of a shard worker speaking the shared-memory transport.

    Attaches the worker end of the coordinator's segment pair (untracked —
    the coordinator owns unlinking; a worker started by ``multiprocessing``
    shares the coordinator's resource tracker under every start method) and
    serves the ordinary command loop over it.  A torn or corrupt frame
    raises out of the loop and kills the worker, which the coordinator
    surfaces as a :class:`~repro.sim.sharded.errors.ShardFailedError`; a
    coordinator that disappears mid-write surfaces through the channel's
    liveness probe.
    """
    from repro.sim.sharded.shm import attach_worker_channel

    parent = os.getppid()
    channel = attach_worker_channel(segment_names, shared_tracker=True)
    channel.set_peer_alive(lambda: os.getppid() == parent)
    shard_worker_main(channel, shard_id, config, seed)
