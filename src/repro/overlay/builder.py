"""Convenience driver: build, stabilize and operate a DR-tree simulation.

The :class:`DRTreeSimulation` wires together the simulation engine, the
network, the oracle and the peers.  It is used by the pub/sub facade, the
examples and every experiment:

* ``add_peer`` / ``join_all`` — create peers and run their join protocol,
* ``stabilize`` — run synchronized stabilization rounds until the verifier
  reports a legal configuration (or a round budget is exhausted),
* ``crash`` / ``leave`` / ``corrupt`` — inject the paper's fault model,
* ``publish`` — disseminate an event from a given peer,
* ``verify`` / ``root`` / ``height`` — the read-only
  :class:`DeploymentView` it shares with ``drtree:net``'s
  :class:`~repro.net.broker.NetSimulation`.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Union)

from repro.overlay.config import DRTreeConfig
from repro.overlay.oracle import ContactOracle
from repro.overlay.peer import DRTreePeer
from repro.overlay.verifier import (OverlayVerifier, StabilizeFixpoint,
                                   VerificationReport)
from repro.sim.conditions import NetConditions
from repro.sim.engine import SimulationEngine
from repro.sim.failures import MemoryCorruptor, CorruptionReport
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.spatial.filters import Event, Subscription


class DeploymentView:
    """The read-only surface of a deployment that holds its peers in-process.

    Shared by :class:`DRTreeSimulation` and
    :class:`~repro.net.broker.NetSimulation`, which set ``peers`` and
    ``verifier``; nothing here mutates a peer, so it is safe from any thread.
    """

    peers: Dict[str, DRTreePeer]
    verifier: OverlayVerifier

    def live_peers(self) -> List[DRTreePeer]:
        """All peers that have not crashed or left."""
        return [peer for peer in self.peers.values() if peer.alive]

    def peer(self, peer_id: str) -> DRTreePeer:
        """Look up a peer by id."""
        return self.peers[peer_id]

    def root(self) -> Optional[DRTreePeer]:
        """The current root peer, if a unique one exists."""
        roots = [peer for peer in self.live_peers() if peer.is_overlay_root()]
        if len(roots) == 1:
            return roots[0]
        return None

    def height(self) -> int:
        """Height of the DR-tree (number of levels)."""
        root = self.root()
        return root.top_level() + 1 if root else 0

    def verify(self, check_containment: bool = False) -> VerificationReport:
        """Run the omniscient legality checker on the live peers."""
        return self.verifier.verify(self.live_peers(),
                                    check_containment=check_containment)


class DRTreeSimulation(DeploymentView):
    """A complete simulated DR-tree deployment."""

    def __init__(
        self,
        config: Optional[DRTreeConfig] = None,
        seed: int = 0,
        conditions: Union[None, str, Mapping[str, Any], NetConditions] = None,
    ) -> None:
        self.config = config or DRTreeConfig()
        self.streams = RandomStreams(seed)
        self.engine = SimulationEngine()
        self.metrics = MetricsRegistry()
        self.network = Network(
            self.engine,
            delay=self.config.message_latency,
            metrics=self.metrics,
            conditions=conditions,
            streams=self.streams,
        )
        self.oracle = ContactOracle()
        self.verifier = OverlayVerifier(
            self.config.min_children, self.config.max_children
        )
        self.corruptor = MemoryCorruptor(self.network, self.streams)
        self.peers: Dict[str, DRTreePeer] = {}

    # ------------------------------------------------------------------ #
    # Membership operations
    # ------------------------------------------------------------------ #

    def add_peer(self, subscription: Subscription,
                 peer_id: Optional[str] = None,
                 join: bool = True,
                 settle: bool = True) -> DRTreePeer:
        """Create a peer for ``subscription`` and (optionally) join it."""
        peer_id = peer_id or subscription.name
        if peer_id in self.peers:
            raise ValueError(f"duplicate peer id {peer_id!r}")
        peer = DRTreePeer(
            peer_id, self.network, subscription,
            config=self.config, oracle=self.oracle,
        )
        self.peers[peer_id] = peer
        if join:
            peer.start_join()
            if settle:
                self.settle()
        return peer

    def bulk_load(self, subscriptions: Sequence[Subscription]) -> None:
        """Lay out a legal DR-tree over ``subscriptions`` (STR fast path).

        Requires an empty simulation.  This is the engine-agnostic bulk
        entry point the pub/sub facade calls: here it runs the in-process
        bootstrap; the sharded simulation overrides it to partition the same
        layout across worker processes.
        """
        from repro.overlay.bootstrap import bootstrap_overlay

        bootstrap_overlay(self, subscriptions)

    def join_all(self, subscriptions: Iterable[Subscription]
                 ) -> List[DRTreePeer]:
        """Create and join one peer per subscription, in order."""
        return [self.add_peer(subscription) for subscription in subscriptions]

    def leave(self, peer_id: str, settle: bool = True) -> None:
        """Controlled departure of ``peer_id``."""
        peer = self.peers[peer_id]
        peer.leave()
        if settle:
            self.settle()

    def crash(self, peer_id: str) -> None:
        """Uncontrolled departure (failure) of ``peer_id``."""
        self.peers[peer_id].crash()
        self.oracle.forget(peer_id)

    def corrupt(self, fraction: float = 0.2,
                fields: Optional[Sequence[str]] = None) -> CorruptionReport:
        """Inject memory corruption into a random fraction of live peers."""
        victims = self.live_peers()
        return self.corruptor.corrupt_random_peers(
            victims, fraction=fraction,
            fields=tuple(fields) if fields else MemoryCorruptor.FIELDS,
        )

    # ------------------------------------------------------------------ #
    # Execution helpers
    # ------------------------------------------------------------------ #

    def settle(self, max_events: int = 200_000) -> None:
        """Deliver every in-flight message (and any join-retry timer), then
        let the peers forget the events they received."""
        self.engine.run_until_idle(max_events=max_events)
        self.network.forget_receptions()

    def run_round(self) -> None:
        """Run one synchronized stabilization round on every live peer."""
        for peer in self.live_peers():
            peer.run_stabilization_round()
        self.settle()

    def stabilize(self, max_rounds: int = 50) -> VerificationReport:
        """Run the rounds :class:`~repro.overlay.verifier.StabilizeFixpoint`
        asks for; return the report of the state they leave (``is_legal``
        says whether ``max_rounds`` sufficed)."""
        fixpoint = StabilizeFixpoint(self.live_peers, self.verifier,
                                     max_rounds, self.metrics)
        for _ in fixpoint:
            self.run_round()
        return fixpoint.report

    # ------------------------------------------------------------------ #
    # Publish/subscribe
    # ------------------------------------------------------------------ #

    def publish(self, publisher_id: str, event: Event,
                settle: bool = True) -> None:
        """Publish ``event`` from peer ``publisher_id``."""
        self.peers[publisher_id].publish(event)
        if settle:
            self.settle()

    # ------------------------------------------------------------------ #
    # Snapshot capability (picklable state for Broker.snapshot)
    # ------------------------------------------------------------------ #

    def has_pending(self) -> bool:
        """True while simulated work (messages, timers) is still in flight."""
        return self.engine.has_pending()

    def snapshot_state(self) -> "DRTreeSimulation":
        """The picklable snapshot payload of this simulation.

        At quiescence the whole object graph — engine (empty heap), network,
        peers, RNG streams, metrics — is plain state; the facade leaves the
        peers' delivery listeners out and writes it with
        :func:`repro.snapshot.dump`.
        """
        return self

    def restore_state(self, state: "DRTreeSimulation") -> "DRTreeSimulation":
        """Adopt an unpickled :meth:`snapshot_state` payload.

        The in-process engines are fully self-contained, so the restored
        object simply replaces the freshly built one.
        """
        return state


def build_stable_tree(
    subscriptions: Sequence[Subscription],
    config: Optional[DRTreeConfig] = None,
    seed: int = 0,
    max_rounds: int = 50,
    bulk: Optional[bool] = None,
) -> DRTreeSimulation:
    """Build a DR-tree over ``subscriptions`` and stabilize it.

    This is the entry point used by the quickstart example and most
    experiments.  Two construction paths exist:

    * **join** (the default below :data:`~repro.overlay.bootstrap.BULK_THRESHOLD`
      peers) — join every subscription in order through the join protocol,
      then run stabilization rounds until the verifier accepts the
      configuration.  This exercises the paper's protocols but costs one
      message cascade per peer.
    * **bulk** (the default at or above the threshold, or with ``bulk=True``)
      — lay out a legal DR-tree directly with the STR fast path
      (:func:`repro.overlay.bootstrap.bootstrap_overlay`) in ``O(n log n)``,
      then run stabilization as a refresh.  This is what makes 5k-10k peer
      scenarios practical.
    """
    from repro.overlay.bootstrap import BULK_THRESHOLD, bootstrap_overlay

    sim = DRTreeSimulation(config=config, seed=seed)
    use_bulk = bulk if bulk is not None else len(subscriptions) >= BULK_THRESHOLD
    if use_bulk:
        bootstrap_overlay(sim, subscriptions)
    else:
        sim.join_all(subscriptions)
    sim.stabilize(max_rounds=max_rounds)
    return sim
