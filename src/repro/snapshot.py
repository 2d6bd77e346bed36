"""The broker snapshot format: every snapshot byte is written and read here.

``Broker.snapshot()`` returns :func:`dump` of a payload dict of plain state
taken at quiescence (no iterator objects, no bound methods), and
``Broker.restore()`` hands the blob to :func:`load`.  The callers are the
DR-tree facade, the baseline broker and the shard worker, whose per-shard
blobs travel inside the sharded simulation's payload.

A blob is :data:`MAGIC`, then the SHA-256 of the pickle, then the pickle.
:func:`load` checks the digest first, so a damaged blob is refused before
any of it is unpickled.  It then reads the pickle with an ``Unpickler`` that
admits only the globals in :data:`ALLOWED`: a snapshot comes back from a
journal on disk, and a pickle that may name any global may run any code
(``builtins.getattr`` reaches ``__globals__``; some ``repro`` constructors
open files, sockets or processes).  Before that, every blob is pre-scanned
(:func:`_refuse_unbacked_counts`), since the unpickler allocates some counts
before it finds their bytes missing: a true digest does not make a blob's
counts true.

Older layouts still read, each as the current one, through converters
that the reader admits beside :data:`ALLOWED`.  A blob marked ``RSNAP\\x02``
may have been written while networks held a latency model, a loss rate, its
RNG stream and group partitions, shard networks an owner map, and sharded
payloads a partition plan, an owner map and per-shard metric mirrors
(:func:`_v2_globals` keeps the delay and drops the rest; on a current blob
its converters change nothing).  A blob marked ``RSNAP\\x01``
carries no digest, and its engines and peers hold the fields of the
engine's second queue and of the simulated periodic timers
(:func:`_v1_globals` drops them).  A blob without a marker was written
before it existed (:func:`_legacy_globals`): a counter pickled as
``itertools.count(n)`` becomes the int ``n``, a pickled delivery listener
or handler-table entry is dropped, and the classes whose fields changed
convert their old state as it is set.  No live class knows an old layout.

Any malformed, hostile or mismatched blob raises
:class:`~repro.api.capabilities.SnapshotStateError` from :func:`load`,
before the caller has changed anything.
"""

from __future__ import annotations

import functools
import hashlib
import io
import pickle
import pickletools
import types
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, Optional

from repro.api.capabilities import SnapshotStateError

#: Prefix of every blob :func:`dump` writes.  No pickle starts with it: a
#: pickle of protocol 2 or later starts with the ``PROTO`` opcode ``0x80``.
MAGIC = b"RSNAP\x02"

#: Prefix of the previous layout, a marker followed directly by the pickle.
MAGIC_V1 = b"RSNAP\x01"

#: The digest of the pickle that follows :data:`MAGIC`.
_DIGEST_SIZE = hashlib.sha256().digest_size

#: Every global a current snapshot may name: the union, over every
#: snapshot-capable backend, of what a snapshot after a build, publishes, a
#: crash and a repair names (``tests/test_snapshot.py`` keeps it so).
ALLOWED = frozenset({
    ("builtins", "float"),
    ("collections", "defaultdict"),
    ("random", "Random"),
    ("repro.baselines.centralized", "CentralizedBrokerOverlay"),
    ("repro.baselines.containment_tree", "ContainmentTreeOverlay"),
    ("repro.baselines.flooding", "FloodingOverlay"),
    ("repro.baselines.per_dimension", "PerDimensionOverlay"),
    ("repro.overlay.builder", "DRTreeSimulation"),
    ("repro.overlay.config", "DRTreeConfig"),
    ("repro.overlay.oracle", "ContactOracle"),
    ("repro.overlay.peer", "DRTreePeer"),
    ("repro.overlay.state", "ChildInfo"),
    ("repro.overlay.state", "LevelState"),
    ("repro.overlay.verifier", "OverlayVerifier"),
    ("repro.pubsub.accounting", "DeliveryAccounting"),
    ("repro.pubsub.accounting", "EventOutcome"),
    ("repro.rtree.entry", "Entry"),
    ("repro.rtree.node", "RTreeNode"),
    ("repro.rtree.rtree", "RTree"),
    ("repro.rtree.rtree", "RTreeStats"),
    ("repro.rtree.split", "quadratic_split"),
    ("repro.sim.engine", "SimulationEngine"),
    ("repro.sim.failures", "MemoryCorruptor"),
    ("repro.sim.metrics", "Histogram"),
    ("repro.sim.metrics", "MetricsRegistry"),
    ("repro.sim.network", "Network"),
    ("repro.sim.rng", "RandomStreams"),
    ("repro.sim.sharded.coordinator", "ShardPeerHandle"),
    ("repro.sim.sharded.worker", "ShardNetwork"),
    ("repro.sim.sharded.worker", "ShardOracle"),
    ("repro.spatial.filters", "AttributeSpace"),
    ("repro.spatial.filters", "Predicate"),
    ("repro.spatial.filters", "Subscription"),
    ("repro.spatial.rectangle", "Rect"),
})

#: Keys every payload of a kind carries.
_KEYS = {
    "pubsub": {"backend", "subscriptions", "accounting", "event_counter",
               "sim"},
    "baseline": {"backend", "overlay", "accounting", "retired", "ops",
                 "event_counter"},
    "shard": {"sim"},
}

#: Keys of the sharded simulation's state inside a ``pubsub`` payload
#: (older payloads also carry ``multi``, ``height``, ``plan``, ``owner``,
#: ``shard_metrics`` and ``shard_deliveries``, read as extras: the handles
#: name each peer's shard and each shard blob holds its own counters).
_SHARDED_KEYS = {"kind", "seed", "now", "config", "streams", "metrics",
                 "peers", "root_id", "blobs"}


def dump(payload: Dict[str, Any]) -> bytes:
    """The snapshot blob of ``payload``, a dict of plain state."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return MAGIC + hashlib.sha256(data).digest() + data


def load(blob: bytes, kind: str,
         backend: Optional[str] = None) -> Dict[str, Any]:
    """The payload of a :func:`dump` blob (or an older one) of ``kind``.

    ``kind`` is ``"pubsub"``, ``"baseline"`` or ``"shard"``; ``backend``,
    when given, must be the backend the blob was taken on.  Raises
    :class:`SnapshotStateError` for anything else.
    """
    if not isinstance(blob, (bytes, bytearray)):
        raise SnapshotStateError(
            f"a snapshot blob is bytes, not {type(blob).__name__}")
    legacy = False
    if blob.startswith(MAGIC):
        body = memoryview(blob)[len(MAGIC):]
        data = body[_DIGEST_SIZE:]
        if hashlib.sha256(data).digest() != body[:_DIGEST_SIZE]:
            raise SnapshotStateError(
                "snapshot blob does not match its digest: it is damaged")
        converters = _v2_globals()
    elif blob.startswith(MAGIC_V1):
        data, converters = memoryview(blob)[len(MAGIC_V1):], _v1_globals()
    else:
        data, converters, legacy = blob, _legacy_globals(), True
    try:
        _refuse_unbacked_counts(bytes(data))
        payload = _Reader(io.BytesIO(data), converters).load()
    except Exception as exc:  # noqa: BLE001 - any unpickle failure
        raise SnapshotStateError(
            f"snapshot blob does not deserialize: {exc}") from exc
    if legacy and kind == "shard" and not isinstance(payload, dict):
        # A shard once pickled its bare simulation.
        payload = {"kind": "shard", "sim": payload}
    _check(payload, kind, backend)
    return payload


def _check(payload: Any, kind: str, backend: Optional[str]) -> None:
    """Raise unless ``payload`` holds what a broker of ``kind`` adopts."""
    from repro.baselines.base import BaselineOverlay
    from repro.overlay.builder import DRTreeSimulation
    from repro.overlay.peer import DRTreePeer
    from repro.pubsub.accounting import DeliveryAccounting

    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise SnapshotStateError(f"snapshot blob is not a {kind} snapshot")
    missing = _KEYS[kind] - payload.keys()
    if missing:
        raise SnapshotStateError(
            f"{kind} snapshot lacks {', '.join(sorted(missing))}")
    if backend is not None and payload["backend"] != backend:
        raise SnapshotStateError(
            f"snapshot was taken on backend {payload['backend']!r}; "
            f"this broker is {backend!r}")
    sharded = payload.get("backend") == "drtree:sharded"
    types = {"subscriptions": dict, "accounting": DeliveryAccounting,
             "event_counter": int, "overlay": BaselineOverlay,
             "retired": set, "ops": int,
             "sim": dict if sharded else DRTreeSimulation}
    for key in _KEYS[kind] & types.keys():
        value = payload[key]
        if not isinstance(value, types[key]) or isinstance(value, bool):
            raise SnapshotStateError(
                f"{kind} snapshot's {key} is a {type(value).__name__}")
    sim = payload.get("sim")
    if sim is None:
        return
    if sharded:
        from repro.sim.sharded.coordinator import ShardPeerHandle

        if sim.get("kind") != "sharded" or _SHARDED_KEYS - sim.keys() \
                or not isinstance(sim["blobs"], list):
            raise SnapshotStateError(
                "snapshot blob was not taken on a sharded simulation")
        peers, peer_type = sim["peers"], ShardPeerHandle
    else:
        peers, peer_type = vars(sim).get("peers"), DRTreePeer
    # The restoring broker installs its listener on every peer.
    if not isinstance(peers, dict) or not all(
            isinstance(peer, peer_type) for peer in peers.values()):
        raise SnapshotStateError(
            f"snapshot's peers are not all {peer_type.__name__}s")


# --------------------------------------------------------------------------- #
# The pre-scan: no count or index the blob cannot back
# --------------------------------------------------------------------------- #

def _refuse_unbacked_counts(data: bytes) -> None:
    """Refuse what would make the unpickler allocate what ``data`` lacks.

    The unpickler allocates a bytes or bytearray count, and grows its memo
    to an index, before it finds the bytes missing.  :func:`pickletools.genops`
    reads each counted argument with at most the bytes left and raises
    ``ValueError`` on a count past them.  Beside that, a frame longer than
    the bytes after it, a memo index past the blob's length, and a
    ``BYTEARRAY8`` or text ``PUT`` (no snapshot holds one) are refused.
    """
    end = len(data)
    for opcode, arg, at in pickletools.genops(data):
        if opcode.name in ("BYTEARRAY8", "PUT"):
            raise pickle.UnpicklingError(
                f"{opcode.name} at byte {at}: no snapshot holds one")
        # A FRAME is 9 bytes long; its frame is the bytes after it.
        if opcode.name == "FRAME" and arg > end - at - 9:
            raise pickle.UnpicklingError(
                f"frame of {arg} bytes at byte {at} is past the bytes left")
        if opcode.name == "LONG_BINPUT" and arg > end:
            raise pickle.UnpicklingError(
                f"memo index {arg} at byte {at} is past the {end} bytes "
                "that could back it")


class _Reader(pickle.Unpickler):
    """Admits the :data:`ALLOWED` globals, and reads each global that
    ``converters`` names (an old layout's) as its converter."""

    def __init__(self, file: io.BytesIO,
                 converters: Dict[tuple, Any]) -> None:
        super().__init__(file)
        self.converters = converters

    def find_class(self, module: str, name: str) -> Any:
        converter = self.converters.get((module, name))
        if converter is not None:
            return converter
        if (module, name) not in ALLOWED:
            raise pickle.UnpicklingError(
                f"snapshot names {module}.{name}, which no snapshot holds")
        return super().find_class(module, name)


# --------------------------------------------------------------------------- #
# Old layouts
# --------------------------------------------------------------------------- #


@functools.lru_cache(maxsize=None)
def _v2_globals() -> Dict[tuple, Any]:
    """What a global of an ``RSNAP\\x02`` blob is read as, beside the
    :data:`ALLOWED` ones."""
    from repro.overlay.layout import ShardPlan
    from repro.sim.network import Network
    from repro.sim.sharded.worker import ShardNetwork

    return {
        # A latency model: the network's converter keeps its delay.
        ("repro.sim.network", "FixedLatency"): types.SimpleNamespace,
        ("repro.overlay.layout", "ShardPlan"): ShardPlan,
        ("repro.sim.network", "Network"): _converting(Network,
                                                      _v2_network_state),
        ("repro.sim.sharded.worker", "ShardNetwork"): _converting(
            ShardNetwork, _v2_network_state),
    }


@functools.lru_cache(maxsize=None)
def _v1_globals() -> Dict[tuple, Any]:
    """What a global of an ``RSNAP\\x01`` blob is read as, beside the
    :data:`ALLOWED` ones."""
    from repro.overlay.peer import DRTreePeer
    from repro.sim.engine import SimulationEngine

    return {
        **_v2_globals(),
        ("repro.sim.engine", "SimulationEngine"): _converting(
            SimulationEngine, _engine_state),
        ("repro.overlay.peer", "DRTreePeer"): _converting(DRTreePeer,
                                                          _v1_peer_state),
    }


@functools.lru_cache(maxsize=None)
def _legacy_globals() -> Dict[tuple, Any]:
    """What a global of an unmarked blob is read as, beside the
    :data:`ALLOWED` ones."""
    from repro.overlay.peer import DRTreePeer
    from repro.overlay.state import ChildInfo
    from repro.pubsub.accounting import DeliveryAccounting
    from repro.sim.messages import Message
    from repro.sim.metrics import MetricsRegistry
    from repro.sim.network import Network
    from repro.sim.sharded.worker import ShardNetwork

    return {
        **_v1_globals(),
        ("itertools", "count"): _counter_value,
        ("builtins", "getattr"): _dropped_wiring,
        ("repro.sim.messages", "MessagePool"): _Dropped,
        ("repro.pubsub.accounting", "DeliveryRecord"): _DeliveryRecord,
        ("repro.sim.messages", "Message"): _converting(Message),
        ("repro.overlay.state", "ChildInfo"): _converting(ChildInfo),
        ("repro.overlay.peer", "DRTreePeer"): _converting(DRTreePeer,
                                                          _peer_state),
        ("repro.sim.network", "Network"): _converting(Network,
                                                      _network_state),
        ("repro.sim.sharded.worker", "ShardNetwork"): _converting(
            ShardNetwork, _network_state),
        ("repro.sim.metrics", "MetricsRegistry"): _converting(
            MetricsRegistry, _metrics_state),
        ("repro.pubsub.accounting", "DeliveryAccounting"): _converting(
            DeliveryAccounting, _accounting_state),
    }


def _counter_value(start: int = 0, step: int = 1) -> int:
    """``itertools.count(start)``, read as the int it would yield next."""
    if step != 1 or type(start) is not int:
        raise pickle.UnpicklingError(
            f"no snapshot counter counts from {start!r} by {step!r}")
    return start


def _dropped_wiring(target: Any, name: str) -> None:
    """A pickled bound method, read as ``None``.

    Peers pickled their delivery listener (the accounting's
    ``record_delivery``) and, before the class-level handler table, a table
    of their own ``handle_*`` methods.  Both are wiring: the restoring
    broker re-installs the listener, and the table is dropped.  Any other
    ``getattr`` is refused.
    """
    from repro.overlay.peer import DRTreePeer
    from repro.pubsub.accounting import DeliveryAccounting

    if isinstance(target, DeliveryAccounting) and name == "record_delivery":
        return None
    if isinstance(target, DRTreePeer) and name in DRTreePeer.handlers.values():
        return None
    raise pickle.UnpicklingError(
        f"snapshot reaches {type(target).__name__}.{name}")


class _Dropped:
    """An envelope free list (``Network.pool``); the network drops it."""


class _DeliveryRecord:
    """One per-delivery record; the accounting folds them into totals."""


def _converting(cls: type,
                convert: Optional[Callable[[Dict[str, Any]], None]] = None
                ) -> type:
    """A stand-in for ``cls`` that converts an old state, then becomes ``cls``.

    The state may be an instance dict (records pickled before they were
    slotted) or ``(dict or None, slot values)``; ``convert`` edits the
    merged mapping in place before it is set.
    """
    def __setstate__(self, state: Any) -> None:
        if isinstance(state, tuple):
            instance, slots = state
            state = {**(instance or {}), **(slots or {})}
        else:
            state = dict(state)
        if convert is not None:
            convert(state)
        self.__class__ = cls
        for name, value in state.items():
            object.__setattr__(self, name, value)

    return type(cls.__name__, (cls,), {"__slots__": (),
                                       "__setstate__": __setstate__,
                                       "__module__": __name__})


def _engine_state(state: Dict[str, Any]) -> None:
    # Engines kept a second queue, of per-instant buckets, beside the heap.
    # A snapshot is taken at quiescence, so the buckets are empty.
    for name in ("_batch_buckets", "_batch_times", "_batch_pending"):
        state.pop(name, None)


def _v1_peer_state(state: Dict[str, Any]) -> None:
    # Processes kept a table of periodic timers (never armed by a broker).
    state.pop("_periodic", None)


def _peer_state(state: Dict[str, Any]) -> None:
    # Peers pickled their own handler table, and every event they had seen.
    _v1_peer_state(state)
    state.pop("_handlers", None)
    state["seen_events"] = {}


def _v2_network_state(state: Dict[str, Any]) -> None:
    # Networks held a latency model, a loss rate with its RNG stream and
    # group partitions, and shard networks an owner map, which the
    # coordinator's handles repeat.  No broker gave one loss or a partition.
    state.pop("owner", None)
    latency = state.pop("latency", None)
    if latency is not None:
        state["delay"] = latency.delay
    if state.pop("loss_rate", 0.0) or state.pop("_partitions", None):
        raise pickle.UnpicklingError(
            "snapshot holds a lossy or partitioned network")
    state.pop("_loss_rng", None)
    state.pop("_streams", None)
    state.setdefault("pipeline", None)


def _network_state(state: Dict[str, Any]) -> None:
    # Networks pickled an envelope free list and the flag that chose between
    # two schedulers, and held no reception tables.
    _v2_network_state(state)
    state.pop("pool", None)
    state.pop("batch", None)
    state.setdefault("_held_receptions", [])


def _metrics_state(state: Dict[str, Any]) -> None:
    # Registries sampled every delivery's hops; the accounting keeps totals.
    state["_histograms"].pop("pubsub.delivery_hops", None)


def _accounting_state(state: Dict[str, Any]) -> None:
    # The accounting kept one record per delivery instead of hop totals.
    records = state.pop("records", None)
    if records is not None:
        matched = [record.hops for record in records if record.matched]
        state["matched_hops"] = sum(matched)
        state["matched_deliveries"] = len(matched)
        state["max_hops"] = max((record.hops for record in records),
                                default=0)


# --------------------------------------------------------------------------- #
# Delivery listeners: wiring, not state
# --------------------------------------------------------------------------- #


@contextmanager
def listeners_left_out(peers: Iterable[Any]) -> Iterator[None]:
    """Detach every peer's ``delivery_listener`` while a snapshot is taken."""
    peers = list(peers)
    listeners = [peer.delivery_listener for peer in peers]
    for peer in peers:
        peer.delivery_listener = None
    try:
        yield
    finally:
        for peer, listener in zip(peers, listeners):
            peer.delivery_listener = listener


def install_listener(peers: Iterable[Any], listener: Callable) -> None:
    """Give ``listener`` to every peer that has none (after a restore, all)."""
    for peer in peers:
        if getattr(peer, "delivery_listener", None) is None:
            peer.delivery_listener = listener
