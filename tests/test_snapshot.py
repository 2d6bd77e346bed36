"""The snapshot format: what a blob may name, and every golden blob restores.

:mod:`repro.snapshot` writes and reads every snapshot byte.  A current blob
names only allow-listed globals (no ``itertools`` counter, whose pickling
Python 3.12 deprecates and 3.14 removes, and no ``builtins.getattr``, which
a pickled bound method needs), on every backend that can snapshot.  A blob
carries the SHA-256 of its pickle, so a damaged one is refused before it is
unpickled.  Older blobs go through the module's converters:
``tests/golden/snapshot-96aa8df-*.pickle.gz`` pin the last layout before the
format had a marker, on classic, 2 shards and flooding,
``tests/golden/snapshot-ed024b5-*.pickle.gz`` the last one before the
digest, on classic and 2 shards, and
``tests/golden/snapshot-48ed7bf-sharded-1.pickle.gz`` the last one-shard
payload of the regime that handed such a population to worker 0 verbatim.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os
import pickle
import random
from pathlib import Path

import pytest

from repro import snapshot
from repro.analysis.digests import delivered_digest
from repro.api import SystemSpec
from repro.api.capabilities import SnapshotStateError
from repro.api.registry import backend_names, backend_spec
from repro.sim.engine import SimulationEngine
from repro.sim.sharded import TRANSPORT_ENV_VAR
from repro.workloads import uniform_subscriptions
from repro.workloads.events import uniform_events

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SHARD_TRANSPORT = "auto" if os.environ.get(TRANSPORT_ENV_VAR) else "inline"

SEED = 6
POPULATION = uniform_subscriptions(600, seed=SEED)
STREAM = uniform_events(POPULATION.space, 400, seed=SEED)

#: ``uniform_subscriptions(600, seed=6)`` after ``subscribe_all`` and
#: ``STREAM[:200]``, written by commit 96aa8df (``tests/golden/README.md``
#: has the command), and the delivered digest of the whole stream.
GOLDEN_96AA8DF = {
    "classic": ("drtree:classic", None,
                "0f174fbf0c3a02647c88aeaa882642386fb5ed0c5d1fe2009820f6dc1f93fb53"),
    "sharded-2": ("drtree:sharded", {"shards": 2, "transport": SHARD_TRANSPORT},
                  "0f174fbf0c3a02647c88aeaa882642386fb5ed0c5d1fe2009820f6dc1f93fb53"),
    "flooding": ("flooding", None,
                 "1108a468084791249964241a6c8a46b2349f29693b70245dd7e91c65eaf24aee"),
}


#: The same inputs written by commit ed024b5, the last layout before the
#: digest: its engines kept a second queue and its peers a table of
#: periodic timers.
GOLDEN_ED024B5 = {name: GOLDEN_96AA8DF[name]
                  for name in ("classic", "sharded-2")}

#: The same inputs on one shard, written by commit 48ed7bf: its coordinator
#: delegated a one-shard population to worker 0 and wrote ``multi: False``
#: and a ``height``.  It finishes the stream with classic's digest.
GOLDEN_48ED7BF = {
    "sharded-1": ("drtree:sharded", {"shards": 1, "transport": SHARD_TRANSPORT},
                  GOLDEN_96AA8DF["classic"][2]),
}

#: The width of the digest that follows the marker.
DIGEST_SIZE = hashlib.sha256().digest_size


def build(backend, options=None, seed=SEED):
    return SystemSpec(POPULATION.space, backend=backend, seed=seed,
                      engine_options=options).build()


def close(*brokers):
    for broker in brokers:
        getattr(broker, "close", lambda: None)()


def golden(name: str) -> bytes:
    return gzip.decompress(
        (GOLDEN_DIR / f"snapshot-{name}.pickle.gz").read_bytes())


@pytest.mark.parametrize("name", list(GOLDEN_96AA8DF))
def test_a_96aa8df_snapshot_finishes_the_stream_as_if_uninterrupted(name):
    finishes_the_stream_as_if_uninterrupted("96aa8df", name,
                                            GOLDEN_96AA8DF[name])


@pytest.mark.parametrize("name", list(GOLDEN_ED024B5))
def test_an_ed024b5_snapshot_finishes_the_stream_as_if_uninterrupted(name):
    finishes_the_stream_as_if_uninterrupted("ed024b5", name,
                                            GOLDEN_ED024B5[name])


@pytest.mark.parametrize("name", list(GOLDEN_ED024B5))
def test_an_ed024b5_snapshot_reads_as_the_one_queue_layout(name):
    """Its engines lose the second queue's fields, its peers the periodic
    timer table: every restored object has the current layout."""
    blob = golden(f"ed024b5-{name}")
    assert blob.startswith(snapshot.MAGIC_V1)
    backend = GOLDEN_ED024B5[name][0]
    sim = snapshot.load(blob, "pubsub", backend)["sim"]
    sims = ([snapshot.load(shard, "shard")["sim"] for shard in sim["blobs"]]
            if isinstance(sim, dict) else [sim])
    assert len(sims) == (2 if isinstance(sim, dict) else 1)
    for one in sims:
        assert type(one.engine) is SimulationEngine
        assert vars(one.engine).keys() == vars(SimulationEngine()).keys()
        assert one.peers and not any(
            "_periodic" in vars(peer) for peer in one.peers.values())


@pytest.mark.parametrize("name", list(GOLDEN_48ED7BF))
def test_a_48ed7bf_one_shard_snapshot_finishes_the_stream_on_the_barrier(
        name):
    """The old one-shard payload restores onto the one regime; what the
    restored broker writes no longer carries ``multi``, ``height``, the
    partition ``plan``, the ``owner`` map or the per-shard metric
    mirrors."""
    backend, options, _ = GOLDEN_48ED7BF[name]
    old = snapshot.load(golden(f"48ed7bf-{name}"), "pubsub", backend)["sim"]
    assert old["multi"] is False and len(old["blobs"]) == 1
    finishes_the_stream_as_if_uninterrupted("48ed7bf", name,
                                            GOLDEN_48ED7BF[name])
    restored = build(backend, options)
    try:
        restored.restore(golden(f"48ed7bf-{name}"))
        new = snapshot.load(restored.snapshot(), "pubsub", backend)["sim"]
        assert new.keys() == old.keys() - {
            "multi", "height", "plan", "owner", "shard_metrics",
            "shard_deliveries"}
    finally:
        close(restored)


#: Every golden DR-tree blob: all were written while networks held a
#: ``FixedLatency``, a loss rate with its ``network.loss`` stream and group
#: partitions.
DRTREE_GOLDENS = ["classic", "batched", "sharded-2", "96aa8df-classic",
                  "96aa8df-sharded-2", "ed024b5-classic",
                  "ed024b5-sharded-2", "48ed7bf-sharded-1"]


@pytest.mark.parametrize("name", DRTREE_GOLDENS)
def test_an_old_networks_latency_model_reads_as_its_delay(name):
    """Each restored network keeps the latency's delay, has no condition
    pipeline, and holds none of the old fault fields."""
    sim = snapshot.load(golden(name), "pubsub")["sim"]
    sims = ([snapshot.load(shard, "shard")["sim"] for shard in sim["blobs"]]
            if isinstance(sim, dict) else [sim])
    for one in sims:
        network = one.network
        assert network.delay == 1.0 and network.pipeline is None
        assert not vars(network).keys() & {
            "latency", "loss_rate", "_loss_rng", "_partitions", "_streams"}


def finishes_the_stream_as_if_uninterrupted(commit, name, row):
    backend, options, digest = row
    restored, uninterrupted = build(backend, options), build(backend, options)
    try:
        restored.restore(golden(f"{commit}-{name}"))
        restored.publish_many(STREAM[200:])
        uninterrupted.subscribe_all(list(POPULATION))
        uninterrupted.publish_many(STREAM)
        assert delivered_digest(restored) == digest
        assert delivered_digest(uninterrupted) == digest
        assert restored.summary() == uninterrupted.summary()
    finally:
        close(restored, uninterrupted)


def names_in(blob: bytes) -> set:
    """Every ``(module, name)`` a blob and its shard blobs name."""
    named = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            named.add((module, name))
            return super().find_class(module, name)

    assert blob.startswith(snapshot.MAGIC)
    payload = Recorder(io.BytesIO(
        blob[len(snapshot.MAGIC) + DIGEST_SIZE:])).load()
    if isinstance(payload.get("sim"), dict):
        for shard_blob in payload["sim"]["blobs"]:
            named |= names_in(shard_blob)
    return named


SNAPSHOT_BACKENDS = [name for name in backend_names()
                     if "snapshot" in backend_spec(name).capabilities]


@pytest.mark.parametrize("backend", SNAPSHOT_BACKENDS)
def test_snapshots_name_only_allowed_globals(backend):
    """After a build, publishes, a crash and a repair; the DR-tree rows at a
    population that runs 2 shards, the (slow) baselines at a small one."""
    drtree = backend.startswith("drtree:")
    subscriptions = list(POPULATION)[:520 if drtree else 60]
    options = ({"shards": 2, "transport": SHARD_TRANSPORT}
               if backend == "drtree:sharded" else None)
    broker = build(backend, options)
    try:
        broker.subscribe_all(subscriptions)
        broker.publish_many(STREAM[:10])
        broker.fail(subscriptions[0].name, stabilize=False)
        broker.fail(subscriptions[1].name, stabilize=False)
        broker.stabilize()
        broker.publish_many(STREAM[10:20])
        named = names_in(broker.snapshot())
    finally:
        close(broker)
    assert named <= snapshot.ALLOWED, sorted(named - snapshot.ALLOWED)
    assert not {name for name in named
                if name[0] == "itertools" or name == ("builtins", "getattr")}


@pytest.mark.parametrize("engine", ["classic", "sharded"])
def test_a_restored_broker_delivers_through_its_own_accounting(engine):
    options = ({"shards": 2, "transport": SHARD_TRANSPORT}
               if engine == "sharded" else None)
    original = build(f"drtree:{engine}", options)
    restored = build(f"drtree:{engine}", options)
    try:
        original.subscribe_all(list(POPULATION)[:520])
        original.publish_many(STREAM[:10])
        restored.restore(original.snapshot())
        # Taking the snapshot left the original's own listeners in place.
        assert all(peer.delivery_listener == original.accounting.record_delivery
                   for peer in original.simulation.peers.values())
        assert all(peer.delivery_listener == restored.accounting.record_delivery
                   for peer in restored.simulation.peers.values())
        original.publish_many(STREAM[10:30])
        restored.publish_many(STREAM[10:30])
        assert delivered_digest(restored) == delivered_digest(original)
        assert restored.summary() == original.summary()
    finally:
        close(original, restored)


def test_a_blob_of_another_kind_or_backend_is_refused():
    classic, flooding = build("drtree:classic"), build("flooding")
    classic.subscribe_all(list(POPULATION)[:40])
    blob = classic.snapshot()
    with pytest.raises(SnapshotStateError, match="backend 'drtree:classic'"):
        build("drtree:batched").restore(blob)
    with pytest.raises(SnapshotStateError, match="not a baseline snapshot"):
        flooding.restore(blob)
    payload = snapshot.load(blob, "pubsub", "drtree:classic")
    del payload["event_counter"]
    with pytest.raises(SnapshotStateError, match="lacks event_counter"):
        classic.restore(snapshot.dump(payload))
    with pytest.raises(SnapshotStateError, match="bytes, not str"):
        classic.restore("not bytes")


def test_a_blob_whose_references_were_swapped_is_refused():
    """A flipped memo index makes a pickle hand back the wrong object; the
    restore reads the peers and the subscriptions, so those are checked."""
    broker = build("drtree:classic")
    broker.subscribe_all(list(POPULATION)[:40])
    blob = broker.snapshot()
    payload = snapshot.load(blob, "pubsub", broker.backend)
    sim = payload["sim"]
    sim.peers["S1"] = sim.peers["S2"].instances[0]
    with pytest.raises(SnapshotStateError, match="not all DRTreePeers"):
        broker.restore(snapshot.dump(payload))
    payload = snapshot.load(blob, "pubsub", broker.backend)
    payload["subscriptions"]["S1"] = payload["sim"].peers["S2"]
    with pytest.raises(SnapshotStateError, match="do not fit this broker"):
        broker.restore(snapshot.dump(payload))
    # Neither refusal touched the broker.
    assert broker.snapshot() == blob


def test_a_blob_carries_the_digest_of_its_pickle():
    broker = build("drtree:classic")
    broker.subscribe_all(list(POPULATION)[:40])
    blob = broker.snapshot()
    digest = blob[len(snapshot.MAGIC):len(snapshot.MAGIC) + DIGEST_SIZE]
    assert digest == hashlib.sha256(
        blob[len(snapshot.MAGIC) + DIGEST_SIZE:]).digest()


def test_no_single_bit_flip_restores():
    """Every flip of one bit, in the marker, the digest or the pickle, is
    refused with the typed error, and the refusal leaves the broker as it
    was.  Without the digest, over a third of such flips restored."""
    broker = build("drtree:classic")
    broker.subscribe_all(list(POPULATION)[:40])
    broker.publish_many(STREAM[:10])
    blob = broker.snapshot()
    draw = random.Random(0)
    positions = (list(range(len(snapshot.MAGIC) + DIGEST_SIZE + 2))
                 + draw.sample(range(len(blob)), 200))
    for position in positions:
        damaged = bytearray(blob)
        damaged[position] ^= 1 << draw.randrange(8)
        with pytest.raises(SnapshotStateError):
            broker.restore(bytes(damaged))
    assert broker.snapshot() == blob


#: Every golden sharded blob: each payload still carries the coordinator's
#: copies of the owner map and of the per-shard counters.
SHARDED_GOLDENS = ["sharded-2", "96aa8df-sharded-2", "ed024b5-sharded-2",
                   "48ed7bf-sharded-1"]


@pytest.mark.parametrize("name", SHARDED_GOLDENS)
def test_a_golden_sharded_payload_repeats_what_its_handles_and_shards_hold(
        name):
    """Why a payload may drop ``owner``, ``shard_metrics`` and
    ``shard_deliveries``: the owner map is the handles' shards, and each
    shard's mirrored counters are that shard blob's own registry, its
    deliveries the registry's ``pubsub.receptions``."""
    sim = snapshot.load(golden(name), "pubsub", "drtree:sharded")["sim"]
    assert sim["owner"] == {peer_id: handle.shard
                            for peer_id, handle in sim["peers"].items()}
    assert sorted(sim["shard_metrics"]) == sorted(sim["shard_deliveries"]) \
        == list(range(len(sim["blobs"])))
    for shard_id, blob in enumerate(sim["blobs"]):
        shard = snapshot.load(blob, "shard")["sim"]
        registry = shard.metrics
        mirrored = sim["shard_metrics"][shard_id].counters()
        assert mirrored and all(registry.counter(counter) == value
                                for counter, value in mirrored.items())
        assert sim["shard_deliveries"][shard_id] == registry.counter(
            "pubsub.receptions")
        # A restored shard network holds no owner map of its own.
        assert "owner" not in vars(shard.network)
