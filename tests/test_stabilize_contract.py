"""One stabilize contract, every DR-tree engine.

``drtree:classic``, ``drtree:batched``, a multi-shard ``drtree:sharded`` and
``drtree:net`` (background stabilizers off, so every round is driven) all run
the same :class:`~repro.overlay.verifier.StabilizeFixpoint`.  This table pins
what that loop promises through each of them: the report it returns is the
verification of the state it leaves, the rounds it records are the same on
every engine, ``max_rounds=0`` only verifies, the omniscient verifier
runs only where the loop reads its answer, and a deep crash whose fragment
roots land on different shards still repairs to one legal root.

The sharded leg runs ``inline`` here; with ``REPRO_SHARD_TRANSPORT`` set
(the CI transport matrix) it runs on that transport instead.
"""

from __future__ import annotations

import gzip
import os
from pathlib import Path

import pytest

from repro import snapshot
from repro.analysis.digests import delivered_digest
from repro.api import SystemSpec
from repro.overlay.verifier import OverlayVerifier
from repro.sim.sharded import TRANSPORT_ENV_VAR
from repro.workloads import uniform_subscriptions
from repro.workloads.events import targeted_events, uniform_events

SEED = 6
POPULATION = uniform_subscriptions(600, seed=SEED)
SUBSCRIPTIONS = list(POPULATION)
(JOINER,) = uniform_subscriptions(1, seed=7, prefix="J")
PROBES = targeted_events(POPULATION.space, SUBSCRIPTIONS, 30, seed=SEED)

#: Level-≥2 peers whose crash leaves fragment roots on both shards.  While
#: each shard's oracle kept its root advertisements to itself, the sharded
#: repair of each stopped at the round cap with two roots and missed
#: subscribers.  ``True``: the repaired tree also delivers exactly what
#: classic's does; under ``S289`` the rounds agree but the re-joined
#: fragments sit elsewhere, so the false-positive sets differ.
DEEP_CRASHES = {"S51": True, "S165": True, "S289": False}

SHARD_TRANSPORT = "auto" if os.environ.get(TRANSPORT_ENV_VAR) else "inline"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

ENGINES = {
    "classic": ("drtree:classic", None),
    "batched": ("drtree:batched", None),
    "sharded": ("drtree:sharded",
                {"shards": 2, "transport": SHARD_TRANSPORT}),
    "net": ("drtree:net", {"stabilizer": "off"}),
}


@pytest.fixture(params=list(ENGINES))
def broker(request):
    backend, options = ENGINES[request.param]
    broker = SystemSpec(POPULATION.space, backend=backend, seed=SEED,
                        engine_options=options).build()
    try:
        broker.subscribe_all(SUBSCRIPTIONS)
        if backend == "drtree:sharded":
            assert len(broker.simulation.shard_report()) == 2  # multi-shard
        yield broker
    finally:
        broker.close()


@pytest.fixture(scope="module")
def victims():
    """The root and an internal non-root peer of the bulk-loaded tree.

    Every engine lays out the same tree, so the ids are read once, on
    ``drtree:classic``.
    """
    probe = SystemSpec(POPULATION.space, backend="drtree:classic",
                       seed=SEED).build()
    probe.subscribe_all(SUBSCRIPTIONS)
    simulation = probe.simulation
    root = simulation.root()
    internal = next(peer for peer in simulation.live_peers()
                    if peer.top_level() >= 1 and peer is not root)
    return {"root": root.process_id, "internal": internal.process_id}


def fresh_verify(broker):
    """A verification of the broker's current state, outside ``stabilize``."""
    simulation = broker.simulation
    if hasattr(simulation, "verify"):
        return simulation.verify()
    # The sharded coordinator verifies the merged views of its shards.
    config = simulation.config
    return OverlayVerifier(config.min_children, config.max_children).verify(
        simulation._peer_views())


def rounds_of(broker) -> list:
    return broker.simulation.metrics.histogram("stabilize.rounds").values


def count_verifies(monkeypatch) -> list:
    """Record one entry per verifier pass: a full ``verify`` or a
    ``legal_report`` (the fixpoint's pass that may stop early)."""
    calls = []
    real_verify = OverlayVerifier.verify
    real_legal_report = OverlayVerifier.legal_report

    def verify(self, peers, check_containment=False):
        calls.append("verify")
        return real_verify(self, peers, check_containment=check_containment)

    def legal_report(self, peers):
        calls.append("legal_report")
        return real_legal_report(self, peers)

    monkeypatch.setattr(OverlayVerifier, "verify", verify)
    monkeypatch.setattr(OverlayVerifier, "legal_report", legal_report)
    return calls


def test_the_report_is_the_state_an_internal_crash_repair_leaves(broker,
                                                                 victims):
    broker.fail(victims["internal"], stabilize=False)
    report = broker.stabilize()
    assert report.is_legal
    assert report == fresh_verify(broker)


def test_every_engine_records_the_same_rounds(broker, victims):
    broker.fail(victims["internal"], stabilize=False)
    broker.stabilize()
    # One refresh round after the bulk load, then the repair.
    assert rounds_of(broker) == [1, 5]


def test_zero_rounds_reports_the_current_state(broker, victims):
    broker.fail(victims["internal"], stabilize=False)
    report = broker.simulation.stabilize(max_rounds=0)
    assert rounds_of(broker)[-1] == 0
    assert not report.is_legal
    assert report == fresh_verify(broker)


def test_the_round_cap_reports_an_illegal_tree_after_one_pass(broker, victims,
                                                              monkeypatch):
    broker.fail(victims["root"], stabilize=False)
    calls = count_verifies(monkeypatch)
    report = broker.simulation.stabilize(max_rounds=1)
    assert not report.is_legal
    assert rounds_of(broker)[-1] == 1
    assert calls == ["verify"]  # the one behind the returned report
    assert report == fresh_verify(broker)


@pytest.fixture(scope="module")
def classic_digests():
    """Classic's delivered digest of the probes after each deep crash."""
    digests = {}
    for victim in DEEP_CRASHES:
        reference = SystemSpec(POPULATION.space, backend="drtree:classic",
                               seed=SEED).build()
        reference.subscribe_all(SUBSCRIPTIONS)
        reference.fail(victim)
        reference.publish_many(PROBES)
        digests[victim] = delivered_digest(reference)
    return digests


@pytest.mark.parametrize("victim", list(DEEP_CRASHES))
def test_a_deep_crash_repairs_to_one_legal_root(broker, victim,
                                                classic_digests):
    broker.fail(victim, stabilize=False)
    report = broker.stabilize()
    assert report.is_legal and report.root is not None, report.summary()
    assert rounds_of(broker) == [1, 6]
    outcomes = broker.publish_many(PROBES)
    assert [o.event_id for o in outcomes if o.false_negatives] == []
    if DEEP_CRASHES[victim]:
        assert delivered_digest(broker) == classic_digests[victim]


#: ``Broker.snapshot()`` blobs of this population after ``subscribe_all``,
#: written by commit fc2d28c: its oracle still pickled the random-contact
#: mode and an RNG, and each shard kept its root advertisements to itself.
#: ``tests/golden/README.md`` has the command that wrote them.
GOLDEN_SNAPSHOTS = {
    "classic": "snapshot-classic.pickle.gz",
    "sharded": "snapshot-sharded-2.pickle.gz",
}


def networks_of(broker):
    """The restored network of every shard (one, off the sharded engine)."""
    simulation = broker.simulation
    if hasattr(simulation, "network"):
        return [simulation.network]
    return [snapshot.load(simulation._rpc(shard, ("snapshot",)),
                          "shard")["sim"].network
            for shard in range(len(simulation._shards))]


@pytest.mark.parametrize("engine", list(GOLDEN_SNAPSHOTS))
def test_an_old_snapshot_restores_and_repairs_a_deep_crash(engine,
                                                           classic_digests):
    backend, options = ENGINES[engine]
    broker = SystemSpec(POPULATION.space, backend=backend, seed=SEED,
                        engine_options=options).build()
    try:
        blob = (GOLDEN_DIR / GOLDEN_SNAPSHOTS[engine]).read_bytes()
        broker.restore(gzip.decompress(blob))
        # The blobs pickle the ``batch`` flag that once chose between two
        # schedulers; restoring drops it.
        assert not any(hasattr(network, "batch")
                       for network in networks_of(broker))
        broker.fail("S51", stabilize=False)
        report = broker.stabilize()
        assert report.is_legal and report.root is not None, report.summary()
        assert rounds_of(broker) == [1, 6]
        broker.publish_many(PROBES)
        assert delivered_digest(broker) == classic_digests["S51"]
    finally:
        broker.close()


#: Published half before and half after the snapshot below.
STREAM = uniform_events(POPULATION.space, 400, seed=SEED)

#: A ``drtree:batched`` ``Broker.snapshot()`` of this population after
#: ``subscribe_all`` and ``STREAM[:200]``, written by commit 5facb78: every
#: peer still pickled its own handler table, and the node instances, their
#: child entries and the network's recycled envelopes were pickled as
#: instance dicts.  ``STREAM_DIGEST`` is the delivered digest that commit
#: computed for the whole stream, published without a restore.
BATCHED_SNAPSHOT = "snapshot-batched.pickle.gz"
STREAM_DIGEST = "0f174fbf0c3a02647c88aeaa882642386fb5ed0c5d1fe2009820f6dc1f93fb53"


def test_an_old_batched_snapshot_restores_and_finishes_the_stream():
    broker = SystemSpec(POPULATION.space, backend="drtree:batched",
                        seed=SEED).build()
    blob = (GOLDEN_DIR / BATCHED_SNAPSHOT).read_bytes()
    broker.restore(gzip.decompress(blob))
    # The blob pickles an envelope free list and the ``batch`` flag;
    # restoring drops both.
    assert not hasattr(broker.simulation.network, "pool")
    assert not hasattr(broker.simulation.network, "batch")
    assert not any(hasattr(peer, "_handlers")
                   for peer in broker.simulation.live_peers())
    # It also pickles every event each peer had seen and one hop sample per
    # delivery; restoring drops both.
    assert not any(peer.seen_events
                   for peer in broker.simulation.live_peers())
    assert not broker.simulation.network.holds_receptions()
    assert ("pubsub.delivery_hops"
            not in broker.simulation.metrics.histograms())
    broker.publish_many(STREAM[200:])
    assert delivered_digest(broker) == STREAM_DIGEST
    # The blob pickles one record per delivery; restoring folds them into
    # the running hop totals, so every summary figure comes out as if the
    # whole stream had been published without a restore.
    assert not hasattr(broker.accounting, "records")
    uninterrupted = SystemSpec(POPULATION.space, backend="drtree:batched",
                               seed=SEED).build()
    uninterrupted.subscribe_all(SUBSCRIPTIONS)
    uninterrupted.publish_many(STREAM)
    assert broker.summary() == uninterrupted.summary()


def test_a_leaf_join_costs_one_verifier_pass(broker, monkeypatch):
    calls = count_verifies(monkeypatch)
    broker.subscribe(JOINER)
    # One refresh round, then one pass behind the returned report; verifying
    # before and after every round would have been ``rounds + 1`` passes.
    assert rounds_of(broker)[-1] == 1 and len(calls) == 1
    assert broker.stabilize().is_legal
