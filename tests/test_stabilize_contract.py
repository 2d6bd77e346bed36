"""One stabilize contract, every DR-tree engine.

``drtree:classic``, ``drtree:batched``, a multi-shard ``drtree:sharded`` and
``drtree:net`` (background stabilizers off, so every round is driven) all run
the same :class:`~repro.overlay.verifier.StabilizeFixpoint`.  This table pins
what that loop promises through each of them: the report it returns is the
verification of the state it leaves, the rounds it records are the same on
every engine, ``max_rounds=0`` only verifies, and the omniscient verifier
runs only where the loop reads its answer.

The sharded leg runs ``inline`` here; with ``REPRO_SHARD_TRANSPORT`` set
(the CI transport matrix) it runs on that transport instead.
"""

from __future__ import annotations

import os

import pytest

from repro.api import SystemSpec
from repro.overlay.verifier import OverlayVerifier
from repro.sim.sharded import TRANSPORT_ENV_VAR
from repro.workloads import uniform_subscriptions

SEED = 6
POPULATION = uniform_subscriptions(600, seed=SEED)
SUBSCRIPTIONS = list(POPULATION)
(JOINER,) = uniform_subscriptions(1, seed=7, prefix="J")

SHARD_TRANSPORT = "auto" if os.environ.get(TRANSPORT_ENV_VAR) else "inline"

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
    calls = []
    real_verify = OverlayVerifier.verify

    def verify(self, peers, check_containment=False):
        calls.append(1)
        return real_verify(self, peers, check_containment=check_containment)

    monkeypatch.setattr(OverlayVerifier, "verify", verify)
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
    assert len(calls) == 1  # the one behind the returned report
    assert report == fresh_verify(broker)


def test_a_leaf_join_costs_one_verifier_pass(broker, monkeypatch):
    calls = count_verifies(monkeypatch)
    broker.subscribe(JOINER)
    # One refresh round, then one pass behind the returned report; verifying
    # before and after every round would have been ``rounds + 1`` passes.
    assert rounds_of(broker)[-1] == 1 and len(calls) == 1
    assert broker.stabilize().is_legal
