"""The sharded multi-process simulator: partitioning, parity, failures.

Covers the tentpole contracts of ``repro.sim.sharded``:

* shard partitioning places every peer in exactly one shard (hypothesis
  property over random workloads and shard counts);
* shard counts 1, 2 and 8 reproduce the classic engine's delivery metrics
  byte for byte, on the inline, pipe (``process``) and shared-memory
  (``shm``) transports;
* a population on one shard runs the *entire* facade surface (joins,
  unsubscribes, crashes, moves) through the round barrier with outcomes
  byte-identical to classic's, and on several shards post-bulk-load
  joins/leaves are routed to the root's or the owning shard with the same
  parity guarantee;
* a crashed worker process surfaces as a typed ``ShardFailedError`` instead
  of a hang, and shard-local stalls/warnings are routed to the parent with
  the shard id attached.
"""

from __future__ import annotations

import logging
import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.spec import SystemSpec
from repro.overlay.config import DRTreeConfig
from repro.overlay.layout import (compute_layout, partition_layout,
                                  partition_members)
from repro.sim.engine import SimulationStalledError
from repro.sim.sharded import (ShardedSimulation, ShardedUnsupportedError,
                               ShardFailedError, ShardStalledError,
                               shm_available)

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="multiprocessing.shared_memory "
                                      "unavailable on this platform")
from repro.analysis.digests import delivered_digest
from repro.spatial.filters import Event, subscription_from_intervals
from repro.workloads.events import targeted_events
from repro.workloads.subscriptions import (mixed_subscriptions,
                                           uniform_subscriptions)
from tests.conftest import record_deliveries

CONFIG = DRTreeConfig(min_children=4, max_children=8)


def _drive_backend(backend, subs, space, stream, seed=3, config=CONFIG,
                   engine_options=None):
    """Run one workload through a broker; return its observable outcome."""
    spec = SystemSpec(space=space, backend=backend, config=config, seed=seed,
                      engine_options=engine_options)
    broker = spec.build()
    recorder = record_deliveries(broker)
    broker.subscribe_all(subs)
    broker.publish_many(stream)
    outcome = (
        broker.summary(),
        sorted(recorder.deliveries),
        {name: value
         for name, value in broker.simulation.metrics.counters().items()
         if not name.startswith("shard.")},
    )
    close = getattr(broker.simulation, "close", None)
    if close is not None:
        close()
    return outcome


# --------------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(peers=st.integers(min_value=2, max_value=160),
       shards=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=50))
def test_every_peer_lands_in_exactly_one_shard(peers, shards, seed):
    subs = list(uniform_subscriptions(peers, seed=seed))
    layout = compute_layout([(sub.name, sub.rect) for sub in subs], CONFIG)
    plan = partition_layout(layout, shards)
    # Exactly-one-shard: the owner map is total over the population...
    assert set(plan.owner) == {sub.name for sub in subs}
    # ...with a single shard id per peer (dict keys are unique by
    # construction; the subtree decomposition must also cover every peer
    # exactly once).
    assert sum(count for _, _, count in plan.subtrees) == peers
    assert all(0 <= shard < shards for shard in plan.owner.values())
    assert 1 <= plan.effective_shards <= min(shards, peers)
    by_shard = partition_members(layout, plan)
    flat = [name for members in by_shard.values() for name in members]
    assert sorted(flat) == sorted(plan.owner)


def test_partition_keeps_subtrees_whole():
    subs = list(uniform_subscriptions(200, seed=1))
    layout = compute_layout([(sub.name, sub.rect) for sub in subs], CONFIG)
    plan = partition_layout(layout, 4)
    # All members of one cut-level group share the owning shard.
    shard_of = plan.owner
    for group in layout.levels[plan.cut_level]:
        shards = set()

        def leaves(node_id, level):
            if level == 0:
                shards.add(shard_of[node_id])
                return
            for inner in layout.levels[level - 1]:
                if inner.parent == node_id:
                    for child, _, _ in inner.members:
                        leaves(child, level - 1)

        leaves(group.parent, plan.cut_level + 1)
        assert len(shards) == 1, f"subtree {group.parent} spans {shards}"


def test_partition_validates_shard_count():
    subs = list(uniform_subscriptions(8, seed=0))
    layout = compute_layout([(sub.name, sub.rect) for sub in subs], CONFIG)
    with pytest.raises(ValueError, match="at least 1"):
        partition_layout(layout, 0)


# --------------------------------------------------------------------------- #
# Metric parity with the classic engine
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def bulk_workload():
    workload = uniform_subscriptions(560, seed=3)
    subs = list(workload)
    stream = targeted_events(workload.space, subs, 25, seed=11)
    return workload.space, subs, stream


@pytest.fixture(scope="module")
def classic_outcome(bulk_workload):
    space, subs, stream = bulk_workload
    return _drive_backend("drtree:classic", subs, space, stream)


@pytest.mark.parametrize("shards,transport", [
    (1, "inline"),
    (2, "inline"),
    (2, "process"),
    (8, "inline"),
    pytest.param(2, "shm", marks=needs_shm),
    pytest.param(8, "shm", marks=needs_shm),
])
def test_shard_counts_reproduce_classic_metrics(bulk_workload,
                                                classic_outcome, shards,
                                                transport):
    space, subs, stream = bulk_workload
    sharded = _drive_backend(
        "drtree:sharded", subs, space, stream,
        engine_options={"shards": shards, "transport": transport})
    assert sharded[0] == classic_outcome[0]  # summary metrics
    assert sharded[1] == classic_outcome[1]  # every delivery record
    assert sharded[2] == classic_outcome[2]  # every simulator counter


@needs_shm
@pytest.mark.skipif("spawn" not in multiprocessing.get_all_start_methods(),
                    reason="no spawn start method on this platform")
def test_spawned_shm_workers_reproduce_the_forked_run(bulk_workload,
                                                      monkeypatch):
    """Spawned workers must unpickle everything the shm transport hands
    them, the segment pair's doorbells included, and deliver the same."""
    from repro.sim.sharded import coordinator

    space, subs, stream = bulk_workload
    options = {"shards": 2, "transport": "shm"}
    forked = _drive_backend("drtree:sharded", subs, space, stream[:20],
                            engine_options=options)
    monkeypatch.setattr(coordinator, "_pick_context",
                        lambda: multiprocessing.get_context("spawn"))
    assert _drive_backend("drtree:sharded", subs, space, stream[:20],
                          engine_options=options) == forked


def test_single_shard_regime_delegates_full_facade_surface():
    """Below the bulk threshold the population lives on one shard, whose
    one queue makes every op of the facade classic's, byte for byte."""
    workload = mixed_subscriptions(36, seed=0)
    subs = list(workload)
    config = DRTreeConfig(min_children=2, max_children=5)
    stream = targeted_events(workload.space, subs, 10, seed=7)

    def drive(backend, engine_options=None):
        spec = SystemSpec(space=workload.space, backend=backend,
                          config=config, seed=0,
                          engine_options=engine_options)
        broker = spec.build()
        recorder = record_deliveries(broker)
        ids = broker.subscribe_all(subs)
        broker.publish_many(stream[:5])
        broker.unsubscribe(ids[3])
        broker.fail(ids[7])
        moved = subscription_from_intervals(
            "moved-peer", workload.space,
            {name: (0.1, 0.4) for name in workload.space.names})
        broker.move_subscription(ids[5], moved)
        broker.publish_many(stream[5:])
        outcome = (broker.summary(), broker.overlay_height(),
                   sorted(broker.subscribers()),
                   sorted(recorder.deliveries))
        close = getattr(broker.simulation, "close", None)
        if close is not None:
            close()
        return outcome

    classic = drive("drtree:classic")
    sharded = drive("drtree:sharded",
                    {"shards": 4, "transport": "process"})
    assert classic == sharded


@pytest.mark.parametrize("victim_kind", ["leaf", "internal-parent"])
def test_multi_shard_crash_reproduces_classic(victim_kind):
    """Crash repair parity for both victim classes.

    A leaf crash needs no re-parenting; an elected *parent's* crash forces
    the orphan-rejoin repair, which only converges when the stabilize loop
    keeps running while the structure is illegal (regression: signature-only
    quiescence used to stop it after one round).
    """
    workload = uniform_subscriptions(560, seed=5)
    subs = list(workload)
    stream = targeted_events(workload.space, subs, 8, seed=9)

    probe = SystemSpec(space=workload.space, backend="drtree:classic",
                       config=CONFIG, seed=5).build()
    probe.subscribe_all(subs)
    peers = probe.simulation.peers
    if victim_kind == "leaf":
        victim = next(pid for pid in sorted(peers)
                      if peers[pid].height() == 1)
    else:
        victim = next(pid for pid in sorted(peers)
                      if peers[pid].height() > 1)

    def drive(backend, engine_options=None):
        spec = SystemSpec(space=workload.space, backend=backend,
                          config=CONFIG, seed=5,
                          engine_options=engine_options)
        broker = spec.build()
        recorder = record_deliveries(broker)
        broker.subscribe_all(subs)
        broker.publish_many(stream[:4])
        broker.fail(victim)
        report = broker.stabilize()
        broker.publish_many(stream[4:])
        outcome = (broker.summary(), report.is_legal,
                   sorted(recorder.deliveries))
        close = getattr(broker.simulation, "close", None)
        if close is not None:
            close()
        return outcome

    classic = drive("drtree:classic")
    sharded = drive("drtree:sharded", {"shards": 3, "transport": "inline"})
    assert classic == sharded
    assert classic[1], "repair must converge back to a legal configuration"


@pytest.mark.parametrize("transport,shards", [
    ("inline", 2),
    pytest.param("shm", 2, marks=needs_shm),
])
def test_multi_shard_membership_churn_matches_classic(bulk_workload,
                                                      transport, shards):
    """Post-bulk-load joins and controlled leaves reproduce classic metrics.

    The joiner is created on the shard owning the current root, and every
    oracle change reaches the other shards' replicas at the next barrier.
    """
    space, subs, stream = bulk_workload

    def drive(backend, engine_options=None):
        spec = SystemSpec(space=space, backend=backend, config=CONFIG,
                          seed=3, engine_options=engine_options)
        broker = spec.build()
        recorder = record_deliveries(broker)
        ids = broker.subscribe_all(subs)
        broker.publish_many(stream[:10])
        for index in range(2):
            broker.subscribe(subscription_from_intervals(
                f"late-joiner-{index}", space,
                {name: (0.1 * (index + 1), 0.1 * (index + 1) + 0.25)
                 for name in space.names}))
        broker.unsubscribe(ids[5])
        broker.unsubscribe("late-joiner-0")
        broker.publish_many(stream[10:])
        outcome = (broker.summary(), sorted(broker.subscribers()),
                   sorted(recorder.deliveries))
        close = getattr(broker.simulation, "close", None)
        if close is not None:
            close()
        return outcome

    classic = drive("drtree:classic")
    sharded = drive("drtree:sharded",
                    {"shards": shards, "transport": transport})
    assert sharded == classic


def _after_a_root_crash(backend, engine_options=None):
    """Crash the root without repair, publish into no audience, then join.

    Between the crash and the next stabilize classic has no live root:
    ``root()`` is ``None``, ``height()`` 0, and an event nobody matches is
    published from the smallest live id.  The join is routed as before the
    crash and repairs the tree on the way.
    """
    population = uniform_subscriptions(1200, seed=3)
    broker = SystemSpec(space=population.space, backend=backend, seed=3,
                        engine_options=engine_options).build()
    try:
        broker.subscribe_all(list(population))
        broker.fail(broker.simulation.root().process_id, stabilize=False)
        lost_root = (broker.simulation.root(), broker.overlay_height())
        unmatched = broker.publish(Event({"attr0": 0.255, "attr1": 0.0}))
        (joiner,) = uniform_subscriptions(1, seed=7, prefix="J")
        broker.subscribe(joiner)
        broker.publish_many(targeted_events(population.space,
                                            list(population)[:40], 20,
                                            seed=5))
        return (lost_root, unmatched.intended, unmatched.publisher_id,
                unmatched.messages, sorted(unmatched.received),
                broker.simulation.metrics.histogram("stabilize.rounds").values,
                delivered_digest(broker), broker.summary())
    finally:
        broker.close()


@pytest.fixture(scope="module")
def classic_after_a_root_crash():
    return _after_a_root_crash("drtree:classic")


@pytest.mark.parametrize("transport", [
    "inline", "pipe", pytest.param("shm", marks=needs_shm)])
def test_a_crashed_root_is_not_the_root(classic_after_a_root_crash,
                                        transport):
    classic = classic_after_a_root_crash
    assert classic[:3] == ((None, 0), set(), "S0")
    sharded = _after_a_root_crash("drtree:sharded",
                                  {"shards": 2, "transport": transport})
    assert sharded == classic


def test_multi_shard_membership_guards(bulk_workload):
    """The narrowed restrictions: aliasing, deferred joins, duplicates."""
    space, subs, _ = bulk_workload
    sim = ShardedSimulation(config=CONFIG, seed=3, shards=2,
                            transport="inline")
    try:
        sim.bulk_load(subs)
        extra = subscription_from_intervals(
            "late-joiner", space,
            {name: (0.2, 0.3) for name in space.names})
        with pytest.raises(ShardedUnsupportedError, match="joins and settles"):
            sim.add_peer(extra, settle=False)
        with pytest.raises(ShardedUnsupportedError, match="names peers"):
            sim.add_peer(extra, peer_id="alias")
        with pytest.raises(ValueError, match="duplicate"):
            sim.add_peer(subscription_from_intervals(
                subs[0].name, space,
                {name: (0.2, 0.3) for name in space.names}))
        with pytest.raises(KeyError):
            sim.leave("never-joined")
        handle = sim.add_peer(extra)
        assert handle.process_id == "late-joiner"
        sim.leave("late-joiner")
        # Handles are never removed, matching classic ``sim.peers``; the
        # departed peer just stops receiving deliveries.
        assert "late-joiner" in sim.peers
    finally:
        sim.close()


# --------------------------------------------------------------------------- #
# Engine options threading
# --------------------------------------------------------------------------- #


def test_engine_options_reach_the_sharded_simulation(bulk_workload):
    space, _, _ = bulk_workload
    spec = SystemSpec(space=space, backend="drtree:sharded",
                      engine_options={"shards": 3, "transport": "inline"})
    broker = spec.build()
    assert broker.simulation.shards_requested == 3
    assert broker.simulation.transport == "inline"
    assert broker.spec.engine_options == {"shards": 3, "transport": "inline"}
    broker.simulation.close()


def test_engine_options_are_rejected_where_meaningless(bulk_workload):
    space, _, _ = bulk_workload
    with pytest.raises(ValueError, match="engine options"):
        SystemSpec(space=space, backend="drtree:classic",
                   engine_options={"shards": 3}).build()
    with pytest.raises(ValueError, match="no engine options"):
        SystemSpec(space=space, backend="flooding",
                   engine_options={"shards": 3}).build()
    with pytest.raises(ValueError, match="engine options"):
        SystemSpec(space=space, backend="drtree:sharded",
                   engine_options={"bogus": 1}).build()


def test_invalid_transport_and_shard_count():
    with pytest.raises(ValueError, match="transport"):
        ShardedSimulation(shards=2, transport="carrier-pigeon")
    with pytest.raises(ValueError, match="at least 1"):
        ShardedSimulation(shards=0)


# --------------------------------------------------------------------------- #
# Worker failure and stall routing
# --------------------------------------------------------------------------- #


def test_crashed_worker_raises_shard_failed_error(bulk_workload):
    space, subs, stream = bulk_workload
    sim = ShardedSimulation(config=CONFIG, seed=3, shards=2,
                            transport="process")
    try:
        sim.bulk_load(subs)
        sim.stabilize(max_rounds=50)
        victim = sim._shards[1]
        victim.process.kill()
        victim.process.join(timeout=5)
        with pytest.raises(ShardFailedError, match="shard 1"):
            for event in stream:
                sim.publish(subs[0].name, event)
    finally:
        sim.close()


def test_worker_stall_is_routed_with_shard_id(caplog):
    """A shard-local SimulationStalledError reaches the parent, shard-tagged."""
    workload = uniform_subscriptions(24, seed=2)
    subs = list(workload)
    stream = targeted_events(workload.space, subs, 6, seed=4)
    sim = ShardedSimulation(config=DRTreeConfig(min_children=2,
                                                max_children=4),
                            seed=2, shards=1, transport="process")
    try:
        for sub in subs:
            sim.add_peer(sub)
        sim.stabilize(max_rounds=50)
        for event in stream:
            sim.publish(subs[0].name, event, settle=False)
        with caplog.at_level(logging.WARNING, logger="repro"):
            with pytest.raises(ShardStalledError) as excinfo:
                sim.settle(max_events=2)
        # The typed error subclasses the single-process stall type and
        # carries the shard id...
        assert isinstance(excinfo.value, SimulationStalledError)
        assert excinfo.value.shard_id == 0
        # ...and the worker's own stall warning was re-logged parent-side
        # with the shard attribution attached.
        routed = [record for record in caplog.records
                  if "[shard 0]" in record.getMessage()]
        assert routed, "worker warning was not routed to the parent"
    finally:
        sim.close()


def test_a_stall_on_several_shards_is_typed(bulk_workload):
    """Two shards that spend one settle's bound raise the typed stall too."""
    space, subs, stream = bulk_workload
    sim = ShardedSimulation(config=CONFIG, seed=3, shards=2,
                            transport="inline")
    try:
        sim.bulk_load(subs)
        for event in stream[:5]:
            sim.publish(subs[0].name, event, settle=False)
        with pytest.raises(ShardStalledError):
            sim.settle(max_events=2)
    finally:
        sim.close()


# --------------------------------------------------------------------------- #
# Scenario integration
# --------------------------------------------------------------------------- #


def test_adversarial_churn_rejects_sharded_with_a_reason():
    """The exclusion is validated at bind time, not by an AttributeError."""
    from repro.runtime.registry import REGISTRY, ScenarioError, load_scenarios

    load_scenarios()
    scenario = REGISTRY.get("adversarial-churn")
    with pytest.raises(ScenarioError, match="in-process overlay"):
        scenario.bind(backend="drtree:sharded")


def test_throughput_scenario_sharded_backend_asserts_parity():
    from repro.runtime.registry import load_scenarios

    result = load_scenarios().get("throughput").run(
        peers=560, events=20, window=10, backend="drtree:sharded", shards=2)
    by_mode = {row["mode"]: row for row in result.rows}
    assert set(by_mode) == {"drtree:classic", "drtree:sharded"}
    classic, sharded = (by_mode["drtree:classic"], by_mode["drtree:sharded"])
    assert classic["messages"] == sharded["messages"]
    assert classic["deliveries"] == sharded["deliveries"]
    assert any("identical" in note for note in result.notes)


def test_throughput_scenario_baseline_none_runs_target_alone():
    from repro.runtime.registry import load_scenarios

    result = load_scenarios().get("throughput").run(
        peers=560, events=10, window=10, backend="drtree:sharded",
        baseline="none", shards=2)
    assert [row["mode"] for row in result.rows] == ["drtree:sharded"]


def test_scale_scenario_reports_per_shard_balance():
    from repro.runtime.registry import load_scenarios

    result = load_scenarios().get("scale").run(
        peers=1200, events=20, window=20, shards=3, parity_peers=560,
        parity_events=15)
    shard_rows = [row for row in result.rows if row["shard"] != "all"]
    total = next(row for row in result.rows if row["shard"] == "all")
    assert len(shard_rows) == 3
    assert sum(row["peers"] for row in shard_rows) == 1200 == total["peers"]
    assert total["cross_out"] == total["cross_in"] > 0
    assert any("byte-identical" in note for note in result.notes)


def test_close_is_idempotent_and_context_managed(bulk_workload):
    space, subs, _ = bulk_workload
    with ShardedSimulation(config=CONFIG, seed=3, shards=2,
                           transport="process") as sim:
        sim.bulk_load(subs)
        report = sim.shard_report()
        assert sum(row["peers"] for row in report) == len(subs)
        assert all(row["deliveries"] == 0 for row in report)
    sim.close()  # second close is a no-op
    event = targeted_events(space, subs, 1, seed=0)[0]
    with pytest.raises(ShardFailedError):
        sim.publish(subs[0].name, event)
