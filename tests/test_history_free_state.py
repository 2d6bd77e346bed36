"""Runtime state is proportional to live state, not to history.

A peer remembers an event only while it is in flight: the de-dup table that
keeps a corrupted structure from delivering an event twice is emptied once
the operation that published the event has settled.  So a broker's snapshot
and heap do not grow with the events published (beyond one
``EventOutcome`` each, which the accounting keeps on purpose), and an event
id published again later reaches its whole audience again.

The sharded rows run two shards ``inline`` here; with
``REPRO_SHARD_TRANSPORT`` set (the CI transport matrix) the republish row
runs on that transport instead.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest

from repro.api import SystemSpec
from repro.overlay.state import ChildInfo
from repro.sim.sharded import TRANSPORT_ENV_VAR
from repro.spatial.filters import Event
from repro.workloads import uniform_subscriptions
from repro.workloads.events import targeted_events

SHARD_TRANSPORT = "auto" if os.environ.get(TRANSPORT_ENV_VAR) else "inline"

ENGINES = {
    "classic": ("drtree:classic", None),
    "batched": ("drtree:batched", None),
    "sharded": ("drtree:sharded",
                {"shards": 2, "transport": SHARD_TRANSPORT}),
    "net": ("drtree:net", {"stabilizer": "off"}),
}

#: The engines that snapshot (``drtree:net`` does not).
SNAPSHOT_ENGINES = ["classic", "batched", "sharded"]


def _build(engine, population, seed, options=None):
    backend, default_options = ENGINES[engine]
    broker = SystemSpec(population.space, backend=backend, seed=seed,
                        engine_options=options or default_options).build()
    broker.subscribe_all(list(population))
    if backend == "drtree:sharded":
        assert len(broker.simulation.shard_report()) == 2  # multi-shard
    return broker


def _snapshot_beside_outcomes(broker) -> int:
    """Bytes of ``broker.snapshot()`` with the accounting's outcomes empty."""
    outcomes = broker.accounting.outcomes
    broker.accounting.outcomes = {}
    try:
        return len(broker.snapshot())
    finally:
        broker.accounting.outcomes = outcomes


def _traced_heap() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@pytest.mark.parametrize("engine", SNAPSHOT_ENGINES)
def test_state_does_not_grow_with_the_events_published(engine):
    population = uniform_subscriptions(1500, seed=1)
    events = targeted_events(population.space, list(population), 2000,
                             seed=1)
    # Inline, so the shards' heap is this interpreter's.  Over pipes the
    # coordinator's attribute cache keeps up to 4 096 class-name strings
    # that unpickling the replies creates: bounded, but not small.
    options = ({"shards": 2, "transport": "inline"}
               if engine == "sharded" else None)
    broker = _build(engine, population, seed=1, options=options)
    try:
        broker.publish_many(events[:100])
        early = _snapshot_beside_outcomes(broker)
        kept = dict(broker.accounting.outcomes)
        rest = events[100:]
        del events
        tracemalloc.start()
        try:
            before = _traced_heap()
            broker.publish_many(rest)
            del rest
            after = _traced_heap()
            # What the 1 900 outcomes hold is freed by dropping them.
            broker.accounting.outcomes = kept
            without_new_outcomes = _traced_heap()
        finally:
            tracemalloc.stop()
        late = _snapshot_beside_outcomes(broker)
    finally:
        broker.close()
    # Only counters may widen.
    assert abs(late - early) <= 64, (early, late)
    # The heap grew by the outcomes and (almost) nothing else; the peers'
    # event tables alone held about 2 MB here before they were forgotten.
    assert after > without_new_outcomes
    assert without_new_outcomes - before <= 64 * 1024, (
        before, after, without_new_outcomes)


@pytest.mark.parametrize("engine", list(ENGINES))
def test_an_event_id_published_again_reaches_its_whole_audience(engine):
    population = uniform_subscriptions(600, seed=3)
    (probe,) = targeted_events(population.space, list(population), 1,
                               seed=3)
    broker = _build(engine, population, seed=3)
    try:
        first = broker.publish(Event(dict(probe.attributes),
                                     event_id="dup"))
        again = broker.publish(Event(dict(probe.attributes),
                                     event_id="dup"))
        summary = broker.summary()
    finally:
        broker.close()
    assert first.intended and not first.false_negatives
    # An outcome is keyed by its event id: the republish replaces it.
    assert again.received == first.received
    assert not again.false_negatives
    assert summary["events"] == 1.0
    assert summary["false_negatives"] == 0.0


def _peer_objects(broker) -> dict:
    """Every peer object of an in-process (or inline-sharded) broker."""
    simulation = broker.simulation
    shards = getattr(simulation, "_shards", None)
    if shards is None:
        return simulation.peers
    peers = {}
    for shard in shards:
        peers.update(shard.runtime.sim.peers)
    return peers


def _list_a_grandchild_under_two_parents(broker):
    """Return a corrupter that gives one peer two parents, and that peer.

    The root ``R`` (top level ``T``) has children ``A`` and ``B``.  The
    corrupter adds ``G``, a child of ``A``, to ``B``'s children and widens
    ``R``'s entry for ``B`` to ``R``'s own MBR, so an event in ``G``'s
    filter published by ``R`` reaches ``G`` down both paths.
    """
    peers = _peer_objects(broker)
    root = peers[broker.simulation.root().process_id]
    top = root.top_level()
    a_id, b_id = [child for child in sorted(root.instances[top].children)
                  if child != root.process_id][:2]
    a, b = peers[a_id], peers[b_id]
    g = peers[next(child for child in sorted(a.instances[top - 1].children)
                   if child != a_id)]

    def corrupt():
        b.instances[top - 1].children[g.process_id] = ChildInfo(
            mbr=g.instances[top - 2].mbr)
        root.instances[top].children[b_id].mbr = root.instances[top].mbr

    return corrupt, root.process_id, g


@pytest.mark.parametrize("engine", list(ENGINES))
def test_a_child_listed_under_two_parents_is_received_once(engine):
    population = uniform_subscriptions(600, seed=3)
    options = ({"shards": 2, "transport": "inline"}
               if engine == "sharded" else None)
    broker = _build(engine, population, seed=3, options=options)
    metrics = broker.simulation.metrics
    try:
        corrupt, root_id, grandchild = _list_a_grandchild_under_two_parents(
            broker)
        rect = grandchild.filter_rect
        point = {name: (rect.interval(dim)[0] + rect.interval(dim)[1]) / 2
                 for dim, name in enumerate(population.space.names)}
        legal = broker.publish(Event(point, event_id="legal"),
                               publisher_id=root_id)
        legal_duplicates = metrics.counter("pubsub.duplicates")
        corrupt()
        twice = broker.publish(Event(point, event_id="twice"),
                               publisher_id=root_id)
        duplicates = metrics.counter("pubsub.duplicates") - legal_duplicates
    finally:
        broker.close()
    assert not legal.false_negatives and not twice.false_negatives
    assert grandchild.process_id in legal.received
    assert legal.received <= twice.received
    # A root that publishes re-descends its own chain, so even the legal
    # tree routes 4 events to a peer twice; the second parent adds one.
    # Both counts are those of the code that never forgot a reception.
    assert legal_duplicates == 4.0
    assert duplicates == 5.0
