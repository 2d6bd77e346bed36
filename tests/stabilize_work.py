"""Print the stabilization work of one fixed membership sequence.

A 600-peer broker is bulk-loaded, then takes 3 joins, 2 controlled
departures, 2 crashes and 2 moves, each stabilized by the facade.  The
script prints every report a stabilize returned (its violations and
``summary()``), the ``stabilize.rounds`` samples and every counter of the
run (``stabilization.*`` and ``network.messages.*`` included).  It runs
the sequence on ``drtree:batched`` and then on ``drtree:classic``; the
classic leg goes on to publish a fixed ``targeted_events`` stream and
prints the delivered digest and every counter again, so a change to how
classic schedules its messages shows here too.

Two ``drtree:sharded`` legs run the same sequence with a published stream:
one shard over ``pipe`` on a 200-peer population built by joins, and two
shards ``inline`` on the 600-peer bulk load.  Their counters are printed
without the ``shard.*`` transport counters.

Those legs run without network conditions, where every message joins a
per-round queue.  Two more legs drive the path where the network's
condition pipeline decides every message, drawing from one RNG stream per
link, on a bulk-loaded 600-peer ``DRTreeSimulation``: one under
``loss=0.05``, one under ``latency=uniform:0:1`` (each message takes the
network's delay of 1 plus a uniform draw from ``[0, 1]``).  Each crashes
two peers, stabilizes, makes one leave, stabilizes, then publishes a fixed
``targeted_events`` stream, and prints each report's ``summary()``, a
digest of the deliveries in the order they happened and every counter.
``tests/test_overlay_stabilization.py`` pins that the lossy leg's repairs
(:func:`repaired` under :data:`LOSSY`) do not yet end legal.

The output is deterministic: two commits that do the same work print the
same bytes.  CI runs it against the source trees of HEAD and of its parent
and fails on any difference::

    PYTHONPATH=src python3 tests/stabilize_work.py > head.txt
    PYTHONPATH=../parent/src python3 tests/stabilize_work.py > parent.txt
    diff parent.txt head.txt
"""

from __future__ import annotations

import hashlib

from repro.analysis.digests import delivered_digest
from repro.api import SystemSpec
from repro.overlay.builder import DRTreeSimulation
from repro.workloads import uniform_subscriptions
from repro.workloads.events import targeted_events

SEED = 1
EVENTS = 200
#: Events published by each leg whose network has conditions.
RANDOM_LEG_EVENTS = 100
#: The lossy leg's conditions.
LOSSY = "loss=0.05"
#: The population of the legs whose network has conditions.
RANDOM_LEG_POPULATION = uniform_subscriptions(600, seed=SEED)


def print_counters(simulation) -> None:
    for name, value in sorted(simulation.metrics.counters().items()):
        if not name.startswith("shard."):
            print(f"{name}: {value}")


def run(backend: str, publish: bool, peers: int = 600,
        options=None) -> None:
    print(f"== {backend}" + (f", {peers} peers, {options}" if options else ""))
    population = uniform_subscriptions(peers, seed=SEED)
    subscriptions = list(population)
    joiners = list(uniform_subscriptions(5, seed=SEED + 1, prefix="J"))
    broker = SystemSpec(population.space, backend=backend, seed=SEED,
                        engine_options=options).build()
    simulation = broker.simulation
    reports = []
    stabilize = simulation.stabilize

    def recorded_stabilize(max_rounds=50):
        report = stabilize(max_rounds=max_rounds)
        reports.append(report)
        return report

    simulation.stabilize = recorded_stabilize
    broker.subscribe_all(subscriptions)
    ranked = sorted(subscriptions, key=lambda sub: (-sub.rect.area(), sub.name))
    for joiner in joiners[:3]:
        broker.subscribe(joiner)
    # An interior departure and a leaf departure, likewise for crashes.
    for victim in (ranked[0], ranked[-1]):
        broker.unsubscribe(victim.name)
    for victim in (ranked[1], ranked[-2]):
        broker.fail(victim.name)
    for mover, moved in ((ranked[len(ranked) // 2], joiners[3]),
                         (ranked[-3], joiners[4])):
        broker.move_subscription(mover.name, moved)

    for index, report in enumerate(reports):
        print(f"report {index}: {report.summary()}")
        for violation in report.violations:
            print(f"  violation: {violation}")
    rounds = simulation.metrics.histogram("stabilize.rounds").values
    print(f"stabilize.rounds: {rounds}")
    print_counters(simulation)
    if publish:
        broker.publish_many(targeted_events(population.space, subscriptions,
                                            EVENTS, seed=SEED))
        print(f"delivered digest after {EVENTS} events: "
              f"{delivered_digest(broker)}")
        print(f"summary: {broker.summary()}")
        print_counters(simulation)
    getattr(simulation, "close", lambda: None)()


def repaired(conditions: str, listener=None):
    """A bulk-loaded 600-peer simulation under ``conditions``, after two
    crashes and a leave, each followed by ``stabilize(max_rounds=50)``.

    Returns the simulation and the two reports.
    """
    subscriptions = list(RANDOM_LEG_POPULATION)
    simulation = DRTreeSimulation(seed=SEED, conditions=conditions)
    simulation.bulk_load(subscriptions)
    for peer in simulation.peers.values():
        peer.delivery_listener = listener
    ranked = sorted(subscriptions, key=lambda sub: (-sub.rect.area(), sub.name))
    reports = []
    for victim in (ranked[1], ranked[-2]):
        simulation.crash(victim.name)
    reports.append(simulation.stabilize(max_rounds=50))
    simulation.leave(ranked[0].name)
    reports.append(simulation.stabilize(max_rounds=50))
    return simulation, reports


def run_random(conditions: str) -> None:
    """One leg whose network decides every message through the pipeline."""
    print(f"== DRTreeSimulation, {conditions}")
    deliveries = hashlib.sha256()

    def listener(peer_id, event, matched, hops) -> None:
        deliveries.update(
            f"{peer_id} {event.event_id} {matched} {hops}\n".encode())

    simulation, reports = repaired(conditions, listener)
    events = targeted_events(RANDOM_LEG_POPULATION.space,
                             list(RANDOM_LEG_POPULATION), RANDOM_LEG_EVENTS,
                             seed=SEED)
    for index, event in enumerate(events):
        live = simulation.live_peers()
        simulation.publish(live[index % len(live)].process_id, event)
    for index, report in enumerate(reports):
        print(f"report {index}: {report.summary()}")
    print(f"deliveries digest after {RANDOM_LEG_EVENTS} events: "
          f"{deliveries.hexdigest()}")
    print_counters(simulation)


def main() -> None:
    run("drtree:batched", publish=False)
    run("drtree:classic", publish=True)
    run("drtree:sharded", publish=True, peers=200,
        options={"shards": 1, "transport": "pipe"})
    run("drtree:sharded", publish=True,
        options={"shards": 2, "transport": "inline"})
    run_random(LOSSY)
    run_random("latency=uniform:0:1")


if __name__ == "__main__":
    main()
