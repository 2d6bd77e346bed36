"""Print the stabilization work of one fixed membership sequence.

A 600-peer broker is bulk-loaded, then takes 3 joins, 2 controlled
departures, 2 crashes and 2 moves, each stabilized by the facade.  The
script prints every report a stabilize returned (its violations and
``summary()``), the ``stabilize.rounds`` samples and every counter of the
run (``stabilization.*`` and ``network.messages.*`` included).  It runs
the sequence on ``drtree:batched`` and then on ``drtree:classic``; the
classic leg goes on to publish a fixed ``targeted_events`` stream and
prints the delivered digest and every counter again, so a change to how
classic schedules its messages shows here too.  The output is
deterministic: two commits that do the same work print the same bytes.  CI
runs it against the source trees of HEAD and of its parent and fails on
any difference::

    PYTHONPATH=src python3 tests/stabilize_work.py > head.txt
    PYTHONPATH=../parent/src python3 tests/stabilize_work.py > parent.txt
    diff parent.txt head.txt
"""

from __future__ import annotations

from repro.analysis.digests import delivered_digest
from repro.api import SystemSpec
from repro.workloads import uniform_subscriptions
from repro.workloads.events import targeted_events

SEED = 1
EVENTS = 200


def print_counters(simulation) -> None:
    for name, value in sorted(simulation.metrics.counters().items()):
        print(f"{name}: {value}")


def run(backend: str, publish: bool) -> None:
    print(f"== {backend}")
    population = uniform_subscriptions(600, seed=SEED)
    subscriptions = list(population)
    joiners = list(uniform_subscriptions(5, seed=SEED + 1, prefix="J"))
    broker = SystemSpec(population.space, backend=backend, seed=SEED).build()
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


def main() -> None:
    run("drtree:batched", publish=False)
    run("drtree:classic", publish=True)


if __name__ == "__main__":
    main()
