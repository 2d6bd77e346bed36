"""NET-SOAK — crash churn against the real-network backend's stabilizers.

The simulated experiments drive recovery from the outside: a global
``stabilize()`` barrier runs synchronized rounds until the omniscient
verifier accepts the configuration.  The ``drtree:net`` backend has no such
barrier — every peer repairs on its own jittered timer over real loopback
TCP — so this scenario asks the deployment question the simulator cannot:
*how many asynchronous per-peer stabilizer cycles does recovery take, and
does it still deliver?*

One run builds the same subscription population on ``drtree:net`` and on a
simulated reference backend, then applies identical crash waves to both:

* a fraction of live peers fails **without** any driven stabilization,
* a burst of events is published mid-churn (deliveries may legitimately
  miss orphaned subtrees on both sides — that is the fault model),
* the net backend is left to its *background* stabilizers
  (:meth:`~repro.net.broker.NetSimulation.await_convergence`) while the
  reference backend runs the classic driven ``stabilize()``,
* one probe event then checks for false negatives on both.

The convergence table sets the mean/max background cycles per peer against
the simulator's synchronous round count for the same crash schedule — the
paper's Section 4 recovery claim, re-measured under real asynchrony.
"""

from __future__ import annotations

import os

from repro.api.spec import SystemSpec
from repro.experiments.exp_baselines import _comparison_events
from repro.experiments.harness import ExperimentResult
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, register_scenario
from repro.sim.rng import RandomStreams
from repro.spatial.filters import Event
from repro.workloads.subscriptions import mixed_subscriptions

#: Environment gate for the 10k-peer CI leg (see ``.github/workflows``).
BIG_NET_ENV = "REPRO_BIG_NET"


def _missed(broker, event) -> int:
    """False negatives of one published event: matching but not delivered."""
    outcome = broker.publish(event)
    received = set(outcome.received)
    return sum(
        1 for subscriber in broker.subscribers()
        if broker.subscription_of(subscriber).matches(event)
        and subscriber not in received)


@register_scenario(
    "net-soak",
    "Real-network soak: crash churn vs background stabilizers",
    description="Build the same population on drtree:net and a simulated "
                "reference backend, apply identical crash waves with "
                "publications mid-churn, and tabulate how many jittered "
                "background stabilizer cycles the real-network peers need "
                "to restore a legal overlay against the simulator's "
                "synchronous round count. Probe events check for false "
                "negatives after every wave.",
    params=(
        Param("peers", int, 200, "subscriber count"),
        Param("events", int, 12, "events published across all waves"),
        Param("waves", int, 3, "crash waves"),
        Param("crash_fraction", float, 0.05,
              "fraction of live peers crashed per wave"),
        Param("timeout", float, 60.0,
              "hard per-wave convergence deadline, real seconds"),
        Param("seed", int, 0, "RNG seed"),
        Param("reference", str, "drtree:classic",
              "simulated backend driven alongside for the round count",
              choices=("drtree:classic", "drtree:batched")),
        Param("conditions", str, "",
              "injected network-condition spec for the net side "
              "(e.g. 'loss=0.01', see docs/net.md; '' = perfect network)"),
    ),
)
def net_soak(peers: int, events: int, waves: int, crash_fraction: float,
             timeout: float, seed: int, reference: str,
             conditions: str) -> ExperimentResult:
    """Crash-churn soak on ``drtree:net`` with a simulated reference run."""
    result = ExperimentResult(
        "NET-SOAK", "Background stabilizer convergence under crash churn "
                    "(drtree:net vs driven simulation)")
    workload = mixed_subscriptions(peers, seed=seed)
    subscriptions = list(workload)
    stream = _comparison_events(workload, max(waves * 2, events), seed)
    config = DRTreeConfig()
    spec = SystemSpec(space=workload.space, config=config, seed=seed)
    rng = RandomStreams(seed).stream("net.soak.crashes")

    net_spec = spec.with_backend("drtree:net")
    if conditions:
        # Injected network conditions (see docs/net.md) apply to the whole
        # run, joins included; the reference side stays perfect.
        net_spec = net_spec.with_engine_options({"conditions": conditions})
    net = net_spec.build()
    sim = spec.with_backend(reference).build()
    try:
        net.subscribe_all(subscriptions)
        sim.subscribe_all(subscriptions)
        per_wave = max(1, len(stream) // max(waves, 1))
        cursor = 0
        for wave in range(waves):
            live = net.subscribers()
            count = max(1, int(len(live) * crash_fraction))
            # Never crash below a viable tree; both brokers see the same
            # victim set because both hold the same live population.
            count = min(count, max(0, len(live) - config.max_children))
            victims = rng.sample(sorted(live), count) if count else []
            for victim in victims:
                net.fail(victim, stabilize=False)
                sim.fail(victim, stabilize=False)
            # Mid-churn publications: both sides may miss orphaned
            # subtrees — the point is that the system keeps operating.
            burst = stream[cursor:cursor + per_wave]
            cursor += len(burst)
            for event in burst:
                net.publish(event)
                sim.publish(event)
            # Recovery: background-only on net, driven on the reference.
            report = net.simulation.await_convergence(timeout=timeout)
            sim.stabilize()
            sim_rounds = int(
                sim.simulation.metrics.histogram("stabilize.rounds")
                .values[-1])
            # A fresh id per wave: the base event may still be published in
            # a later burst, and event ids are unique within one broker.
            probe = Event(dict(stream[cursor % len(stream)].attributes),
                          event_id=f"probe-{wave}")
            result.add_row(
                wave=wave,
                crashed=len(victims),
                live=len(net.subscribers()),
                published=len(burst),
                net_cycles_mean=round(float(report["cycles_mean"]), 1),
                net_cycles_max=int(report["cycles_max"]),
                net_legal=bool(report["legal"]),
                net_seconds=round(float(report["seconds"]), 2),
                sim_rounds=sim_rounds,
                net_missed=_missed(net, probe),
                sim_missed=_missed(sim, probe),
            )
        legal_everywhere = all(row["net_legal"] for row in result.rows)
        result.add_note(
            f"{waves} crash wave(s) x {crash_fraction:.0%} of live peers on "
            f"{peers} subscribers; net repaired by background "
            f"stabilizers only (period {config.stabilization_period} units, "
            f"jittered), reference {reference} by driven stabilize()")
        result.add_note(
            "overlay legal after every wave"
            if legal_everywhere else
            f"WARNING: background stabilizers missed the {timeout:.0f}s "
            "convergence deadline in at least one wave")
        if os.environ.get(BIG_NET_ENV):
            result.add_note(f"{BIG_NET_ENV} set: big-net leg")
    finally:
        net.close()
        sim.close()
    return result
