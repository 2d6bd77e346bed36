"""W2 — adversarial membership churn (targeted root/parent crashes).

Lemma 3.7's churn model fails *random* peers; the adversarial variant aims
every crash at the overlay's articulation points instead
(:func:`repro.sim.failures.targeted_victims`): the root and the highest
internal representatives (``target=root``), or the leaves' parents
(``target=parent``).  Crashes are scheduled through overlapping
:class:`~repro.sim.failures.FailureWindow` spans — a baseline window covering
every round plus a mid-run surge window — and a publication stream keeps
flowing between crashes, so the row shows what the attack costs in delivery
terms while stabilization repairs the tree.

The scenario is *trace-replayable*: the victims chosen each round are
recorded as ``crash`` ops, so ``repro run --trace`` reproduces the attack
without re-running the targeting logic (see ``docs/traces.md``).
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult, build_pubsub_system
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, backend_param, register_scenario
from repro.sim.failures import FailureWindow, targeted_victims, victims_per_round
from repro.traces.replay import delivery_metrics_row
from repro.workloads.events import targeted_events
from repro.workloads.subscriptions import clustered_subscriptions


@register_scenario(
    "adversarial-churn",
    "Adversarial churn (targeted root/parent crashes)",
    description="Crash the overlay's articulation points — the root chain or "
                "the leaves' parents — on an overlapping failure-window "
                "schedule while a publication stream keeps flowing, and "
                "report the canonical replayable delivery-metrics row.",
    params=(
        Param("peers", int, 96, "number of subscribers"),
        Param("rounds", int, 4, "crash/publish rounds"),
        Param("events_per_round", int, 15, "publications between crashes"),
        Param("crashes_per_round", int, 1,
              "baseline victims per round (0 disables the baseline window)"),
        Param("surge", int, 1, "extra victims in the overlapping mid-run "
                               "surge window (0 disables it)"),
        Param("target", str, "root", "crash targeting policy",
              choices=("root", "parent")),
        Param("min_children", int, 2, "node capacity lower bound m"),
        Param("max_children", int, 5, "node capacity upper bound M"),
        Param("seed", int, 0, "RNG seed"),
        # Victim selection walks the DR-tree (root chain / leaf parents),
        # so only drtree-family backends are valid here — and only the
        # in-process engines: the sharded engine's parent-side peer handles
        # carry no overlay structure to target.
        backend_param(family="drtree",
                      exclude={"drtree:sharded": "victim targeting walks "
                               "the in-process overlay, which the sharded "
                               "engine's worker processes do not expose"},
                      help="DR-tree engine the attacked overlay runs on"),
    ),
    replayable=True,
)
def adversarial_churn(peers: int, rounds: int, events_per_round: int,
                      crashes_per_round: int, surge: int, target: str,
                      min_children: int, max_children: int, seed: int,
                      backend: str) -> ExperimentResult:
    """Alternate targeted crashes and publications over ``rounds`` rounds.

    The crash plan is built from two overlapping failure windows: a baseline
    of ``crashes_per_round`` victims in every round, plus ``surge`` extra
    victims in the middle round (overlap adds up, per
    :func:`~repro.sim.failures.victims_per_round`).  Stabilization runs after
    every crash, so false negatives measure what slips through *between*
    repairs, not a permanently broken tree.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    result = ExperimentResult(
        "W2", f"Adversarial churn (targeted {target} crashes)")
    config = DRTreeConfig(min_children=min_children, max_children=max_children)
    workload = clustered_subscriptions(peers, seed=seed)
    stream = targeted_events(workload.space, list(workload),
                             rounds * events_per_round, seed=seed + 7)
    windows = []
    if crashes_per_round > 0:
        windows.append(FailureWindow(0, rounds, crashes_per_round))
    if surge > 0:
        windows.append(FailureWindow(rounds // 2, rounds // 2 + 1, surge))
    plan = victims_per_round(windows)

    system = build_pubsub_system(workload, config, seed=seed, backend=backend)
    crashed = []
    for round_index in range(rounds):
        victims = targeted_victims(system.simulation, target=target,
                                   count=plan.get(round_index, 0))
        for victim in victims:
            system.fail(victim)
            crashed.append(victim)
        base = round_index * events_per_round
        system.publish_many(stream[base:base + events_per_round])
    result.add_row(**delivery_metrics_row(system))
    result.add_note(
        f"crashed {len(crashed)} {target}-targeted peers over {rounds} "
        f"rounds (surge round {rounds // 2}: "
        f"{plan.get(rounds // 2, 0)} victims): {crashed}")
    result.add_note("events addressed to crashed subscribers are lost with "
                    "them; the delivery_rate column reports the survivors' "
                    "view")
    return result
