"""E8 — recovery from departures and memory corruption (Lemmas 3.3-3.6).

Starting from a legitimate configuration, the experiment injects each fault
class of the paper's model and measures how many synchronized stabilization
rounds the overlay needs to return to a legal configuration:

* controlled departures (Lemma 3.4),
* uncontrolled departures / crashes (Lemma 3.5),
* transient memory corruption of parents, children sets, MBRs and
  underloaded flags (Lemma 3.6, arbitrary initial configuration),
* everything at once.

The paper's bound for most faults is ``O(N log_m N)`` *steps*; one
synchronized round performs ``Θ(N)`` steps, so the expected number of rounds
grows at most logarithmically with ``N``.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult, size_ladder
from repro.overlay.builder import build_stable_tree
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, register_scenario
from repro.workloads.subscriptions import uniform_subscriptions

FAULTS = ("controlled_leave", "crash", "corruption", "combined")


def _inject(sim, fault: str, fraction: float, seed: int) -> int:
    """Apply one fault class; returns the number of affected peers."""
    import random

    rng = random.Random(seed)
    live = [peer.process_id for peer in sim.live_peers()]
    victims = rng.sample(live, max(1, int(len(live) * fraction)))
    if fault == "controlled_leave":
        for pid in victims:
            sim.leave(pid, settle=True)
        return len(victims)
    if fault == "crash":
        for pid in victims:
            sim.crash(pid)
        return len(victims)
    if fault == "corruption":
        report = sim.corrupt(fraction=fraction)
        return len(set(report.corrupted_peers))
    # combined: crash a few, corrupt the rest
    half = victims[: len(victims) // 2]
    for pid in half:
        sim.crash(pid)
    report = sim.corrupt(fraction=fraction / 2)
    return len(half) + len(set(report.corrupted_peers))


@register_scenario(
    "recovery",
    "Recovery after faults (Lemmas 3.3-3.6)",
    description="Stabilization rounds back to legality after controlled "
                "departures, crashes, memory corruption and all at once.",
    params=(
        Param("peers", int, 128, "largest network size of the sweep"),
        Param("fraction", float, 0.15, "fraction of live peers hit per fault"),
        Param("max_rounds", int, 80, "stabilization round budget"),
        Param("min_children", int, 2, "the paper's m bound"),
        Param("max_children", int, 5, "the paper's M bound"),
        Param("seed", int, 0, "RNG seed"),
    ),
    experiment_id="E8",
)
def recovery(peers: int, fraction: float, max_rounds: int, min_children: int,
             max_children: int, seed: int) -> ExperimentResult:
    """Measure rounds-to-legal for every fault class and network size."""
    result = ExperimentResult("E8", "Recovery after faults (Lemmas 3.3-3.6)")
    config = DRTreeConfig(min_children=min_children, max_children=max_children)
    for size in size_ladder(peers, steps=3, floor=32):
        for fault in FAULTS:
            workload = uniform_subscriptions(size, seed=seed)
            sim = build_stable_tree(list(workload), config, seed=seed)
            affected = _inject(sim, fault, fraction, seed + size)
            messages_before = sim.metrics.counter("network.messages_sent")
            report = sim.stabilize(max_rounds=max_rounds)
            rounds = sim.metrics.histogram("stabilize.rounds").values[-1]
            messages = sim.metrics.counter("network.messages_sent") - messages_before
            result.add_row(
                N=size,
                fault=fault,
                affected=affected,
                rounds_to_legal=rounds,
                repair_messages=int(messages),
                recovered=report.is_legal,
                survivors=report.peer_count,
            )
    result.add_note(f"fault fraction = {fraction:.0%} of live peers per injection")
    result.add_note("recovered must be True in every row (self-stabilization)")
    return result
