"""E7 — comparison of the three split methods (Section 3.2).

The DR-tree supports the linear, quadratic and R* node-splitting policies.
The experiment builds the same workload with each policy and reports the
structural quality (height, mean MBR overlap between siblings, total MBR
coverage) and the routing accuracy (false-positive rate) each produces.
The expected shape, mirroring the classical R-tree literature: quadratic and
R* yield tighter MBRs (less overlap, fewer false positives) than the linear
split, with R* the best of the three.
"""

from __future__ import annotations

from itertools import combinations

from repro.experiments.harness import ExperimentResult
from repro.overlay.builder import DRTreeSimulation
from repro.overlay.config import DRTreeConfig
from repro.pubsub.api import PubSubSystem
from repro.rtree.split import SPLIT_METHODS
from repro.runtime.registry import Param, register_scenario
from repro.workloads.events import uniform_events
from repro.workloads.subscriptions import clustered_subscriptions


def _sibling_overlap(simulation: DRTreeSimulation) -> float:
    """Mean pairwise MBR overlap area between siblings, over all instances."""
    overlaps = []
    for peer in simulation.live_peers():
        for level, instance in peer.instances.items():
            if level == 0 or len(instance.children) < 2:
                continue
            mbrs = list(instance.child_mbrs().values())
            for first, second in combinations(mbrs, 2):
                overlaps.append(first.intersection_area(second))
    return sum(overlaps) / len(overlaps) if overlaps else 0.0


def _total_coverage(simulation: DRTreeSimulation) -> float:
    """Sum of internal-node MBR areas (smaller = tighter tree)."""
    total = 0.0
    for peer in simulation.live_peers():
        for level, instance in peer.instances.items():
            if level > 0:
                total += instance.mbr.area()
    return total


@register_scenario(
    "split_methods",
    "Split methods (linear / quadratic / R*)",
    description="Structural quality and accuracy of the three node-splitting "
                "policies on the same clustered workload.",
    params=(
        Param("peers", int, 60, "subscriber count"),
        Param("events", int, 40, "probe events published per method"),
        Param("split_method", str, "all", "one split method, or 'all'",
              choices=("all",) + tuple(SPLIT_METHODS)),
        Param("seed", int, 0, "RNG seed"),
    ),
    replayable=True,
    experiment_id="E7",
)
def split_methods(peers: int, events: int, split_method: str,
                  seed: int) -> ExperimentResult:
    """Compare structural quality and accuracy per split method."""
    result = ExperimentResult("E7", "Split methods (linear / quadratic / R*)")
    workload = clustered_subscriptions(peers, seed=seed)
    probe_events = uniform_events(workload.space, events, seed=seed + 3)
    for method in SPLIT_METHODS if split_method == "all" else (split_method,):
        config = DRTreeConfig(min_children=2, max_children=5,
                              split_method=method)
        system = PubSubSystem(workload.space, config, seed=seed)
        system.subscribe_all(workload)
        system.publish_many(probe_events)
        summary = system.summary()
        report = system.simulation.verify()
        result.add_row(
            method=method,
            height=report.height,
            sibling_overlap=round(_sibling_overlap(system.simulation), 4),
            coverage=round(_total_coverage(system.simulation), 2),
            fp_rate_pct=round(100 * summary["false_positive_rate"], 2),
            false_negatives=summary["false_negatives"],
            msgs_per_event=round(summary["mean_messages_per_event"], 1),
        )
    result.add_note("coverage = sum of internal MBR areas; lower is tighter")
    return result
