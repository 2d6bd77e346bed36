"""E3 — per-peer memory versus network size (Lemma 3.1, memory part).

Measures the number of routing entries (children references, parent pointers
and MBRs over every level where a peer is active) and compares it against the
``O(M · log² N / log m)`` bound of Lemma 3.1.
"""

from __future__ import annotations

from repro.analysis.complexity import memory_bound, within_memory_bound
from repro.experiments.harness import ExperimentResult, size_ladder
from repro.overlay.builder import build_stable_tree
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, register_scenario
from repro.workloads.subscriptions import uniform_subscriptions


@register_scenario(
    "memory",
    "Per-peer memory vs N (Lemma 3.1)",
    description="Mean/max routing-state sizes against the O(M log_m N) bound "
                "over a geometric size sweep.",
    params=(
        Param("peers", int, 256, "largest network size of the sweep"),
        Param("min_children", int, 2, "the paper's m bound"),
        Param("max_children", int, 4, "the paper's M bound"),
        Param("seed", int, 0, "RNG seed"),
    ),
    experiment_id="E3",
)
def memory(peers: int, min_children: int, max_children: int,
           seed: int) -> ExperimentResult:
    """Measure mean and maximum per-peer state sizes."""
    result = ExperimentResult("E3", "Per-peer memory vs N (Lemma 3.1)")
    config = DRTreeConfig(min_children=min_children, max_children=max_children)
    for size in size_ladder(peers):
        workload = uniform_subscriptions(size, seed=seed)
        sim = build_stable_tree(list(workload), config, seed=seed)
        report = sim.verify()
        bound = memory_bound(size, min_children, max_children)
        result.add_row(
            N=size,
            mean_entries=round(report.mean_state_size, 2),
            max_entries=report.max_state_size,
            bound=round(bound, 1),
            within_bound=within_memory_bound(report.max_state_size, size,
                                             min_children, max_children),
            legal=report.is_legal,
        )
    result.add_note("entries = children references + parent pointer + MBR "
                    "summed over all levels where the peer is active")
    return result
