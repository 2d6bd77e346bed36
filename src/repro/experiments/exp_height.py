"""E2 — tree height versus network size (Lemma 3.1, height part).

Builds DR-trees over uniformly distributed subscription workloads of
increasing size and several ``(m, M)`` configurations, and compares the
measured height against the ``O(log_m N)`` bound.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.complexity import height_bound, within_height_bound
from repro.experiments.harness import ExperimentResult, size_ladder
from repro.overlay.builder import build_stable_tree
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, register_scenario
from repro.workloads.subscriptions import uniform_subscriptions

#: The (m, M) node-capacity configurations every size is measured under.
CONFIGS: Tuple[Tuple[int, int], ...] = ((2, 4), (3, 6), (4, 8))


@register_scenario(
    "height",
    "Tree height vs N (Lemma 3.1)",
    description="Measured DR-tree heights against the O(log_m N) bound over "
                "a geometric size sweep and several (m, M) configurations.",
    params=(
        Param("peers", int, 256, "largest network size of the sweep"),
        Param("seed", int, 0, "RNG seed"),
    ),
    experiment_id="E2",
)
def height(peers: int, seed: int) -> ExperimentResult:
    """Measure tree heights across sizes and (m, M) configurations."""
    result = ExperimentResult("E2", "Tree height vs N (Lemma 3.1)")
    for min_children, max_children in CONFIGS:
        for size in size_ladder(peers):
            workload = uniform_subscriptions(size, seed=seed)
            sim = build_stable_tree(
                list(workload),
                DRTreeConfig(min_children=min_children,
                             max_children=max_children),
                seed=seed,
            )
            report = sim.verify()
            bound = height_bound(size, min_children)
            result.add_row(
                m=min_children,
                M=max_children,
                N=size,
                height=report.height,
                bound=round(bound, 2),
                within_bound=within_height_bound(report.height, size,
                                                 min_children),
                legal=report.is_legal,
            )
    result.add_note("bound column shows log_m(N) + 2 (Lemma 3.1 with explicit "
                    "constants); within_bound uses a 1.5x constant")
    return result
