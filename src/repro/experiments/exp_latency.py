"""E5 — publication latency versus network size.

The paper claims logarithmic publish/subscribe time.  The experiment builds
DR-trees of increasing size, publishes a batch of targeted events (events
guaranteed to interest at least one subscriber) and reports the mean and
maximum hop counts of true deliveries together with the logarithmic bound.
"""

from __future__ import annotations

from repro.analysis.complexity import logarithmic_latency_bound
from repro.experiments.harness import (ExperimentResult, build_pubsub_system,
                                       size_ladder)
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, backend_param, register_scenario
from repro.workloads.events import targeted_events
from repro.workloads.subscriptions import uniform_subscriptions


@register_scenario(
    "latency",
    "Publication latency vs N",
    description="Delivery hop counts of targeted events over a geometric "
                "size sweep, against the logarithmic bound.",
    params=(
        Param("peers", int, 256, "largest network size of the sweep"),
        Param("events", int, 30, "events published per size"),
        Param("min_children", int, 2, "the paper's m bound"),
        Param("max_children", int, 4, "the paper's M bound"),
        Param("seed", int, 0, "RNG seed"),
        backend_param(),
    ),
    replayable=True,
    experiment_id="E5",
)
def latency(peers: int, events: int, min_children: int, max_children: int,
            seed: int, backend: str) -> ExperimentResult:
    """Measure delivery hop counts across network sizes.

    ``backend="drtree:batched"`` runs the same workload on the batched
    dissemination engine; hop counts and delivery sets are identical by
    construction, so the option exists for cross-checking and for timing
    comparisons.  Baseline backends report their own hop profiles against
    the same logarithmic bound column.
    """
    result = ExperimentResult("E5", "Publication latency vs N")
    config = DRTreeConfig(min_children=min_children, max_children=max_children)
    for size in size_ladder(peers):
        workload = uniform_subscriptions(size, seed=seed)
        system = build_pubsub_system(workload, config, seed=seed,
                                     backend=backend)
        stream = targeted_events(workload.space, list(workload), events,
                                 seed=seed + 7)
        system.publish_many(stream)
        summary = system.summary()
        result.add_row(
            N=size,
            events=events,
            mean_hops=round(summary["mean_delivery_hops"], 2),
            max_hops=summary["max_delivery_hops"],
            bound=round(logarithmic_latency_bound(size, min_children), 2),
            mean_messages=round(summary["mean_messages_per_event"], 2),
            false_negatives=summary["false_negatives"],
        )
    result.add_note("hops counted over true deliveries; bound = 2·log_m(N) + 3")
    return result
