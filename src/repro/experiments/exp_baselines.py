"""E10 — DR-tree versus baseline overlays (Section 4's positioning).

Compares the DR-tree publish/subscribe embedding against the four baseline
designs on the same workload:

* containment tree (reference [11]) — accurate but with a huge virtual-root
  fan-out and an unbalanced structure,
* per-dimension containment trees (reference [3]) — flat trees, significant
  false positives,
* flooding — perfect recall, every subscriber pays for every event,
* centralized broker — accurate and cheap in messages but a single point of
  failure (its "height" column shows the broker's local R-tree instead of an
  overlay depth).

Every system runs behind the same :class:`~repro.api.broker.Broker`
protocol (the baselines through :class:`~repro.baselines.broker.BaselineBroker`),
so false-positive/negative accounting is the one
:class:`~repro.pubsub.accounting.DeliveryAccounting` implementation for all
five rows.

Expected shape: the DR-tree's false-positive rate sits near the containment
tree's (low) while keeping a balanced structure with bounded fan-out, far
below flooding's 100 % false-positive rate, and without the per-dimension
baseline's accuracy loss.
"""

from __future__ import annotations

from typing import Dict, List

from repro.api.spec import SystemSpec
from repro.experiments.harness import ExperimentResult
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, register_scenario
from repro.spatial.filters import Event, Subscription
from repro.workloads.events import targeted_events, uniform_events
from repro.workloads.subscriptions import mixed_subscriptions


def _comparison_events(workload, events_count: int, seed: int) -> List[Event]:
    """Half targeted, half uniform — the mix every system is measured on."""
    return (targeted_events(workload.space, list(workload),
                            events_count // 2, seed=seed + 5, prefix="t")
            + uniform_events(workload.space, events_count - events_count // 2,
                             seed=seed + 6, prefix="u"))


def _broker_row(system_name: str, broker, events: List[Event],
                structure: str) -> Dict[str, object]:
    """Publish the stream and summarize one broker as an E10 table row."""
    broker.publish_many(events)
    summary = broker.summary()
    return {
        "system": system_name,
        "fp_rate_pct": round(100 * summary["false_positive_rate"], 2),
        "false_negatives": int(summary["false_negatives"]),
        "msgs_per_event": round(summary["mean_messages_per_event"], 1),
        "max_hops": int(summary["max_delivery_hops"]),
        "structure": structure,
    }


@register_scenario(
    "baselines",
    "DR-tree vs baselines",
    description="Accuracy/cost/structure of the DR-tree against containment "
                "tree, per-dimension trees, flooding and a central broker, "
                "all through the unified Broker protocol.",
    params=(
        Param("peers", int, 60, "subscriber count"),
        Param("events", int, 40, "events published per system"),
        Param("min_children", int, 2, "the paper's m bound"),
        Param("max_children", int, 5, "the paper's M bound"),
        Param("seed", int, 0, "RNG seed"),
    ),
    replayable=True,
    experiment_id="E10",
)
def baselines(peers: int, events: int, min_children: int, max_children: int,
              seed: int) -> ExperimentResult:
    """Compare accuracy/cost/structure across all five systems."""
    result = ExperimentResult("E10", "DR-tree vs baselines")
    workload = mixed_subscriptions(peers, seed=seed)
    subscriptions: List[Subscription] = list(workload)
    stream = _comparison_events(workload, events, seed)
    config = DRTreeConfig(min_children=min_children, max_children=max_children)
    spec = SystemSpec(space=workload.space, config=config, seed=seed)

    dr_tree = spec.with_backend("drtree:classic").build()
    dr_tree.subscribe_all(subscriptions)
    result.add_row(**_broker_row(
        "dr_tree", dr_tree, stream,
        f"height={dr_tree.overlay_height()}"))

    containment = spec.with_backend("containment-tree").build()
    containment.subscribe_all(subscriptions)
    result.add_row(**_broker_row(
        "containment_tree", containment, stream,
        f"root_fanout={containment.overlay.root_fanout()}"))

    per_dimension = spec.with_backend("per-dimension").build()
    per_dimension.subscribe_all(subscriptions)
    fanouts = per_dimension.overlay.tree_fanouts()
    result.add_row(**_broker_row(
        "per_dimension", per_dimension, stream,
        f"max_tree_fanout={max(fanouts.values()) if fanouts else 0}"))

    flooding = spec.with_backend("flooding").build()
    flooding.subscribe_all(subscriptions)
    result.add_row(**_broker_row(
        "flooding", flooding, stream,
        f"random overlay, degree {flooding.overlay.degree}"))

    centralized = spec.with_backend("centralized").build()
    centralized.subscribe_all(subscriptions)
    result.add_row(**_broker_row(
        "centralized", centralized, stream,
        f"broker_rtree_height={centralized.overlay.index_height()}"))

    result.add_note("fp_rate_pct = average fraction of uninterested subscribers "
                    "reached per event")
    result.add_note("all five systems run behind the unified Broker protocol "
                    "with shared delivery accounting")
    return result
