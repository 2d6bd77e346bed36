"""E6 — routing accuracy across workloads.

The paper's headline accuracy claim: the DR-tree "eradicates the false
negatives and drastically drops the false positives (our experiments show
that the false positive rate is in the order of 2-3 % with most workloads)".

The experiment crosses subscription workload families (uniform, clustered,
zipf, containment chains, mixed) with event distributions (uniform, biased,
targeted) and reports the false-positive rate (fraction of uninterested
subscribers reached, averaged over events), the absolute number of false
negatives (expected: zero) and the message cost.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult
from repro.overlay.config import DRTreeConfig
from repro.pubsub.api import PubSubSystem
from repro.runtime.registry import Param, register_scenario
from repro.workloads.events import biased_events, targeted_events, uniform_events
from repro.workloads.subscriptions import (
    SubscriptionWorkload,
    clustered_subscriptions,
    containment_chain_subscriptions,
    mixed_subscriptions,
    uniform_subscriptions,
    zipf_subscriptions,
)

WORKLOADS = ("uniform", "clustered", "zipf", "containment_chain", "mixed")
EVENT_KINDS = ("uniform", "biased", "targeted")


def _make_workload(kind: str, size: int, seed: int) -> SubscriptionWorkload:
    generators = {
        "uniform": uniform_subscriptions,
        "clustered": clustered_subscriptions,
        "zipf": zipf_subscriptions,
        "containment_chain": containment_chain_subscriptions,
        "mixed": mixed_subscriptions,
    }
    return generators[kind](size, seed=seed)


def _make_events(kind: str, workload: SubscriptionWorkload, count: int,
                 seed: int, prefix: str):
    # Each cell gets its own event-id prefix: ids are globally unique per
    # pub/sub system, and peers deduplicate deliveries by id.
    if kind == "uniform":
        return uniform_events(workload.space, count, seed=seed, prefix=prefix)
    if kind == "biased":
        return biased_events(workload.space, count, seed=seed, prefix=prefix)
    return targeted_events(workload.space, list(workload), count, seed=seed,
                           prefix=prefix)


@register_scenario(
    "false_positives",
    "False positives / negatives across workloads",
    description="Accuracy for every subscription-workload x event-"
                "distribution cell (paper claim: ~2-3% false positives, "
                "zero false negatives).",
    params=(
        Param("peers", int, 80, "subscribers per workload"),
        Param("events", int, 40, "events published per cell"),
        Param("workload", str, "all",
              "restrict to one subscription workload family",
              choices=("all",) + WORKLOADS),
        Param("min_children", int, 2, "the paper's m bound"),
        Param("max_children", int, 5, "the paper's M bound"),
        Param("seed", int, 0, "RNG seed"),
    ),
    replayable=True,
    experiment_id="E6",
)
def false_positives(peers: int, events: int, workload: str, min_children: int,
                    max_children: int, seed: int) -> ExperimentResult:
    """Measure accuracy for every workload × event-distribution cell."""
    result = ExperimentResult(
        "E6", "False positives / negatives across workloads"
    )
    config = DRTreeConfig(min_children=min_children, max_children=max_children)
    for workload_kind in WORKLOADS if workload == "all" else (workload,):
        subscriptions = _make_workload(workload_kind, peers, seed)
        system = PubSubSystem(subscriptions.space, config, seed=seed)
        system.subscribe_all(subscriptions)
        for event_kind in EVENT_KINDS:
            stream = _make_events(event_kind, subscriptions, events,
                                  seed=seed + 13,
                                  prefix=f"{workload_kind}-{event_kind}-")
            before = len(system.accounting.outcomes)
            system.publish_many(stream)
            outcomes = list(system.accounting.outcomes.values())[before:]
            population = len(system.subscribers())
            fp_rates = []
            false_negatives = 0
            messages = 0
            for outcome in outcomes:
                uninterested = max(population - len(outcome.intended), 1)
                fp_rates.append(len(outcome.false_positives) / uninterested)
                false_negatives += len(outcome.false_negatives)
                messages += outcome.messages
            result.add_row(
                workload=workload_kind,
                events=event_kind,
                subscribers=population,
                fp_rate_pct=round(100 * sum(fp_rates) / len(fp_rates), 2),
                false_negatives=false_negatives,
                msgs_per_event=round(messages / len(outcomes), 1),
            )
    result.add_note("fp_rate_pct = average fraction of uninterested subscribers "
                    "reached per event, in percent (paper reports 2-3 %)")
    result.add_note("false_negatives must be 0 for every cell")
    return result
