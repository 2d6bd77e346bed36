"""E4 — join cost versus network size (Lemma 3.2).

Lemma 3.2: starting from a legitimate configuration, a join completes and
the system is legitimate again after ``O(log_m N)`` steps.  The experiment
builds a stabilized tree of size ``N``, then joins a batch of probe peers and
measures the routing hops of each join plus the number of stabilization
rounds needed to return to a legal configuration.
"""

from __future__ import annotations

from repro.analysis.complexity import logarithmic_latency_bound
from repro.analysis.stats import describe
from repro.experiments.harness import ExperimentResult, size_ladder
from repro.overlay.builder import build_stable_tree
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, register_scenario
from repro.workloads.subscriptions import uniform_subscriptions


@register_scenario(
    "join_cost",
    "Join cost vs N (Lemma 3.2)",
    description="Routing hops of probe joins into stabilized trees of "
                "increasing size, against the O(log_m N) bound.",
    params=(
        Param("peers", int, 256, "largest network size of the sweep"),
        Param("probes", int, 10, "probe joins measured per size"),
        Param("min_children", int, 2, "the paper's m bound"),
        Param("max_children", int, 4, "the paper's M bound"),
        Param("seed", int, 0, "RNG seed"),
    ),
    experiment_id="E4",
)
def join_cost(peers: int, probes: int, min_children: int, max_children: int,
              seed: int) -> ExperimentResult:
    """Measure join hop counts and post-join stabilization rounds."""
    result = ExperimentResult("E4", "Join cost vs N (Lemma 3.2)")
    config = DRTreeConfig(min_children=min_children, max_children=max_children)
    for size in size_ladder(peers):
        base = uniform_subscriptions(size, seed=seed)
        probe_subs = uniform_subscriptions(probes, seed=seed + 1,
                                           prefix="probe")
        sim = build_stable_tree(list(base), config, seed=seed)
        hops_before = list(sim.metrics.histogram("join.hops").values)
        for subscription in probe_subs:
            sim.add_peer(subscription)
        stabilization = sim.stabilize(max_rounds=30)
        probe_hops = sim.metrics.histogram("join.hops").values[len(hops_before):]
        stats = describe(probe_hops)
        result.add_row(
            N=size,
            probes=probes,
            mean_hops=round(stats.mean, 2),
            max_hops=stats.maximum,
            bound=round(logarithmic_latency_bound(size, min_children), 2),
            rounds_to_legal=sim.metrics.histogram("stabilize.rounds").values[-1],
            legal=stabilization.is_legal,
        )
    result.add_note("hops counts JOIN/ADD_CHILD forwarding steps per probe join")
    return result
