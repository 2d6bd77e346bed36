"""W3 — moving-range subscriptions (mobility).

Subscribers whose interests drift — a vehicle watching road segments, a
player watching a region of a game map — re-subscribe along a random walk:
each step, a set of *walkers* leaves the overlay with its old range filter
and rejoins under a translated one
(:meth:`~repro.pubsub.api.PubSubSystem.move_subscription`).  Publications
targeted at the *current* subscription set keep flowing between steps, so
the metrics row measures delivery accuracy while the tree continuously
re-organizes around the moving filters.

The scenario is *trace-replayable*: every move is one ``move`` op in the
trace (old id, new filter), so ``repro run --trace`` replays the exact walk
(see ``docs/traces.md``).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.harness import ExperimentResult, build_pubsub_system
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, backend_param, register_scenario
from repro.sim.rng import RandomStreams
from repro.spatial.filters import Subscription, subscription_from_rect
from repro.spatial.rectangle import Rect
from repro.traces.replay import delivery_metrics_row
from repro.workloads.events import targeted_events
from repro.workloads.subscriptions import uniform_subscriptions


def _translate(rect: Rect, deltas, lo: float = 0.0, hi: float = 1.0) -> Rect:
    """Shift a rectangle by per-dimension deltas, clipped into ``[lo, hi]``."""
    lower = []
    upper = []
    for low, high, delta in zip(rect.lower, rect.upper, deltas):
        shift = min(max(delta, lo - low), hi - high)
        lower.append(low + shift)
        upper.append(high + shift)
    return Rect(tuple(lower), tuple(upper))


@register_scenario(
    "mobility",
    "Moving-range subscriptions (mobility)",
    description="A set of walker subscriptions re-subscribes along a random "
                "walk while targeted publications keep flowing; reports the "
                "canonical replayable delivery-metrics row.",
    params=(
        Param("peers", int, 80, "number of subscribers"),
        Param("walkers", int, 8, "subscriptions performing the random walk"),
        Param("steps", int, 4, "random-walk steps"),
        Param("events_per_step", int, 12, "publications after each step"),
        Param("step_size", float, 0.08, "gaussian step size of the walk"),
        Param("min_children", int, 2, "node capacity lower bound m"),
        Param("max_children", int, 5, "node capacity upper bound M"),
        Param("seed", int, 0, "RNG seed"),
        backend_param(),
    ),
    replayable=True,
)
def mobility(peers: int, walkers: int, steps: int, events_per_step: int,
             step_size: float, min_children: int, max_children: int,
             seed: int, backend: str) -> ExperimentResult:
    """Walk ``walkers`` subscriptions for ``steps`` steps, publishing between.

    Walkers are the lexicographically first subscriber ids; each step every
    walker's rectangle is translated by a gaussian delta (clipped to the
    unit square, so a walker pushed against the boundary slides along it)
    and re-registered under a fresh ``<id>~<step>`` name — peer ids are
    never reused.
    """
    if walkers < 1:
        raise ValueError("need at least one walker")
    if steps < 1:
        raise ValueError("need at least one step")
    if peers < walkers:
        raise ValueError("need at least as many subscribers as walkers")
    result = ExperimentResult("W3", "Moving-range subscriptions (mobility)")
    config = DRTreeConfig(min_children=min_children, max_children=max_children)
    workload = uniform_subscriptions(peers, seed=seed)
    space = workload.space
    rng = RandomStreams(seed).stream("workload.mobility")

    system = build_pubsub_system(workload, config, seed=seed, backend=backend)
    moving: Dict[str, str] = {
        walker_id: walker_id for walker_id in system.subscribers()[:walkers]
    }
    moves = 0
    for step in range(1, steps + 1):
        for base_id in sorted(moving):
            current_id = moving[base_id]
            rect = system.subscription_of(current_id).rect
            deltas = [rng.gauss(0.0, step_size) for _ in range(space.dimensions)]
            moved: Subscription = subscription_from_rect(
                f"{base_id}~{step}", space, _translate(rect, deltas))
            moving[base_id] = system.move_subscription(current_id, moved)
            moves += 1
        current_subs = [system.subscription_of(subscriber_id)
                        for subscriber_id in system.subscribers()]
        stream = targeted_events(space, current_subs, events_per_step,
                                 seed=seed + 31 * step, prefix=f"e{step}.")
        system.publish_many(stream)
    result.add_row(**delivery_metrics_row(system))
    result.add_note(
        f"{walkers} walkers x {steps} steps = {moves} subscription moves "
        f"(gaussian step {step_size}); events re-targeted at the moved "
        "filters each step")
    return result
