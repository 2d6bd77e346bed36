"""E9 — churn resistance (Lemma 3.7).

Lemma 3.7 gives the expected time before the DR-tree disconnects when
departures follow a Poisson process of rate ``λ`` and no stabilization runs
for an interval ``Δ``.  The experiment:

1. builds a stabilized DR-tree of ``N`` peers,
2. suspends stabilization and replays a Poisson departure trace,
3. records the first instant at which some surviving peer can no longer reach
   the root through parent pointers (the structure is disconnected),
4. compares the simulated mean against the analytic expectation
   ``Δ/N · exp((N − Δλ)² / 4Δλ)``.

Absolute values can differ by orders of magnitude (the lemma's bound is loose
by design); the reproduced *shape* is what matters: disconnection time falls
very fast as ``λ`` grows and collapses to roughly one repair interval once
``Δλ`` approaches ``N``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.churn_model import expected_disconnection_time
from repro.analysis.stats import describe
from repro.experiments.harness import ExperimentResult
from repro.overlay.builder import DRTreeSimulation, build_stable_tree
from repro.overlay.config import DRTreeConfig
from repro.runtime.registry import Param, register_scenario
from repro.sim.churn import PoissonChurnGenerator
from repro.sim.rng import RandomStreams
from repro.workloads.subscriptions import uniform_subscriptions

#: The departure rates swept when no single ``rate`` is requested.
RATES = (0.5, 1.0, 2.0, 4.0)


def _is_connected(sim: DRTreeSimulation) -> bool:
    """True when every live peer can reach a live root via parent pointers."""
    live = {peer.process_id: peer for peer in sim.live_peers()}
    if not live:
        return False
    for peer in live.values():
        current = peer
        level = current.top_level()
        seen = set()
        while True:
            instance = current.instances.get(level)
            if instance is None:
                return False
            parent_id = instance.parent
            if parent_id is None or parent_id == current.process_id:
                break  # reached a root
            if (parent_id, level) in seen:
                return False
            seen.add((parent_id, level))
            nxt = live.get(parent_id)
            if nxt is None:
                return False  # the path to the root goes through a dead peer
            current = nxt
            level = level + 1
    return True


def _simulate_disconnection(n_peers: int, rate: float, delta: float,
                            seed: int) -> Optional[float]:
    """Time of first disconnection, or None if the trace ends connected."""
    workload = uniform_subscriptions(n_peers, seed=seed)
    sim = build_stable_tree(list(workload),
                            DRTreeConfig(min_children=2, max_children=4),
                            seed=seed)
    generator = PoissonChurnGenerator(join_rate=0.0, leave_rate=rate,
                                      streams=RandomStreams(seed + 101))
    horizon = max(4 * n_peers / max(rate, 1e-9), 10 * delta)
    trace = generator.generate(horizon)
    for action in trace.departures():
        live = sim.live_peers()
        if not live:
            return action.time
        victim = live[action.peer_index % len(live)]
        victim.crash()
        sim.network.crash(victim.process_id)
        if not _is_connected(sim):
            return action.time
    return None


@register_scenario(
    "churn",
    "Churn resistance (Lemma 3.7)",
    description="Simulated vs analytic time-to-disconnection under Poisson "
                "departures with stabilization suspended.",
    params=(
        Param("peers", int, 40, "network size"),
        Param("rate", float, 0.0,
              "single Poisson departure rate (0 = the default rate sweep)"),
        Param("delta", float, 10.0, "repair interval Δ of the lemma"),
        Param("trials", int, 5, "trials per rate"),
        Param("seed", int, 0, "RNG seed"),
    ),
    experiment_id="E9",
)
def churn(peers: int, rate: float, delta: float, trials: int,
          seed: int) -> ExperimentResult:
    """Compare simulated and analytic expected disconnection times."""
    result = ExperimentResult("E9", "Churn resistance (Lemma 3.7)")
    for departure_rate in RATES if rate <= 0 else (rate,):
        times: List[float] = []
        censored = 0
        for trial in range(trials):
            observed = _simulate_disconnection(peers, departure_rate, delta,
                                               seed + trial)
            if observed is None:
                censored += 1
            else:
                times.append(observed)
        stats = describe(times)
        analytic = expected_disconnection_time(peers, delta, departure_rate)
        result.add_row(
            N=peers,
            rate=departure_rate,
            delta=delta,
            simulated_mean=round(stats.mean, 2) if times else float("inf"),
            trials=trials,
            survived_trials=censored,
            analytic_expectation=(round(analytic, 2)
                                  if analytic != float("inf") else "inf"),
        )
    result.add_note("stabilization is suspended during the departure trace, "
                    "as in the lemma's hypothesis")
    result.add_note("analytic values are loose upper-tail expectations; the "
                    "reproduced shape is the sharp decrease with rate")
    return result
