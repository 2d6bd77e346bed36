"""Discrete-event simulation substrate.

The DR-tree is a message-passing protocol; the paper analyses it in terms of
logical steps and message exchanges.  This subpackage provides the substrate
used to execute the protocol:

* :class:`~repro.sim.engine.SimulationEngine` — an event-queue scheduler with
  a simulated clock,
* :class:`~repro.sim.network.Network` — message delivery after a fixed
  delay, with optional network conditions,
* :mod:`~repro.sim.conditions` — the seeded per-link condition pipeline
  (loss, latency, reordering, duplication, timed partitions) the simulated
  network and ``drtree:net``'s socket runtime both apply,
* :class:`~repro.sim.process.Process` — the base class for protocol
  participants (handlers and one-shot timers),
* :mod:`~repro.sim.failures` — crash and memory-corruption fault injection,
* :mod:`~repro.sim.churn` — Poisson join/leave schedules (the model behind
  Lemma 3.7),
* :mod:`~repro.sim.metrics` — counters, histograms and per-run registries,
* :mod:`~repro.sim.rng` — named, seeded random streams for reproducibility,
* :mod:`~repro.sim.sharded` — the multi-process simulator: one DR-tree
  subtree per worker process, cross-shard messages over pipes with a
  round-barrier merge (the ``drtree:sharded`` backend).

The substrate replaces the ``simpy``/``asyncio`` machinery the paper's
authors would have used for their (unpublished) experimental harness; it is
deterministic given a seed, which makes every experiment in this repository
reproducible bit-for-bit.
"""

from repro.sim.engine import SimulationEngine, ScheduledEvent
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RandomStreams

__all__ = [
    "SimulationEngine",
    "ScheduledEvent",
    "Message",
    "Network",
    "Process",
    "MetricsRegistry",
    "RandomStreams",
]
