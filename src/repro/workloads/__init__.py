"""Workload generation: subscriptions, events and synthesized streams.

The paper's quantitative claims ("false positive rate in the order of 2-3 %
with most workloads", logarithmic heights/latencies) are evaluated in a
companion technical report whose workloads are not public.  This subpackage
provides synthetic equivalents that exercise the same code paths:

* :mod:`~repro.workloads.subscriptions` — uniform, clustered, Zipf-sized and
  containment-chain subscription generators over a unit square,
* :mod:`~repro.workloads.events` — uniform and hot-spot (biased) event
  streams,
* :mod:`~repro.workloads.paper_example` — a concrete reconstruction of the
  running example of Figure 1 (subscriptions S1..S8 and events a..d),
* :mod:`~repro.workloads.synth` — streamed production-scale workload
  synthesis: Zipf hot-spots, diurnal rates, flash crowds and mobility
  emitted lazily as replayable traces (``docs/workloads.md``).

All generators raise the typed errors of :mod:`~repro.workloads.errors`
(``ValueError`` subclasses) on out-of-range parameters.
"""

from repro.workloads.errors import (UnknownWorkloadFamilyError,
                                    WorkloadError, WorkloadParameterError)
from repro.workloads.subscriptions import (
    SubscriptionWorkload,
    clustered_subscriptions,
    containment_chain_subscriptions,
    mixed_subscriptions,
    uniform_subscriptions,
    zipf_subscriptions,
)
from repro.workloads.events import (
    biased_events,
    events_matching_rate,
    uniform_events,
    zipf_events,
)
from repro.workloads.paper_example import (
    paper_attribute_space,
    paper_events,
    paper_subscriptions,
)
from repro.workloads.synth import SyntheticWorkload

__all__ = [
    "SubscriptionWorkload",
    "SyntheticWorkload",
    "WorkloadError",
    "WorkloadParameterError",
    "UnknownWorkloadFamilyError",
    "uniform_subscriptions",
    "clustered_subscriptions",
    "zipf_subscriptions",
    "containment_chain_subscriptions",
    "mixed_subscriptions",
    "uniform_events",
    "biased_events",
    "zipf_events",
    "events_matching_rate",
    "paper_attribute_space",
    "paper_subscriptions",
    "paper_events",
]
