"""Streamed production-scale workload synthesis.

Composable generator stages — Zipf-popularity hot-spot topics, diurnal
rate curves, flash-crowd join/leave bursts, correlated multi-attribute
event streams and regional hot-spots with subscriber mobility — emitted
lazily as replayable v2 trace segments so every backend consumes the
byte-identical op stream.  See ``docs/workloads.md``.

* :mod:`~repro.workloads.synth.spec` — the :class:`SyntheticWorkload`
  value and the named family presets,
* :mod:`~repro.workloads.synth.stages` — the pure stage math,
* :mod:`~repro.workloads.synth.stream` — lazy op-stream emission, trace
  and journal writers, live-broker application.
"""

from repro.workloads.synth.spec import (FAMILY_NAMES, FAMILY_PRESETS,
                                        SYNTH_SCENARIO, SyntheticWorkload,
                                        WorkloadFamily,
                                        coerce_spec_override)
from repro.workloads.synth.stream import (SYNTH_STREAMS, SynthReport,
                                          base_population, delivered_digest,
                                          hotspot_centres,
                                          iter_events, iter_ops,
                                          iter_records, run_workload,
                                          stream_signature, trace_header,
                                          write_synth_journal,
                                          write_synth_trace)

__all__ = [
    "FAMILY_NAMES",
    "FAMILY_PRESETS",
    "SYNTH_SCENARIO",
    "SYNTH_STREAMS",
    "SyntheticWorkload",
    "SynthReport",
    "WorkloadFamily",
    "base_population",
    "coerce_spec_override",
    "delivered_digest",
    "hotspot_centres",
    "iter_events",
    "iter_ops",
    "iter_records",
    "run_workload",
    "stream_signature",
    "trace_header",
    "write_synth_journal",
    "write_synth_trace",
]
