"""Replayable workload traces.

Every workload decision a run makes — joins, leaves, crashes, subscription
moves, publications — can be captured into a versioned JSON-lines trace and
replayed bit-identically, on either dissemination engine:

>>> from repro.traces import recording, replay_trace          # doctest: +SKIP
>>> with recording("run.jsonl", scenario="hotspot"):          # doctest: +SKIP
...     some_scenario()                                       # doctest: +SKIP
>>> replay_trace("run.jsonl", backend="drtree:batched")      # doctest: +SKIP

From the command line::

    python -m repro run hotspot --record run.jsonl
    python -m repro run --trace run.jsonl --backend drtree:batched

See ``docs/traces.md`` for the format reference.
"""

from repro.traces.errors import TraceError, TraceFormatError, TraceReplayError
from repro.traces.format import (TRACE_FORMAT, TRACE_OPS, TRACE_VERSION,
                                 ExpectRecord, OpRecord, SystemRecord, Trace,
                                 TraceHeader)
from repro.traces.io import (dump_record, dumps_trace, loads_trace, read_trace,
                             write_trace)
from repro.traces.recorder import TraceRecorder, active_recorder, recording
from repro.traces.replay import (SUMMARY_KEYS, delivery_metrics_row,
                                 dump_metrics, execute_trace, metrics_document,
                                 replay_trace)

__all__ = [
    "TRACE_FORMAT",
    "TRACE_OPS",
    "TRACE_VERSION",
    "SUMMARY_KEYS",
    "Trace",
    "TraceHeader",
    "SystemRecord",
    "OpRecord",
    "ExpectRecord",
    "TraceError",
    "TraceFormatError",
    "TraceReplayError",
    "TraceRecorder",
    "active_recorder",
    "recording",
    "delivery_metrics_row",
    "dump_metrics",
    "metrics_document",
    "execute_trace",
    "replay_trace",
    "dump_record",
    "dumps_trace",
    "loads_trace",
    "read_trace",
    "write_trace",
]
