"""Capturing live runs as traces.

The recorder observes the publish/subscribe facade: while a
:func:`recording` context is active, every broker constructed in the
process — the DR-tree :class:`~repro.pubsub.api.PubSubSystem` and the
analytic :class:`~repro.baselines.broker.BaselineBroker` alike — attaches
itself to the active :class:`TraceRecorder` through its op log
(:class:`~repro.traces.oplog.OpLog`) and reports each facade operation
(subscribe, unsubscribe, crash, move, publish, stabilize) as one
:class:`~repro.traces.format.OpRecord`.  Which
backend a system ran on comes from its
:class:`~repro.api.spec.SystemSpec` and is written into the ``system``
record (and, for the first system, the trace header).  Recording is purely
observational — it draws no randomness and mutates nothing — so a recorded
run and an unrecorded run of the same scenario are bit-identical.

When the context exits, the recorder snapshots each attached system's
delivery-metrics row into ``expect`` records and writes the whole trace to
disk.  The replay engine (:mod:`repro.traces.replay`) re-derives those rows
and refuses to pass if they differ, which is what makes "replays
bit-identically" an enforced property rather than a hope.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.traces.format import (ExpectRecord, OpRecord, SystemRecord, Trace,
                                 TraceHeader, lowest_version)
from repro.traces.io import write_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.broker import Broker

#: The process-wide active recorder (None outside a recording() context).
_ACTIVE: Optional["TraceRecorder"] = None


def active_recorder() -> Optional["TraceRecorder"]:
    """The recorder of the enclosing :func:`recording` context, if any."""
    return _ACTIVE


class TraceRecorder:
    """Accumulates the records of one recording session."""

    def __init__(self, scenario: Optional[str] = None,
                 params: Optional[Dict[str, Any]] = None) -> None:
        self.scenario = scenario
        self.params = params
        self._body: List[Any] = []
        self._systems: List["Broker"] = []
        self._closed = False

    def close(self) -> None:
        """Detach every recorded system and refuse new attachments.

        Called by :func:`recording` on context exit so that facade ops issued
        *after* the context cannot silently append to a recorder whose trace
        is already on disk.
        """
        self._closed = True
        for system in self._systems:
            system.detach_tape()

    def attach(self, system: "Broker") -> int:
        """Register a newly constructed broker; returns its segment index."""
        if self._closed:
            raise RuntimeError("this recorder's recording() context has "
                               "already exited")
        seg = len(self._systems)
        self._systems.append(system)
        self._body.append(SystemRecord.of(system, seg))
        return seg

    def observe(self, record: OpRecord) -> None:
        """Keep one succeeded facade operation of an attached broker."""
        self._body.append(record)

    def set_provenance(self, scenario: Optional[str],
                       params: Optional[Dict[str, Any]]) -> None:
        """Record which scenario (with which bound parameters) produced this."""
        self.scenario = scenario
        self.params = params

    @property
    def segments(self) -> int:
        """Number of systems recorded so far."""
        return len(self._systems)

    def build(self) -> Trace:
        """Finalize: header + body + one ``expect`` row per segment.

        The expectation rows are computed *now*, from each system's current
        accounting state, so the recorder must be asked to build only after
        the recorded run has finished mutating its systems (the
        :func:`recording` context does this on exit).
        """
        from repro.traces.replay import delivery_metrics_row

        backend = self._systems[0].spec.backend if self._systems else None
        trace = Trace(body=list(self._body))
        trace.header = TraceHeader(scenario=self.scenario, params=self.params,
                                   backend=backend,
                                   version=lowest_version(trace.systems()))
        trace.expects = [
            ExpectRecord(seg=seg, row=delivery_metrics_row(system, seg))
            for seg, system in enumerate(self._systems)
        ]
        return trace


@contextmanager
def recording(path: Optional[Union[str, Path]] = None,
              scenario: Optional[str] = None,
              params: Optional[Dict[str, Any]] = None):
    """Record every broker built inside the ``with`` block.

    Yields the :class:`TraceRecorder`; on clean exit the finalized trace is
    written to ``path`` (when given).  Nesting recording contexts is not
    supported — the paper-trail of one run belongs in one file.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a recording context is already active")
    recorder = TraceRecorder(scenario=scenario, params=params)
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = None
        recorder.close()
    if path is not None:
        write_trace(path, recorder.build())
