"""Journal interop: export to a replayable trace, bisect across backends.

:func:`journal_to_trace` lowers a verified journal into the trace format
(:mod:`repro.traces.format`): the chain fields, per-op indices, ``auto``
markers and snapshots are journal-only machinery the trace envelope does
not write; what remains — system records and the op sequence, the same
value types in both logs — is exactly a trace body.  A
*sealed* journal additionally carries its final metrics rows, which become
the trace's ``expect`` records, so ``repro run --trace`` verifies the
exported file bit-identically.  Journals recording typed engine options
export as version-2 traces (the first trace version to carry them).

:func:`bisect_journal` replays one journal against *two* backends in
lockstep and reports the first publish whose delivery outcome diverges —
the debugging tool for "these engines are supposed to be outcome-identical,
where do they first disagree?".  Each publish is compared on the audited
outcome (received set, false positives, message count, max hops), the level
at which the DR-tree engines are equivalent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.journal.errors import JournalFormatError
from repro.journal.io import Journal
from repro.traces.format import (ExpectRecord, Trace, TraceHeader,
                                 lowest_version)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.broker import Broker


def journal_to_trace(journal: Journal) -> Trace:
    """Lower ``journal`` into an in-memory :class:`~repro.traces.format.Trace`.

    Works on sealed and unsealed journals alike; only sealed ones produce
    ``expect`` rows (an interrupted run has no final metrics to promise).
    The records are shared value types, so the body *is* the journal's
    system and op records; a system record that cannot describe a system
    raises :class:`~repro.journal.errors.JournalFormatError` here rather
    than exporting a trace that cannot replay.
    """
    from repro.traces.replay import system_spec

    header = journal.header
    systems = journal.systems
    for system in systems:
        system_spec(system, error=JournalFormatError)
    trace = Trace(header=TraceHeader(
        scenario=header.scenario,
        params=dict(header.params) if header.params is not None else None,
        backend=systems[0].backend if systems else None,
        version=lowest_version(systems),
    ))
    trace.body = [*systems, *journal.ops]
    if journal.sealed:
        trace.expects = [ExpectRecord(seg=seg, row=dict(row))
                         for seg, row in sorted(journal.finals.items())]
    return trace


# --------------------------------------------------------------------------- #
# Bisect: first diverging delivery outcome between two backends
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class BisectDivergence:
    """The first journaled publish the two backends disagree on."""

    seg: int
    #: The op's dense per-segment index (as shown by the journal records).
    n: int
    event_id: str
    #: Which outcome fields differ (subset of received/false_positives/
    #: messages/max_hops).
    fields: List[str]
    a: Dict[str, Any]
    b: Dict[str, Any]


@dataclass
class BisectResult:
    """Outcome of :func:`bisect_journal`."""

    backend_a: str
    backend_b: str
    ops_applied: int = 0
    publishes_compared: int = 0
    divergence: Optional[BisectDivergence] = None

    @property
    def identical(self) -> bool:
        """True when every compared publish produced the same outcome."""
        return self.divergence is None

    def describe(self) -> str:
        if self.identical:
            return (f"{self.backend_a} and {self.backend_b} agree on all "
                    f"{self.publishes_compared} journaled publication(s) "
                    f"({self.ops_applied} ops applied)")
        d = self.divergence
        return (f"first divergence at segment {d.seg} op {d.n} "
                f"(event {d.event_id!r}): fields {d.fields} differ\n"
                f"  {self.backend_a}: {d.a}\n"
                f"  {self.backend_b}: {d.b}")


def _outcome_row(outcome: Any) -> Dict[str, Any]:
    return {
        "received": sorted(outcome.received),
        "false_positives": sorted(outcome.false_positives),
        "messages": int(outcome.messages),
        "max_hops": int(outcome.max_hops),
    }


def bisect_journal(journal: Journal, backend_a: str,
                   backend_b: str) -> BisectResult:
    """Replay ``journal`` on two backends; stop at the first divergence."""
    from repro.api.registry import normalize_backend
    from repro.traces.replay import apply_op, system_spec

    result = BisectResult(backend_a=normalize_backend(backend_a),
                          backend_b=normalize_backend(backend_b))
    systems_a: Dict[int, "Broker"] = {}
    systems_b: Dict[int, "Broker"] = {}
    for system in journal.systems:
        systems_a[system.seg] = system_spec(system, result.backend_a,
                                            JournalFormatError).build()
        systems_b[system.seg] = system_spec(system, result.backend_b,
                                            JournalFormatError).build()
    for op in journal.ops:
        apply_op(systems_a[op.seg], op)
        apply_op(systems_b[op.seg], op)
        result.ops_applied += 1
        if op.op != "publish":
            continue
        event_id = op.data["event"]["id"]
        row_a = _outcome_row(systems_a[op.seg].accounting.outcomes[event_id])
        row_b = _outcome_row(systems_b[op.seg].accounting.outcomes[event_id])
        result.publishes_compared += 1
        if row_a != row_b:
            result.divergence = BisectDivergence(
                seg=op.seg, n=op.n, event_id=event_id,
                fields=sorted(key for key in row_a
                              if row_a[key] != row_b[key]),
                a=row_a, b=row_b)
            break
    return result
