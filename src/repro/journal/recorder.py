"""Journaling live runs: durable write-ahead capture with snapshots.

While a :func:`journaling` context is active, every broker constructed in
the process attaches itself to the active :class:`JournalRecorder` exactly
as it does to the trace recorder (:mod:`repro.traces.recorder`) — the two
compose, and a run can be journaled and trace-recorded at once.  The
difference is *when* records hit disk: the trace recorder buffers in memory
and writes a complete file on clean exit, while the journal writer appends
every operation durably the moment it succeeds (``write`` + ``flush``; see
:mod:`repro.journal.io` for the fsync batching).  Kill the process at any
instant and the journal holds an intact, chain-verified prefix of the run.

Every ``snapshot_every`` ops of a segment the recorder also embeds a full
broker snapshot (``Broker.snapshot()``, zlib + base64) — taken only at
quiescence and only from brokers advertising the ``snapshot`` capability —
so recovery replays the short tail after the latest snapshot instead of the
whole history.

The same recorder runs the *resume* side: constructed over an unsealed
:class:`~repro.journal.io.Journal`, each attaching broker is checked
against its journaled system record, restored from the latest snapshot,
driven through the journaled tail ops, and fitted with a
:class:`~repro.journal.gate.ReplayGate` that skips (and validates) the
journaled prefix as the scenario re-runs.  New operations past the prefix
continue the hash chain in place.

Records are the trace format's :class:`~repro.traces.format.SystemRecord`
and :class:`~repro.traces.format.OpRecord`, written in the journal envelope
(:mod:`repro.journal.records`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.journal.errors import JournalResumeError
from repro.journal.gate import ReplayGate
from repro.journal.io import Journal, JournalWriter
from repro.journal.records import (JournalHeader, JournalSnapshot,
                                   compress_snapshot, decompress_snapshot,
                                   op_to_json, system_to_json)
from repro.traces.errors import TraceReplayError
from repro.traces.format import OpRecord, SystemRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.broker import Broker

#: Default snapshot cadence: one full snapshot every this many ops per
#: segment (0 disables snapshots; recovery then replays from the start).
DEFAULT_SNAPSHOT_EVERY = 25

#: The process-wide active journal recorder (None outside journaling()).
_ACTIVE: Optional["JournalRecorder"] = None


def active_journal() -> Optional["JournalRecorder"]:
    """The recorder of the enclosing :func:`journaling` context, if any."""
    return _ACTIVE


@dataclass(frozen=True)
class SegmentPlan:
    """What the journal already holds for one segment (resume input)."""

    system: SystemRecord
    ops: List[OpRecord]
    snapshot: Optional[JournalSnapshot]


@dataclass(frozen=True)
class SegmentResume:
    """How one segment was brought back during a resume."""

    #: Ops the journal held when the resume started.
    journaled: int
    #: Ops covered by the snapshot the broker was restored from (0 if none).
    snapshot_ops: int
    #: Ops re-executed for real — exactly the post-snapshot tail.
    reexecuted: int


class JournalRecorder:
    """Owns one journal file: writes the chain, drives resumes."""

    def __init__(self, path: Union[str, Path],
                 scenario: Optional[str] = None,
                 params: Optional[Dict[str, Any]] = None,
                 snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
                 fsync_every: int = 32,
                 resume: Optional[Journal] = None) -> None:
        self.path = Path(path)
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        self.snapshot_every = int(snapshot_every)
        self._systems: List["Broker"] = []
        #: Per segment, the dense index the next journaled op gets; a
        #: resumed segment starts at the journaled op count so the chain
        #: stays dense across the crash.
        self._next_n: List[int] = []
        self._gates: Dict[int, ReplayGate] = {}
        self.segment_stats: Dict[int, SegmentResume] = {}
        self._sealed = False
        self._closed = False
        if resume is None:
            self._plan: List[SegmentPlan] = []
            self._writer = JournalWriter(self.path, fsync_every=fsync_every)
            self._writer.append(JournalHeader(
                scenario=scenario, params=params,
                snapshot_every=self.snapshot_every).to_json())
        else:
            # Resume: the header (and its snapshot cadence) is already on
            # disk; the plan is everything the intact chain holds.
            self.snapshot_every = resume.header.snapshot_every
            self._plan = [
                SegmentPlan(system=system, ops=resume.ops_for(system.seg),
                            snapshot=resume.snapshot_for(system.seg))
                for system in resume.systems
            ]
            self._writer = JournalWriter.resume(resume,
                                                fsync_every=fsync_every)

    @property
    def segments(self) -> int:
        """Number of systems journaled so far."""
        return len(self._systems)

    @property
    def sealed(self) -> bool:
        return self._sealed

    # -- capture --------------------------------------------------------- #

    def attach(self, system: "Broker") -> int:
        """Register a newly constructed broker; returns its segment index.

        In resume mode the first ``len(plan)`` attachments are matched
        against the journaled segments and brought back to their pre-crash
        state before this returns (and so before the broker's op log starts
        observing).
        """
        if self._closed:
            raise RuntimeError("this journaling() context has already exited")
        seg = len(self._systems)
        self._systems.append(system)
        if seg < len(self._plan):
            self._resume_segment(system, seg, self._plan[seg])
        else:
            self._writer.append(system_to_json(SystemRecord.of(system, seg)))
            self._next_n.append(0)
        return seg

    def observe(self, record: OpRecord) -> None:
        """Append one succeeded facade operation durably, then maybe snapshot."""
        seg = record.seg
        self._writer.append(op_to_json(replace(record, n=self._next_n[seg])))
        self._next_n[seg] += 1
        self._maybe_snapshot(seg)

    def _maybe_snapshot(self, seg: int) -> None:
        from repro.api.capabilities import supports_snapshot

        ops = self._next_n[seg]
        if self.snapshot_every <= 0 or ops % self.snapshot_every != 0:
            return
        system = self._systems[seg]
        # Snapshots are best-effort: a broker without the capability (or one
        # that is somehow not quiescent) just means a longer replay tail.
        if not supports_snapshot(system) or not system.quiescent():
            return
        blob = compress_snapshot(system.snapshot())
        self._writer.append(JournalSnapshot(
            seg=seg, ops=ops, t=float(system.clock()), blob=blob).to_json())

    # -- resume ---------------------------------------------------------- #

    def _resume_segment(self, system: "Broker", seg: int,
                        plan: SegmentPlan) -> None:
        from repro.api.capabilities import require_snapshot
        from repro.traces.replay import apply_op

        record = plan.system
        spec = system.spec
        mismatches = []
        if tuple(spec.space.names) != tuple(record.space):
            mismatches.append(f"space {tuple(spec.space.names)!r} != "
                              f"journaled {tuple(record.space)!r}")
        if spec.backend != record.backend:
            mismatches.append(f"backend {spec.backend!r} != journaled "
                              f"{record.backend!r}")
        if int(spec.seed) != record.seed:
            mismatches.append(f"seed {spec.seed} != journaled {record.seed}")
        if int(spec.stabilize_rounds) != record.stabilize_rounds:
            mismatches.append(
                f"stabilize_rounds {spec.stabilize_rounds} != journaled "
                f"{record.stabilize_rounds}")
        if mismatches:
            raise JournalResumeError(
                f"segment {seg} was rebuilt with a different spec than the "
                f"journal records: " + "; ".join(mismatches))

        start = 0
        if plan.snapshot is not None:
            require_snapshot(system)
            system.restore(decompress_snapshot(plan.snapshot.blob))
            start = plan.snapshot.ops
        for op in plan.ops[start:]:
            if op.op == "publish" and op.auto:
                # Keep the facade's id counter in lockstep with the journal:
                # the original call drew the id, the re-execution publishes
                # it explicitly.
                assigned = system.consume_event_id()
                recorded = op.data["event"]["id"]
                if assigned != recorded:
                    raise JournalResumeError(
                        f"segment {seg} op {op.n}: event-id counter "
                        f"diverged (journal {recorded!r}, restored broker "
                        f"would assign {assigned!r})")
            try:
                apply_op(system, op)
            except TraceReplayError as exc:
                raise JournalResumeError(
                    f"segment {seg}: journaled op {op.n} ({op.op!r}) "
                    f"failed to re-execute: {exc}") from exc

        gate = ReplayGate(system, seg, plan.ops)
        system.oplog.gate = gate
        self._gates[seg] = gate
        self._next_n.append(len(plan.ops))
        self.segment_stats[seg] = SegmentResume(
            journaled=len(plan.ops), snapshot_ops=start,
            reexecuted=len(plan.ops) - start)

    # -- completion ------------------------------------------------------ #

    def seal(self) -> None:
        """Mark the run complete: final metrics rows, then the close record.

        Only call after the run finished successfully — a sealed journal
        cannot be resumed.  In resume mode, refuses to seal while any gate
        still holds unmatched journaled ops (the rerun fell short of the
        journal, which is a divergence, not a completion).
        """
        from repro.traces.replay import delivery_metrics_row

        if self._sealed:
            raise ValueError("journal is already sealed")
        for seg, gate in sorted(self._gates.items()):
            if gate.active:
                raise JournalResumeError(
                    f"rerun issued only {gate.skipped} of {gate.journaled} "
                    f"journaled ops in segment {seg}; refusing to seal a "
                    "diverged journal")
        for seg, system in enumerate(self._systems):
            self._writer.append({"rec": "final", "seg": seg,
                                 "row": delivery_metrics_row(system, seg)})
        self._writer.append({"rec": "close"})
        self._sealed = True

    def close(self) -> None:
        """Close the writer and detach every broker (idempotent).

        Without a prior :meth:`seal` the journal is left *unsealed* — the
        durable record of an incomplete run, exactly what ``repro resume``
        consumes.
        """
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        for system in self._systems:
            system.detach_tape()


@contextmanager
def journaling(path: Optional[Union[str, Path]] = None,
               scenario: Optional[str] = None,
               params: Optional[Dict[str, Any]] = None,
               snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
               fsync_every: int = 32,
               resume: Optional[Journal] = None):
    """Journal every broker built inside the ``with`` block.

    Yields the :class:`JournalRecorder`.  The caller marks success by
    calling :meth:`JournalRecorder.seal` before the block exits; exiting
    without sealing leaves a resumable journal (that is what makes scenario
    failures and crashes recoverable rather than fatal).  Pass ``resume=``
    (a verified unsealed :class:`~repro.journal.io.Journal`) to continue an
    interrupted run in place; ``path`` is then taken from the journal.

    Nesting journaling contexts is not supported, and a resume cannot run
    inside a :func:`repro.traces.recorder.recording` context (the trace
    would double-record the restored prefix).
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a journaling context is already active")
    if resume is not None:
        from repro.traces.recorder import active_recorder

        if active_recorder() is not None:
            raise RuntimeError(
                "cannot resume a journal inside a recording() context")
        recorder = JournalRecorder(resume.path, fsync_every=fsync_every,
                                   resume=resume)
    else:
        if path is None:
            raise ValueError("journaling() needs a path for a new journal")
        recorder = JournalRecorder(path, scenario=scenario, params=params,
                                   snapshot_every=snapshot_every,
                                   fsync_every=fsync_every)
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = None
        recorder.close()
