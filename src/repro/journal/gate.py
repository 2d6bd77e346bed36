"""Resume gates: skipping already-journaled facade operations.

When an interrupted journal is resumed (:mod:`repro.journal.resume`), the
scenario is re-run *from the beginning* — but the broker has already been
restored to its journaled state (snapshot + tail re-execution), so the
operations the scenario re-issues must not execute a second time.  A
:class:`ReplayGate` installed on the broker's op log
(:class:`~repro.traces.oplog.OpLog`) intercepts every facade call at the
top of the method — before any argument validation, because validation
runs against state in which the operation has already happened (e.g. a
re-issued ``subscribe`` would trip the duplicate-name check).

Each intercepted call arrives as the :class:`~repro.traces.format.OpRecord`
the journal would write for it and is checked against the next journaled
op: same operation, same canonical payload.  A match is *skipped* — the
gate returns the result the original call produced.  Any mismatch raises
:class:`~repro.journal.errors.JournalResumeError`: the scenario is not
deterministic in its parameters, and silently diverging would corrupt the
journal.  Once every journaled op has been matched the gate goes inactive
and the op log answers :data:`~repro.traces.oplog.EXECUTE` forever; from
then on operations run (and are journaled) normally.

``publish`` is compared on the event alone, not the resolved publisher:
publisher resolution is a pure function of subscription state, which the
payload check already pins.  For events whose id the facade auto-assigned
at record time, the gate adopts the journaled id directly — the restore
path (snapshot plus tail re-execution) has already advanced the broker's id
counter past the whole journaled prefix, so consuming again would skew it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Sequence

from repro.journal.errors import JournalResumeError
from repro.traces.format import OpRecord
from repro.traces.io import dump_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.broker import Broker


class ReplayGate:
    """Validates and skips the journaled prefix of one resumed segment."""

    def __init__(self, system: "Broker", seg: int,
                 ops: Sequence[OpRecord]) -> None:
        self._system = system
        self.seg = seg
        self._ops: List[OpRecord] = list(ops)
        self._cursor = 0

    @property
    def active(self) -> bool:
        """True while journaled ops remain to be matched."""
        return self._cursor < len(self._ops)

    @property
    def skipped(self) -> int:
        """Number of journaled ops matched (and skipped) so far."""
        return self._cursor

    @property
    def journaled(self) -> int:
        return len(self._ops)

    def match(self, reissued: OpRecord) -> Any:
        """Check ``reissued`` against the next journaled op and skip it.

        Only called while :attr:`active`.  Returns what the original call
        returned, derived from the payload (ids) or the restored state (a
        publish outcome).
        """
        record = self._ops[self._cursor]
        if record.op != reissued.op:
            raise JournalResumeError(
                f"rerun diverged from the journal at segment {record.seg} "
                f"op {record.n}: journal has {record.op!r}, the rerun "
                f"issued {reissued.op!r}")
        self._cursor += 1
        data = reissued.data
        if record.op == "publish":
            return self._match_publish(record, data["event"])
        # Canonical-JSON comparison absorbs representation noise (tuple vs
        # list, int vs float) exactly as the on-disk form does.
        if dump_record(data) != dump_record(record.data):
            raise JournalResumeError(
                f"rerun diverged from the journal at segment {record.seg} "
                f"op {record.n} ({record.op!r}): journaled payload "
                f"{record.data!r}, reissued {data!r}")
        if record.op == "subscribe_all":
            return [sub["name"] for sub in data["subscriptions"]]
        if record.op in ("subscribe", "move"):
            return data["subscription"]["name"]
        return None

    def _match_publish(self, record: OpRecord, event: Dict[str, Any]) -> Any:
        if not event["id"]:
            if not record.auto:
                raise JournalResumeError(
                    f"rerun diverged at segment {record.seg} op {record.n}: "
                    "the journal recorded an explicitly-named event, the "
                    "rerun published an unnamed one")
            # Adopt the journaled id without touching the live counter: the
            # snapshot restore (plus tail re-execution) already advanced the
            # counter past the whole journaled prefix.
            event = {**event, "id": record.data["event"]["id"]}
        elif record.auto:
            raise JournalResumeError(
                f"rerun diverged at segment {record.seg} op {record.n}: "
                "the journal recorded a facade-assigned event id, the rerun "
                f"published {event['id']!r} explicitly")
        recorded = record.data["event"]
        if dump_record(event) != dump_record(recorded):
            raise JournalResumeError(
                f"rerun diverged at segment {record.seg} op {record.n} "
                f"('publish'): journaled event {recorded!r}, reissued "
                f"{event!r}")
        outcome = self._system.accounting.outcomes.get(event["id"])
        if outcome is None:
            raise JournalResumeError(
                f"journaled publish {event['id']!r} has no accounted "
                "outcome after restore (snapshot and journal disagree)")
        return outcome
