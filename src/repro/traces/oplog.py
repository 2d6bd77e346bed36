"""The broker-side op log: one observer hook, one resume gate.

Every broker owns one :class:`OpLog`.  Each facade operation is bracketed
with it once, in :class:`~repro.pubsub.api.PubSubSystem`, whose verbs
:class:`~repro.baselines.broker.BaselineBroker` inherits::

    handled = self.oplog.replayed("crash", subscriber_id, stabilize)
    if handled is not EXECUTE:
        return handled              # a resumed run re-issued a journaled op
    ...validate...
    issued = self.oplog.now()
    ...execute...
    self.oplog.record("crash", issued, subscriber_id, stabilize)

Ops are recorded only after they succeed (with their issue-time timestamp),
so a call that raises never leaves a phantom record for replay to trip over.
The observers are the recorders of the enclosing
:func:`~repro.traces.recorder.recording` and
:func:`~repro.journal.recorder.journaling` contexts — none, one or both;
each is handed the same :class:`~repro.traces.format.OpRecord` payload,
built once by :func:`~repro.traces.format.op_payload`.  Outside any context
the log holds no observer and builds nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.traces.format import OpRecord, op_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.broker import Broker
    from repro.journal.gate import ReplayGate

#: Returned by :meth:`OpLog.replayed` when the call was *not* intercepted and
#: the facade must execute the operation for real.  Distinct from ``None``,
#: which is the legitimate skipped-call result of several operations.
EXECUTE = object()


class OpLog:
    """The observers and the optional resume gate of one broker."""

    def __init__(self, broker: "Broker") -> None:
        self._broker = broker
        #: ``(recorder, segment index the recorder knows this broker by)``.
        self._observers: List[Tuple[Any, int]] = []
        #: Installed by a resume-mode journal (see :mod:`repro.journal.gate`).
        self.gate: Optional["ReplayGate"] = None

    def attach(self) -> None:
        """Register the broker with every active recording context.

        Called by the broker once ``broker.oplog`` is in place: a
        resume-mode journal re-executes journaled ops through the facade
        while its ``attach()`` runs — before this log observes anything, so
        the restored prefix is not journaled twice.
        """
        from repro.journal.recorder import active_journal
        from repro.traces.recorder import active_recorder

        for recorder in (active_recorder(), active_journal()):
            if recorder is not None:
                self._observers.append(
                    (recorder, recorder.attach(self._broker)))

    def detach(self) -> None:
        """Stop observing; called when a recording context exits."""
        self._observers = []
        self.gate = None

    def replayed(self, op: str, *args: Any) -> Any:
        """The original result of a journaled op being re-issued, or EXECUTE.

        Checked *before* the facade validates: a skipped op has already
        happened on the restored state, so validating would trip e.g. the
        duplicate-name check against its own prior effect.
        """
        gate = self.gate
        if gate is None or not gate.active:
            return EXECUTE
        return gate.match(OpRecord(seg=gate.seg, op=op,
                                   data=op_payload(op, *args)))

    def now(self) -> float:
        """The op *issue* time: the broker's logical clock, if observed."""
        return float(self._broker.clock()) if self._observers else 0.0

    def record(self, op: str, issued: float, *args: Any,
               auto: bool = False) -> None:
        """Hand the succeeded operation ``op(*args)`` to every observer.

        ``auto`` marks a publish whose event id the facade assigned (only
        the journal envelope carries it).
        """
        if not self._observers:
            return
        data = op_payload(op, *args)
        for recorder, seg in self._observers:
            recorder.observe(OpRecord(seg=seg, op=op, data=data, t=issued,
                                      auto=auto))
