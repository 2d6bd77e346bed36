"""Crash recovery: resuming an interrupted journaled run.

:func:`resume_journal` is the whole recovery story in one call: open the
journal tolerantly (a torn final write is truncated away), refuse sealed
journals, look the journaled scenario up in the registry and re-run it
inside a resume-mode :func:`~repro.journal.recorder.journaling` context.
Each broker the scenario rebuilds is restored from the latest journaled
snapshot, driven through the post-snapshot op tail, and gated so the
scenario's re-issued prefix is validated and skipped rather than
re-executed (:mod:`repro.journal.gate`).  The run then *continues* past the
crash point, appending to the same hash chain, and seals the journal on
success.

Because every broker is a deterministic function of (spec, op sequence),
the resumed run's delivery metrics are byte-identical to an uninterrupted
run of the same scenario and seed — the ``crash-recovery`` scenario and the
CI recovery job assert exactly that, on both the classic and the sharded
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Tuple, Union

from repro.journal.errors import JournalResumeError
from repro.journal.io import read_journal
from repro.journal.recorder import SegmentResume, journaling

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runner import ScenarioOutcome


@dataclass(frozen=True)
class ResumeReport:
    """What :func:`resume_journal` recovered, per segment."""

    path: Path
    scenario: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: True when the tolerant reader dropped a torn final line.
    torn_tail: bool = False
    segments: Dict[int, SegmentResume] = field(default_factory=dict)

    @property
    def journaled(self) -> int:
        return sum(seg.journaled for seg in self.segments.values())

    @property
    def reexecuted(self) -> int:
        return sum(seg.reexecuted for seg in self.segments.values())

    def describe(self) -> str:
        """One human line per segment plus the headline totals."""
        lines = [f"resumed {self.scenario} from {self.path}"
                 + (" (torn tail truncated)" if self.torn_tail else "")]
        for seg in sorted(self.segments):
            stats = self.segments[seg]
            lines.append(
                f"  segment {seg}: {stats.journaled} journaled ops, "
                f"snapshot at {stats.snapshot_ops}, "
                f"{stats.reexecuted} re-executed")
        return "\n".join(lines)


def _reraise_journal_errors(error: str) -> None:
    """Surface journal-layer failures swallowed by the scenario runner."""
    head = error.splitlines()[0]
    exc_name = head.split(":", 1)[0].rsplit(".", 1)[-1]
    if exc_name.startswith("Journal"):
        message = head.split(":", 1)[1].strip() if ":" in head else head
        raise JournalResumeError(message)


def resume_journal(path: Union[str, Path], fsync_every: int = 32
                   ) -> Tuple["ScenarioOutcome", ResumeReport]:
    """Resume the interrupted run journaled at ``path``.

    Returns the finished run's :class:`~repro.runtime.runner.ScenarioOutcome`
    (the same rows an uninterrupted run produces) and a
    :class:`ResumeReport` accounting for what was restored versus
    re-executed.  Raises
    :class:`~repro.journal.errors.JournalCorruptError` if the chain does not
    verify and :class:`JournalResumeError` if the journal is sealed,
    names no (replayable) scenario, or the rerun diverges from the journal.
    """
    from repro.runtime.registry import (REGISTRY, UnknownScenarioError,
                                        load_scenarios)
    from repro.runtime.runner import run_one

    journal = read_journal(path)
    if journal.sealed:
        raise JournalResumeError(
            f"journal {path} is sealed: the run completed; nothing to resume")
    header = journal.header
    if not header.scenario:
        raise JournalResumeError(
            "journal header names no scenario; only scenario-driven "
            "journals can be resumed")
    load_scenarios()
    try:
        scenario = REGISTRY.get(header.scenario)
    except UnknownScenarioError as exc:
        raise JournalResumeError(f"cannot resume: {exc}") from exc
    if not scenario.replayable:
        raise JournalResumeError(
            f"scenario {scenario.name!r} is not trace-replayable, so its "
            "journal cannot be resumed")
    params = dict(header.params or {})

    with journaling(resume=journal, fsync_every=fsync_every) as recorder:
        outcome = run_one(scenario.name, params)
        if outcome.ok:
            recorder.seal()
    if not outcome.ok:
        _reraise_journal_errors(outcome.error or "")

    report = ResumeReport(
        path=Path(path),
        scenario=scenario.name,
        params=params,
        torn_tail=journal.torn_tail,
        segments=dict(recorder.segment_stats),
    )
    return outcome, report
