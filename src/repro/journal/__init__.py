"""Durable hash-chained op journal with snapshot/resume crash recovery.

The trace subsystem (:mod:`repro.traces`) answers "re-run this finished
experiment bit-identically"; this package answers "the run *died* — pick it
up where it stopped".  A journal is a write-ahead log of every facade
operation, flushed durably as it happens, with each record carrying its
position in a SHA-256 hash chain (tampering, reordering and mid-file
truncation are detected on open) and periodic full broker snapshots so
recovery replays only a short tail.

Typical shapes::

    # capture (CLI: repro run hotspot --journal run.log)
    with journaling("run.log", scenario="hotspot", params=bound) as rec:
        outcome = run_one("hotspot", bound)
        if outcome.ok:
            rec.seal()

    # recover after a crash (CLI: repro resume run.log)
    outcome, report = resume_journal("run.log")

    # audit / interop (CLI: repro journal verify|export|bisect)
    verify_journal("run.log")
    trace = journal_to_trace(read_journal("run.log"))
    result = bisect_journal(read_journal("run.log"),
                            "drtree:classic", "drtree:sharded")

See ``docs/journal.md`` for the format reference and the recovery model.
"""

from repro.journal.convert import (BisectDivergence, BisectResult,
                                   bisect_journal, journal_to_trace)
from repro.journal.errors import (JournalCorruptError, JournalError,
                                  JournalFormatError, JournalResumeError)
from repro.journal.io import Journal, JournalWriter, read_journal, verify_journal
from repro.journal.records import (JOURNAL_FORMAT, JOURNAL_VERSION,
                                   JournalHeader, JournalSnapshot)
from repro.journal.recorder import (DEFAULT_SNAPSHOT_EVERY, JournalRecorder,
                                    active_journal, journaling)
from repro.journal.resume import ResumeReport, SegmentResume, resume_journal

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "DEFAULT_SNAPSHOT_EVERY",
    "Journal",
    "JournalWriter",
    "JournalHeader",
    "JournalSnapshot",
    "JournalError",
    "JournalFormatError",
    "JournalCorruptError",
    "JournalResumeError",
    "JournalRecorder",
    "journaling",
    "active_journal",
    "read_journal",
    "verify_journal",
    "resume_journal",
    "ResumeReport",
    "SegmentResume",
    "journal_to_trace",
    "bisect_journal",
    "BisectResult",
    "BisectDivergence",
]
