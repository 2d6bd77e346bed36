"""Durable journal I/O: the fsync-batched writer and the verifying reader.

The writer appends one canonical JSON line per record and flushes the OS
page cache after every line — that is what makes a journal survive a
``SIGKILL`` of the writing process.  ``fsync`` (which additionally survives
power loss) is batched: every ``fsync_every`` records, plus always on
snapshot, final and close records and on writer close.

The reader walks the hash chain front to back.  Its torn-tail policy:

* tolerant (``strict=False``, what ``repro resume`` uses): a **final** line
  that fails to parse as JSON is treated as a torn write and dropped —
  ``Journal.valid_bytes`` marks where the intact prefix ends so a resumed
  writer can truncate and continue the chain.  Everything else that fails
  to verify is corruption.
* strict (``verify_journal`` / ``repro journal verify``): a torn tail is
  also an error, and every line's bytes must equal the canonical re-dump
  of its record (so even cosmetic edits — reordered keys, added
  whitespace — are reported).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.journal.errors import (JournalCorruptError, JournalFormatError)
from repro.journal.records import (GENESIS_HASH, JOURNAL, JournalHeader,
                                   JournalSnapshot, chain_hash, parse_final,
                                   parse_journal_header, parse_snapshot,
                                   seal_record)
from repro.traces.format import OpRecord, SystemRecord, parse_op, parse_system
from repro.traces.io import UnwritableNumber, dump_record, load_record

#: Record kinds whose durability matters enough to always fsync.
_SYNC_KINDS = frozenset({"snapshot", "final", "close"})


class JournalWriter:
    """Append-only, hash-chained record writer.

    Use as a context manager, or call :meth:`close` explicitly.  ``append``
    takes a *payload* record (no chain fields) and seals it into the chain.
    """

    def __init__(self, path: Union[str, Path], fsync_every: int = 32,
                 _resume_from: Optional[Tuple[int, str, int]] = None) -> None:
        self.path = Path(path)
        if fsync_every < 1:
            raise ValueError("fsync_every must be at least 1")
        self.fsync_every = int(fsync_every)
        self._since_sync = 0
        self._closed = False
        if _resume_from is None:
            self._seq = 0
            self._prev = GENESIS_HASH
            self._file = open(self.path, "xb")
        else:
            next_seq, prev_hash, valid_bytes = _resume_from
            self._seq = next_seq
            self._prev = prev_hash
            self._file = open(self.path, "r+b")
            self._file.truncate(valid_bytes)
            self._file.seek(valid_bytes)

    @classmethod
    def resume(cls, journal: "Journal",
               fsync_every: int = 32) -> "JournalWriter":
        """Continue the chain of an unsealed ``journal`` in place.

        Any torn tail bytes past ``journal.valid_bytes`` are truncated away.
        """
        if journal.sealed:
            raise JournalFormatError(
                f"journal {journal.path} is sealed (the run completed); "
                f"there is nothing to resume")
        return cls(journal.path, fsync_every=fsync_every,
                   _resume_from=(journal.next_seq, journal.last_hash,
                                 journal.valid_bytes))

    @property
    def records_written(self) -> int:
        return self._seq

    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Seal ``record`` into the chain and write it durably."""
        if self._closed:
            raise ValueError("journal writer is closed")
        sealed = seal_record(record, self._seq, self._prev)
        self._file.write(dump_record(sealed).encode("utf-8") + b"\n")
        # flush() pushes the line into the page cache: it now survives the
        # death of this process, which is the crash mode recovery targets.
        self._file.flush()
        self._seq += 1
        self._prev = sealed["hash"]
        self._since_sync += 1
        if (self._since_sync >= self.fsync_every
                or sealed.get("rec") in _SYNC_KINDS):
            self.sync()
        return sealed

    def sync(self) -> None:
        """Force the journal to stable storage (survives power loss)."""
        if not self._closed:
            os.fsync(self._file.fileno())
            self._since_sync = 0

    def close(self) -> None:
        if not self._closed:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._closed = True

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class Journal:
    """A verified journal: typed views over the intact record chain."""

    path: Path
    header: JournalHeader
    systems: List[SystemRecord] = field(default_factory=list)
    ops: List[OpRecord] = field(default_factory=list)
    snapshots: List[JournalSnapshot] = field(default_factory=list)
    finals: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    sealed: bool = False
    #: Byte length of the intact chain prefix (file may be longer when a
    #: torn tail was dropped by the tolerant reader).
    valid_bytes: int = 0
    #: Number of intact records, i.e. the next record's ``seq``.
    next_seq: int = 0
    #: Hash of the last intact record (``prev`` of the next one).
    last_hash: str = GENESIS_HASH
    #: True when the tolerant reader dropped a torn final line.
    torn_tail: bool = False

    def ops_for(self, seg: int) -> List[OpRecord]:
        return [op for op in self.ops if op.seg == seg]

    def snapshot_for(self, seg: int) -> Optional[JournalSnapshot]:
        """The latest snapshot of ``seg``, or None."""
        latest: Optional[JournalSnapshot] = None
        for snapshot in self.snapshots:
            if snapshot.seg == seg:
                latest = snapshot
        return latest


def _verify_chain_fields(raw: Dict[str, Any], index: int, line: int,
                         prev: str) -> str:
    """Check one record's chain fields; returns its hash."""
    for key in ("seq", "prev", "hash"):
        if key not in raw:
            raise JournalCorruptError(f"record is missing chain field "
                                      f"{key!r}", line=line)
    if raw["seq"] != index:
        raise JournalCorruptError(
            f"sequence break: expected seq {index}, found {raw['seq']!r} "
            f"(records dropped or reordered)", line=line)
    if raw["prev"] != prev:
        raise JournalCorruptError(
            f"hash chain broken: prev does not match the preceding "
            f"record's hash", line=line)
    if raw["hash"] != chain_hash(raw):
        raise JournalCorruptError(
            "record hash does not match its contents (tampered record)",
            line=line)
    return raw["hash"]


def read_journal(path: Union[str, Path], strict: bool = False) -> Journal:
    """Open, chain-verify and structurally parse the journal at ``path``.

    See the module docstring for the tolerant-vs-strict torn-tail policy.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise JournalFormatError(f"cannot read journal file {path}: "
                                 f"{exc}") from exc
    if not data.strip():
        raise JournalFormatError(f"journal file {path} is empty")

    # Split keeping byte offsets so a resumed writer can truncate torn tails.
    lines: List[Tuple[int, bytes, int]] = []  # (line number, bytes, end offset)
    offset = 0
    for number, chunk in enumerate(data.split(b"\n"), start=1):
        end = offset + len(chunk) + 1  # +1 for the newline
        if chunk.strip():
            lines.append((number, chunk, min(end, len(data))))
        offset = end

    journal: Optional[Journal] = None
    prev = GENESIS_HASH
    ops_in_seg: Dict[int, int] = {}
    for index, (number, chunk, end) in enumerate(lines):
        try:
            # A number the writer cannot have dumped is damage; rejecting
            # it here keeps it out of the hash check, whose canonical
            # re-dump would fail on it untyped.
            raw = load_record(chunk.decode("utf-8"))
            if not isinstance(raw, dict):
                raise JournalFormatError(
                    f"each line must be a JSON object, "
                    f"got {type(raw).__name__}", line=number)
        except UnwritableNumber as exc:
            raise JournalCorruptError(
                f"record holds a {exc}, which no journal writer emits",
                line=number) from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            last = index == len(lines) - 1
            if last and not strict and index > 0:
                # Torn final write: drop it, keep the intact prefix.
                assert journal is not None
                journal.torn_tail = True
                return journal
            raise JournalCorruptError(
                f"record is not valid JSON ({exc}); "
                + ("a torn final line would be tolerated outside strict "
                   "mode" if last else "mid-file damage cannot be a torn "
                   "write"), line=number) from exc

        prev = _verify_chain_fields(raw, index, number, prev)
        if strict and dump_record(raw).encode("utf-8") != chunk:
            raise JournalCorruptError(
                "record bytes are not in canonical form (file was edited)",
                line=number)

        kind = raw.get("rec")
        if index == 0:
            header = parse_journal_header(raw, line=number)
            journal = Journal(path=path, header=header)
        else:
            assert journal is not None
            if journal.sealed:
                raise JournalFormatError(
                    f"record after the close record (journal already "
                    f"sealed)", line=number)
            if kind == "system":
                system = parse_system(raw, number, JOURNAL)
                if system.seg != len(journal.systems):
                    raise JournalFormatError(
                        f"system record for segment {system.seg} out of "
                        f"order (expected {len(journal.systems)})",
                        line=number)
                journal.systems.append(system)
                ops_in_seg[system.seg] = 0
            elif kind == "op":
                op = parse_op(raw, number, JOURNAL)
                if op.seg not in ops_in_seg:
                    raise JournalFormatError(
                        f"op for segment {op.seg} precedes its system "
                        f"record", line=number)
                if op.n != ops_in_seg[op.seg]:
                    raise JournalFormatError(
                        f"op index break in segment {op.seg}: expected "
                        f"n {ops_in_seg[op.seg]}, found {op.n}", line=number)
                ops_in_seg[op.seg] += 1
                journal.ops.append(op)
            elif kind == "snapshot":
                snapshot = parse_snapshot(raw, line=number)
                if snapshot.seg not in ops_in_seg:
                    raise JournalFormatError(
                        f"snapshot for segment {snapshot.seg} precedes its "
                        f"system record", line=number)
                if snapshot.ops != ops_in_seg[snapshot.seg]:
                    raise JournalFormatError(
                        f"snapshot claims {snapshot.ops} ops but segment "
                        f"{snapshot.seg} has journaled "
                        f"{ops_in_seg[snapshot.seg]}", line=number)
                journal.snapshots.append(snapshot)
            elif kind == "final":
                seg, row = parse_final(raw, line=number)
                if seg not in ops_in_seg:
                    raise JournalFormatError(
                        f"final row for unknown segment {seg}", line=number)
                journal.finals[seg] = row
            elif kind == "close":
                journal.sealed = True
            elif kind == "header":
                raise JournalFormatError("duplicate header record",
                                         line=number)
            else:
                raise JournalFormatError(f"unknown record kind {kind!r}",
                                         line=number)
        journal.valid_bytes = end
        journal.next_seq = index + 1
        journal.last_hash = prev

    assert journal is not None
    if strict and journal.valid_bytes < len(data):
        raise JournalCorruptError(
            "journal has trailing bytes past the last record")
    return journal


def verify_journal(path: Union[str, Path]) -> Journal:
    """Strict verification: full chain + canonical bytes + no torn tail."""
    return read_journal(path, strict=True)
