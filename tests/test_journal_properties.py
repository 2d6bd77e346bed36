"""Property tests for the journal: round-trip, tamper, truncation, recovery.

The adversary model is randomized rather than hand-picked:

* any op sequence the writer journals must read back strictly verified and
  structurally identical (round-trip);
* any single content edit anywhere in the file must raise on open (tamper);
* any byte-level truncation must either be tolerated as a torn final write
  (keeping the exact intact prefix) or reported as corruption — never
  silently misread (truncated tail);
* a journaled run truncated after *any* op count must resume to metrics
  identical to an uninterrupted run, re-executing exactly the post-snapshot
  tail (recovery).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.journal import (JournalCorruptError, JournalFormatError,
                           JournalWriter, read_journal, resume_journal,
                           verify_journal)
from repro.journal.records import JournalHeader, op_to_json, system_to_json
from repro.runtime.runner import run_one
from repro.traces.format import OpRecord, SystemRecord
from repro.traces.replay import dump_metrics

# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #

_NAMES = st.text(alphabet="abcdefghijklmnop-0123456789", min_size=1,
                 max_size=8)


@st.composite
def op_payloads(draw):
    """One (op name, trace-shaped payload) pair the journal can carry."""
    kind = draw(st.sampled_from(
        ["unsubscribe", "crash", "stabilize", "publish"]))
    if kind == "unsubscribe":
        return kind, {"id": draw(_NAMES)}
    if kind == "crash":
        return kind, {"id": draw(_NAMES), "stabilize": draw(st.booleans())}
    if kind == "stabilize":
        return kind, {"max_rounds": draw(st.one_of(st.none(),
                                                   st.integers(0, 5)))}
    attributes = draw(st.dictionaries(st.sampled_from(["x", "y"]),
                                      st.integers(-100, 100),
                                      min_size=1, max_size=2))
    return kind, {"event": {"id": draw(_NAMES), "attributes": attributes},
                  "publisher": draw(_NAMES)}


def write_journal(directory: str, ops) -> Path:
    """A minimal but complete journal: header, one system, the given ops."""
    path = Path(directory) / "prop.journal"
    with JournalWriter(path) as writer:
        writer.append(JournalHeader(snapshot_every=0).to_json())
        writer.append(system_to_json(SystemRecord(
            seg=0, space=("x", "y"), backend="drtree:classic", seed=0,
            stabilize_rounds=8)))
        for index, (kind, data) in enumerate(ops):
            writer.append(op_to_json(OpRecord(seg=0, n=index, op=kind,
                                              data=data, t=float(index))))
    return path


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #


@settings(max_examples=12, deadline=None)
@given(ops=st.lists(op_payloads(), min_size=0, max_size=12))
def test_journal_round_trips_any_op_sequence(ops):
    with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
        path = write_journal(tmp, ops)
        journal = verify_journal(path)  # strict: chain + canonical bytes
        assert not journal.sealed and not journal.torn_tail
        assert journal.next_seq == len(ops) + 2
        assert journal.valid_bytes == path.stat().st_size
        assert [(op.op, op.data) for op in journal.ops] == [
            (kind, data) for kind, data in ops]
        assert [op.n for op in journal.ops] == list(range(len(ops)))


@settings(max_examples=12, deadline=None)
@given(ops=st.lists(op_payloads(), min_size=1, max_size=8),
       choice=st.data())
def test_any_content_edit_is_detected(ops, choice):
    """Editing any record — first, middle or last — breaks the chain.

    The edit keeps the line valid, canonical JSON, so the torn-tail
    exemption never applies: the hash check alone must catch it.
    """
    with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
        path = write_journal(tmp, ops)
        lines = path.read_text(encoding="utf-8").splitlines()
        target = choice.draw(st.integers(0, len(lines) - 1), label="line")
        raw = json.loads(lines[target])
        raw["t"] = float(raw.get("t", 0)) + 1.0
        lines[target] = json.dumps(raw, sort_keys=True,
                                   separators=(",", ":"))
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        with pytest.raises(JournalCorruptError):
            read_journal(path)


@settings(max_examples=12, deadline=None)
@given(ops=st.lists(op_payloads(), min_size=1, max_size=8),
       choice=st.data())
def test_any_byte_flip_is_detected_or_confined_to_the_tail(ops, choice):
    """Flip one byte anywhere: strict verification always fails, and the
    tolerant reader either raises or drops exactly the damaged final line."""
    with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
        path = write_journal(tmp, ops)
        data = bytearray(path.read_bytes())
        positions = [i for i, byte in enumerate(data) if byte != 0x0A]
        where = choice.draw(st.sampled_from(positions), label="byte")
        data[where] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises((JournalCorruptError, JournalFormatError)):
            verify_journal(path)
        total = len(ops) + 2
        try:
            journal = read_journal(path)
        except (JournalCorruptError, JournalFormatError):
            return
        # Tolerated only as a torn *final* line: one record lost, no more.
        assert journal.torn_tail
        assert journal.next_seq == total - 1


@settings(max_examples=12, deadline=None)
@given(ops=st.lists(op_payloads(), min_size=1, max_size=8),
       choice=st.data())
def test_truncation_keeps_exactly_the_intact_prefix(ops, choice):
    """Cut the file at any byte: the tolerant reader recovers precisely the
    records whose bytes are complete, flagging a torn tail iff partial
    bytes remain; strict verification accepts only clean-boundary cuts."""
    with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
        path = write_journal(tmp, ops)
        data = path.read_bytes()
        ends = []  # end offset (incl. newline) of each line
        offset = 0
        for chunk in data.split(b"\n"):
            if chunk:
                ends.append(offset + len(chunk) + 1)
            offset += len(chunk) + 1
        cut = choice.draw(st.integers(ends[0] - 1, len(data) - 1),
                          label="cut")
        path.write_bytes(data[:cut])

        # A line survives when its content is complete (its trailing
        # newline may be the byte the crash ate).
        complete = sum(1 for end in ends if end <= cut + 1)
        torn = cut > (ends[complete - 1] if complete else 0)
        journal = read_journal(path)
        assert journal.next_seq == complete
        assert journal.torn_tail == torn
        assert len(journal.ops) == max(0, complete - 2)
        assert [op.n for op in journal.ops] == list(range(max(0, complete - 2)))
        if torn:
            with pytest.raises(JournalCorruptError):
                verify_journal(path)
        else:
            verify_journal(path)


# --------------------------------------------------------------------------- #
# Recovery property: crash after any op count, resume byte-identically
# --------------------------------------------------------------------------- #

_PARAMS = {"peers": 16, "events": 8, "seed": 11, "backend": "drtree:classic"}
_TOTAL_OPS = 1 + _PARAMS["events"]
_SNAPSHOT_EVERY = 3
_CACHE = {}


def _journaled_hotspot():
    """Journal one small hotspot run (unsealed); cache bytes + reference."""
    if not _CACHE:
        from repro.journal import journaling

        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = Path(tmp) / "run.journal"
            with journaling(path, scenario="hotspot", params=dict(_PARAMS),
                            snapshot_every=_SNAPSHOT_EVERY):
                outcome = run_one("hotspot", dict(_PARAMS))
                assert outcome.ok, outcome.error
            _CACHE["journal"] = path.read_bytes()
        _CACHE["reference"] = dump_metrics(outcome.scenario, outcome.rows)
    return _CACHE["journal"], _CACHE["reference"]


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(keep_ops=st.integers(1, _TOTAL_OPS))
def test_resume_recovers_from_a_crash_after_any_op(keep_ops):
    full, reference = _journaled_hotspot()
    with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
        path = Path(tmp) / "crashed.journal"
        kept, ops = [], 0
        for line in full.decode("utf-8").splitlines():
            kept.append(line)
            if json.loads(line)["rec"] == "op":
                ops += 1
                if ops == keep_ops:
                    break
        path.write_text("".join(line + "\n" for line in kept),
                        encoding="utf-8")

        surviving = read_journal(path)
        snapshot = surviving.snapshot_for(0)
        expected_tail = keep_ops - (snapshot.ops if snapshot else 0)
        outcome, report = resume_journal(path)
        assert outcome.ok, outcome.error
        assert dump_metrics(outcome.scenario, outcome.rows) == reference
        assert report.segments[0].journaled == keep_ops
        assert report.segments[0].reexecuted == expected_tail
        assert verify_journal(path).sealed
