"""The one op model, table-driven: every facade op × broker family × log.

Each of the seven facade operations is issued on a DR-tree and on a
baseline broker while it is trace-recorded, journaled, and both.  The
table spells the canonical ``data`` payload of every op once; the trace op,
the journal op and the record the resume gate accepts must all carry it.
A raising op must leave no record in either log, and ``auto`` (a
facade-assigned event id) exists only in the journal envelope.

The second half feeds ``system`` records that parse but cannot describe a
system to every entry point that builds from them, and requires the format
error of the file being read (CLI exit code 2) — never a bare
``TypeError``/``ValueError``.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from pathlib import Path

import pytest

from repro.api import SystemSpec
from repro.journal import (JournalFormatError, JournalResumeError,
                           JournalWriter, bisect_journal, journal_to_trace,
                           journaling, read_journal, verify_journal)
from repro.journal.gate import ReplayGate
from repro.journal.records import CHAIN_FIELDS
from repro.runtime.cli import main
from repro.spatial.filters import Event, make_space, subscription_from_rect
from repro.spatial.rectangle import Rect
from repro.traces import (TraceFormatError, execute_trace, loads_trace,
                          recording)
from repro.traces.format import OP_FIELDS, OpRecord, op_payload
from repro.traces.io import dump_record

GOLDEN = Path(__file__).parent / "golden"
SPACE = make_space("x", "y")
BACKENDS = ("drtree:classic", "flooding")
MODES = ("trace", "journal", "both")


def sub(name: str, low: float = 0.1, high: float = 0.6):
    return subscription_from_rect(name, SPACE, Rect((low, low), (high, high)))


def sub_json(name: str, low: float = 0.1, high: float = 0.6):
    return {"name": name, "rect": {"lower": [low, low], "upper": [high, high]}}


POPULATION = [sub(f"s{index}", 0.1 * index, 0.1 * index + 0.5)
              for index in range(5)]
EVENT = Event({"x": 0.3, "y": 0.3}, event_id="e-named")

#: op -> (facade method, its arguments in ``OP_FIELDS`` order, the canonical
#: payload, the result, a raising variant issued with the population in
#: place — ``publish`` can only fail on an empty system, so its raising
#: variant runs before the population).
OPS = {
    "subscribe": (
        "subscribe", (sub("late"), False),
        {"subscription": sub_json("late"), "stabilize": False},
        "late",
        lambda b: b.subscribe(sub("s0"))),  # duplicate name
    "subscribe_all": (
        "subscribe_all", ([sub("a"), sub("b", 0.2, 0.4)], True, False),
        {"subscriptions": [sub_json("a"), sub_json("b", 0.2, 0.4)],
         "stabilize": True, "bulk": False},
        ["a", "b"],
        lambda b: b.subscribe_all([sub("dup"), sub("dup")])),
    "unsubscribe": (
        "unsubscribe", ("s1",),
        {"id": "s1"},
        None,
        lambda b: b.unsubscribe("ghost")),
    "crash": (
        "fail", ("s2", True),
        {"id": "s2", "stabilize": True},
        None,
        lambda b: b.fail("ghost")),
    "move": (
        "move_subscription", ("s3", sub("s3~1", 0.2, 0.7), True),
        {"id": "s3", "subscription": sub_json("s3~1", 0.2, 0.7),
         "stabilize": True},
        "s3~1",
        lambda b: b.move_subscription("ghost", sub("fresh"))),
    "publish": (
        "publish", (EVENT, "s0"),
        {"event": {"id": "e-named", "attributes": {"x": 0.3, "y": 0.3}},
         "publisher": "s0"},
        None,  # the outcome, compared on the event id below
        lambda b: b.publish(EVENT)),  # empty system
    "stabilize": (
        "stabilize", (7,),
        {"max_rounds": 7},
        None,  # what a skipped stabilize hands back
        None),  # stabilize has no failing input
}


def issue(broker, op):
    """Issue ``OPS[op]``'s facade call (arguments are positional)."""
    method, args = OPS[op][:2]
    return getattr(broker, method)(*args)


def run_logged(tmp_path, backend, mode, drive):
    """Build a broker inside the contexts ``mode`` names and ``drive`` it.

    Returns ``(broker, trace ops or None, journal ops or None, raw journal
    op records or None)``.
    """
    path = tmp_path / f"{mode}.journal"
    with ExitStack() as stack:
        recorder = (stack.enter_context(recording())
                    if mode in ("trace", "both") else None)
        if mode in ("journal", "both"):
            stack.enter_context(journaling(path, snapshot_every=0))
        broker = SystemSpec(SPACE, backend=backend, seed=2).build()
        drive(broker)
    trace_ops = recorder.build().ops() if recorder is not None else None
    journal_ops = raw_ops = None
    if mode in ("journal", "both"):
        journal_ops = verify_journal(path).ops
        raw_ops = [raw for raw in map(json.loads,
                                      path.read_text("utf-8").splitlines())
                   if raw["rec"] == "op"]
    return broker, trace_ops, journal_ops, raw_ops


def test_the_table_covers_the_op_schema():
    assert set(OPS) == set(OP_FIELDS)
    for op, (_, args, payload, _, _) in OPS.items():
        assert tuple(payload) == OP_FIELDS[op]
        assert len(args) == len(payload)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("op", sorted(OPS))
def test_every_log_carries_the_same_payload(tmp_path, op, backend, mode):
    _, args, payload, result, bad = OPS[op]
    returned = []

    def drive(broker):
        if op == "publish":
            with pytest.raises(RuntimeError):
                bad(broker)
        broker.subscribe_all(POPULATION)
        if bad is not None and op != "publish":
            with pytest.raises((KeyError, ValueError)):
                bad(broker)
        returned.append(issue(broker, op))

    broker, trace_ops, journal_ops, raw_ops = run_logged(
        tmp_path, backend, mode, drive)
    if op == "publish":
        assert returned[0].event_id == "e-named"
    elif op != "stabilize":  # a live DR-tree stabilize returns its report
        assert returned[0] == result

    # The raising variant left no record: population, then the op itself.
    for ops in (trace_ops, journal_ops):
        if ops is not None:
            assert [record.op for record in ops] == ["subscribe_all", op]
            assert dump_record(ops[1].data) == dump_record(payload)
    if mode == "both":
        assert [(t.op, t.data, t.t) for t in trace_ops] == [
            (j.op, j.data, j.t) for j in journal_ops]
    if journal_ops is None:
        return
    assert [record.n for record in journal_ops] == [0, 1]
    assert ("auto" in raw_ops[1]) == (op == "publish")

    # The resume gate accepts exactly this payload and hands back what the
    # original call returned.
    gate = ReplayGate(broker, 0, journal_ops[1:])
    reissued = (trace_ops or journal_ops)[1]
    skipped = gate.match(OpRecord(seg=0, op=op, data=reissued.data))
    assert not gate.active and gate.skipped == 1
    assert skipped is returned[0] if op == "publish" else skipped == result
    assert op_payload(op, *args) == reissued.data


@pytest.mark.parametrize("backend", BACKENDS)
def test_auto_event_ids_are_marked_only_in_the_journal_envelope(tmp_path,
                                                                backend):
    def drive(broker):
        broker.subscribe_all(POPULATION)
        broker.publish(Event({"x": 0.3, "y": 0.3}))           # facade-named
        broker.publish(Event({"x": 0.4, "y": 0.4}, event_id="mine"))

    broker, trace_ops, journal_ops, raw_ops = run_logged(
        tmp_path, backend, "both", drive)
    assert [raw.get("auto") for raw in raw_ops] == [None, True, False]
    assert [op.auto for op in journal_ops] == [False, True, False]
    assert [op.data["event"]["id"] for op in journal_ops[1:]] == [
        "event-0", "mine"]
    assert all("auto" not in op.to_json() and "n" not in op.to_json()
               for op in trace_ops)
    assert [op.data for op in trace_ops] == [op.data for op in journal_ops]

    # Explicit-vs-auto is part of the gate's divergence check, both ways.
    unnamed = {"event": {"id": "", "attributes": {"x": 0.3, "y": 0.3}},
               "publisher": None}
    gate = ReplayGate(broker, 0, journal_ops[1:])
    outcome = gate.match(OpRecord(seg=0, op="publish", data=unnamed))
    assert outcome.event_id == "event-0"  # adopted, counter untouched
    with pytest.raises(JournalResumeError, match="explicitly-named"):
        gate.match(OpRecord(seg=0, op="publish", data=unnamed))
    gate = ReplayGate(broker, 0, journal_ops[1:])
    with pytest.raises(JournalResumeError, match="facade-assigned"):
        gate.match(OpRecord(seg=0, op="publish", data=journal_ops[1].data))


def test_gate_rejects_a_different_op_a_different_payload_and_a_lost_outcome(
        tmp_path):
    def drive(broker):
        broker.subscribe_all(POPULATION)
        broker.publish(EVENT, publisher_id="s0")

    broker, _, journal_ops, _ = run_logged(tmp_path, "drtree:classic",
                                           "journal", drive)
    population, publish = journal_ops
    with pytest.raises(JournalResumeError, match="journal has 'subscribe_all'"):
        ReplayGate(broker, 0, journal_ops).match(publish)
    changed = {**population.data, "stabilize": False}
    with pytest.raises(JournalResumeError, match="journaled payload"):
        ReplayGate(broker, 0, journal_ops).match(
            OpRecord(seg=0, op="subscribe_all", data=changed))
    del broker.accounting.outcomes["e-named"]
    with pytest.raises(JournalResumeError, match="no accounted outcome"):
        ReplayGate(broker, 0, [publish]).match(publish)


def test_unobserved_brokers_build_no_payload(monkeypatch):
    """Outside any recording context the op log must not touch the schema."""
    import repro.traces.oplog as oplog

    def boom(*args):  # pragma: no cover - the assertion is that it never runs
        raise AssertionError("op_payload called on an unobserved broker")

    monkeypatch.setattr(oplog, "op_payload", boom)
    monkeypatch.setattr(oplog, "OpRecord", boom)
    for backend in BACKENDS:
        broker = SystemSpec(SPACE, backend=backend, seed=2).build()
        broker.subscribe_all(POPULATION)
        for op in sorted(OPS):
            issue(broker, op)


# --------------------------------------------------------------------------- #
# A system record that parses but cannot describe a system
# --------------------------------------------------------------------------- #

DEFECTS = {
    "duplicate-attribute": ({"space": ["x", "x"]}, "bad attribute space"),
    "unknown-config-key": ({"config": {"fanout": 9}}, "bad DR-tree config"),
    "unknown-engine-option": ({"engine_options": {"warp": 1}},
                              "bad engine options"),
}


def _damaged_trace(tmp_path, damage) -> Path:
    lines = (GOLDEN / "hotspot.jsonl").read_text("utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    system = next(raw for raw in records if raw["record"] == "system")
    system.update(damage)
    if "engine_options" in damage:
        records[0]["version"] = 2
    path = tmp_path / "damaged.jsonl"
    path.write_text("".join(dump_record(raw) + "\n" for raw in records),
                    "utf-8")
    return path


DROP = object()  # a damage value meaning "remove the field"


def _damaged_journal(tmp_path, damage, kind="system") -> Path:
    """The golden journal with its first ``kind`` record edited, re-chained."""
    lines = (GOLDEN / "hotspot.journal").read_text("utf-8").splitlines()
    path = tmp_path / "damaged.journal"
    pending = dict(damage)
    with JournalWriter(path) as writer:  # re-seal into a valid chain
        for raw in map(json.loads, lines):
            if raw["rec"] == kind and pending:
                raw.update(pending)
                pending = None
            writer.append({key: value for key, value in raw.items()
                           if key not in CHAIN_FIELDS and value is not DROP})
    return path


@pytest.mark.parametrize("kind, damage, fragment", [
    ("header", {"version": 99}, "unsupported journal version 99"),
    ("header", {"format": "repro-trace"}, "not a repro-journal file"),
    ("header", {"scenario": 7}, "header scenario must be a string or null"),
    ("header", {"snapshot_every": "often"}, "'snapshot_every' must be int"),
    ("system", {"backend": DROP}, "system record is missing 'backend'"),
    ("system", {"space": []}, "non-empty list of attribute names"),
    ("system", {"engine_options": [1]}, "engine_options must be an object"),
    ("op", {"op": "teleport"}, "unknown journal op 'teleport'"),
    ("op", {"n": DROP}, "op record is missing 'n'"),
    ("op", {"auto": 1}, "'auto' must be a boolean"),
    ("op", {"stabilize": DROP}, "missing fields ['stabilize']"),
])
def test_shared_parsers_raise_the_journal_error_for_a_journal(tmp_path, kind,
                                                              damage,
                                                              fragment):
    """One parser per record kind, raising the error of the file it reads."""
    path = _damaged_journal(tmp_path, damage, kind)
    with pytest.raises(JournalFormatError) as excinfo:
        read_journal(path)  # the chain is valid; the structure is not
    assert fragment in str(excinfo.value)
    assert excinfo.value.line is not None
    assert main(["journal", "verify", str(path)]) == 2


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("entry", ["run --trace", "journal bisect",
                                   "journal export"])
def test_unbuildable_system_record_is_a_format_error(tmp_path, capsys, entry,
                                                     defect):
    damage, fragment = DEFECTS[defect]
    if entry == "run --trace":
        path = _damaged_trace(tmp_path, damage)
        error = TraceFormatError
        call = lambda: execute_trace(loads_trace(path.read_text("utf-8")))
        argv = ["run", "--trace", str(path)]
    elif entry == "journal bisect":
        path = _damaged_journal(tmp_path, damage)
        verify_journal(path)  # the record parses; it just describes nothing
        error = JournalFormatError
        call = lambda: bisect_journal(read_journal(path), "drtree:classic",
                                      "drtree:classic")
        argv = ["journal", "bisect", str(path), "drtree:classic",
                "drtree:classic"]
    else:
        path = _damaged_journal(tmp_path, damage)
        verify_journal(path)
        error = JournalFormatError
        call = lambda: journal_to_trace(read_journal(path))
        argv = ["journal", "export", str(path), "-o",
                str(tmp_path / "out.jsonl")]
    with pytest.raises(error, match=fragment):
        call()
    assert main(argv) == 2
    assert f"error: segment 0: {fragment}" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()
