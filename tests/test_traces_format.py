"""Trace format: hypothesis round-trips and typed schema errors."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.filters import (Predicate, Subscription, make_space,
                                   subscription_from_intervals,
                                   subscription_from_rect)
from repro.spatial.rectangle import Rect
from repro.traces import (TRACE_FORMAT, TRACE_VERSION, OpRecord, SystemRecord,
                          Trace, TraceFormatError, TraceHeader, dumps_trace,
                          loads_trace, read_trace, write_trace)
from repro.traces.format import (event_from_json, event_to_json,
                                 subscription_from_json, subscription_to_json)

SPACE = make_space("x", "y")
GOLDEN_DIR = Path(__file__).parent / "golden"

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

_coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_name = st.text(alphabet="abcdefghij", min_size=1, max_size=8)


@st.composite
def _subscription_json(draw):
    name = draw(_name)
    if draw(st.booleans()):
        low_x, low_y = draw(_coord), draw(_coord)
        return subscription_to_json(subscription_from_rect(
            name, SPACE,
            Rect((low_x, low_y),
                 (min(low_x + draw(_coord), 1.0),
                  min(low_y + draw(_coord), 1.0)))))
    low = draw(_coord)
    return subscription_to_json(subscription_from_intervals(
        name, SPACE, {"x": (low, min(low + draw(_coord), 1.0)),
                      "y": (-math.inf, draw(_coord))}))


@st.composite
def _op(draw, seg):
    kind = draw(st.sampled_from(
        ["subscribe", "subscribe_all", "unsubscribe", "crash", "move",
         "publish", "stabilize"]))
    t = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    if kind == "subscribe":
        data = {"subscription": draw(_subscription_json()),
                "stabilize": draw(st.booleans())}
    elif kind == "subscribe_all":
        data = {"subscriptions": draw(st.lists(_subscription_json(),
                                               max_size=3)),
                "stabilize": draw(st.booleans()),
                "bulk": draw(st.sampled_from([None, True, False]))}
    elif kind == "unsubscribe":
        data = {"id": draw(_name)}
    elif kind == "crash":
        data = {"id": draw(_name), "stabilize": draw(st.booleans())}
    elif kind == "move":
        data = {"id": draw(_name), "subscription": draw(_subscription_json()),
                "stabilize": draw(st.booleans())}
    elif kind == "publish":
        data = {"event": {"id": draw(_name),
                          "attributes": {"x": draw(_coord), "y": draw(_coord)}},
                "publisher": draw(_name)}
    else:
        data = {"max_rounds": draw(st.sampled_from([None, 1, 30]))}
    return OpRecord(seg=seg, t=t, op=kind, data=data)


@st.composite
def traces(draw):
    header = TraceHeader(
        scenario=draw(st.none() | _name),
        params=draw(st.none() | st.dictionaries(
            _name, st.integers(min_value=0, max_value=10_000), max_size=3)),
    )
    trace = Trace(header=header)
    for seg in range(draw(st.integers(min_value=1, max_value=3))):
        trace.body.append(SystemRecord(
            seg=seg,
            t=draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
            space=("x", "y"),
            seed=draw(st.integers(min_value=0, max_value=2**31)),
            batch=draw(st.booleans()),
            stabilize_rounds=draw(st.integers(min_value=1, max_value=60)),
            config={"min_children": 2, "max_children": 4},
        ))
        trace.body.extend(draw(st.lists(_op(seg), max_size=4)))
    return trace


# --------------------------------------------------------------------------- #
# Round-trip properties
# --------------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(traces())
def test_serialize_parse_reserialize_is_identity(trace):
    text = dumps_trace(trace)
    parsed = loads_trace(text)
    assert dumps_trace(parsed) == text
    assert parsed.header == trace.header
    assert parsed.body == trace.body


@settings(max_examples=60, deadline=None)
@given(_subscription_json())
def test_subscription_round_trip(data):
    rebuilt = subscription_from_json(data, SPACE)
    assert isinstance(rebuilt, Subscription)
    assert subscription_to_json(rebuilt) == data


def test_predicate_subscription_survives_round_trip():
    original = Subscription(
        name="alice", space=SPACE,
        predicates=(Predicate("x", ">=", 0.25), Predicate("y", "<", 0.5)))
    rebuilt = subscription_from_json(subscription_to_json(original), SPACE)
    assert rebuilt.predicates == original.predicates
    assert rebuilt.rect == original.rect


def test_unbounded_rect_serializes_as_inf_strings():
    sub = subscription_from_rect(
        "wide", SPACE, Rect((-math.inf, 0.0), (math.inf, 1.0)))
    data = subscription_to_json(sub)
    assert data["rect"]["lower"][0] == "-inf"
    assert data["rect"]["upper"][0] == "inf"
    assert subscription_from_json(data, SPACE).rect == sub.rect


def test_event_round_trip():
    data = {"id": "e1", "attributes": {"x": 0.25, "y": 1.0}}
    assert event_to_json(event_from_json(data)) == data


def test_file_round_trip_is_byte_identical(tmp_path):
    trace = Trace(header=TraceHeader(scenario="demo"))
    trace.body.append(SystemRecord(seg=0, space=("x", "y"), seed=1,
                                   batch=False, stabilize_rounds=30))
    assert len(trace) == 1
    path = write_trace(tmp_path / "t.jsonl", trace)
    text = path.read_text(encoding="utf-8")
    assert dumps_trace(read_trace(path)) == text


def test_blank_lines_are_tolerated():
    trace = Trace(header=TraceHeader(scenario="demo"))
    text = dumps_trace(trace)
    padded = "\n" + text + "\n   \n"
    assert loads_trace(padded).header == trace.header


def test_system_backend_defaults_from_the_legacy_batch_flag():
    """Version-1 traces without a backend field parse to the engine the
    boolean implies, so pre-Broker traces keep replaying."""
    classic = loads_trace(_header_line() + "\n" + _system_line() + "\n")
    assert classic.systems()[0].backend == "drtree:classic"
    batched = loads_trace(
        _header_line() + "\n" + _system_line(batch=True) + "\n")
    assert batched.systems()[0].backend == "drtree:batched"
    assert SystemRecord(seg=0, space=("x",), seed=0, batch=True,
                        stabilize_rounds=1).backend == "drtree:batched"


def test_system_backend_round_trips():
    line = _system_line(backend="flooding")
    trace = loads_trace(_header_line(backend="flooding") + "\n" + line + "\n")
    assert trace.header.backend == "flooding"
    record = trace.systems()[0]
    assert record.backend == "flooding"
    assert record.to_json()["backend"] == "flooding"


# --------------------------------------------------------------------------- #
# Schema violations raise TraceFormatError (never KeyError)
# --------------------------------------------------------------------------- #


def _header_line(**overrides):
    record = {"record": "header", "format": TRACE_FORMAT,
              "version": TRACE_VERSION, "scenario": None, "params": None}
    record.update(overrides)
    return json.dumps(record)


def _system_line(**overrides):
    record = {"record": "system", "seg": 0, "t": 0.0, "space": ["x", "y"],
              "seed": 0, "batch": False, "stabilize_rounds": 30, "config": {}}
    record.update(overrides)
    return json.dumps(record)


@pytest.mark.parametrize("text, fragment", [
    ("", "empty trace"),
    ("not json\n", "invalid JSON"),
    ("[1, 2]\n", "JSON object"),
    (_system_line() + "\n", "first record must be the trace header"),
    (_header_line(format="other") + "\n", "not a repro-trace file"),
    (_header_line(version=99) + "\n", "unsupported trace version"),
    (_header_line(version="1") + "\n", "unsupported trace version"),
    (_header_line(scenario=7) + "\n", "scenario must be a string"),
    (_header_line(params=[1]) + "\n", "params must be an object"),
    (_header_line(backend=7) + "\n", "backend must be a string"),
    (_header_line() + "\n" + _system_line(backend=5) + "\n",
     "backend must be a string"),
    (_header_line() + "\n" + _header_line() + "\n", "duplicate header"),
    (_header_line() + "\n" + _system_line() + "\n" + _system_line() + "\n",
     "duplicate system record"),
    (_header_line() + "\n" + json.dumps({"record": "bogus"}) + "\n",
     "unknown record type"),
    (_header_line() + "\n" + _system_line(space=[]) + "\n", "space"),
    (_header_line() + "\n" + _system_line(seed="zero") + "\n", "seed"),
    (_header_line() + "\n" + _system_line(batch=1) + "\n", "boolean"),
    (_header_line() + "\n"
     + json.dumps({"record": "op", "seg": 0, "t": 0.0, "op": "subscribe",
                   "subscription": {"name": "a", "rect": {"lower": [0, 0],
                                                          "upper": [1, 1]}},
                   "stabilize": True}) + "\n",
     "before its system record"),
    (_header_line() + "\n" + _system_line() + "\n"
     + json.dumps({"record": "op", "seg": 0, "t": 0.0, "op": "teleport"})
     + "\n", "unknown trace op"),
    (_header_line() + "\n" + _system_line() + "\n"
     + json.dumps({"record": "op", "seg": 0, "t": 0.0, "op": "crash"}) + "\n",
     "missing fields"),
    (_header_line() + "\n" + _system_line() + "\n"
     + json.dumps({"record": "expect", "seg": 5, "row": {}}) + "\n",
     "unknown segment"),
    (_header_line() + "\n" + _system_line() + "\n"
     + json.dumps({"record": "expect", "seg": 0}) + "\n", "missing 'row'"),
])
def test_malformed_traces_raise_typed_errors(text, fragment):
    with pytest.raises(TraceFormatError) as excinfo:
        loads_trace(text)
    assert fragment in str(excinfo.value)


def test_error_reports_line_number():
    text = _header_line() + "\n" + json.dumps({"record": "bogus"}) + "\n"
    with pytest.raises(TraceFormatError) as excinfo:
        loads_trace(text)
    assert excinfo.value.line == 2
    assert "line 2" in str(excinfo.value)


def test_error_line_numbers_account_for_blank_lines():
    text = ("\n" + _header_line() + "\n\n\n"
            + json.dumps({"record": "bogus"}) + "\n")
    with pytest.raises(TraceFormatError) as excinfo:
        loads_trace(text)
    assert excinfo.value.line == 5  # the physical line, not the record index


def test_old_version_is_rejected_not_keyerror():
    text = _header_line(version=0) + "\n"
    try:
        loads_trace(text)
    except TraceFormatError:
        pass
    else:  # pragma: no cover - the assertion documents the contract
        pytest.fail("version 0 must be rejected")


@pytest.mark.parametrize("data, fragment", [
    ("nope", "must be an object"),
    ({"rect": {"lower": [0, 0], "upper": [1, 1]}}, "non-empty name"),
    ({"name": "a"}, "'rect' or 'predicates'"),
    ({"name": "a", "rect": {"lower": [0], "upper": [1, 1]}},
     "equal-length"),
    ({"name": "a", "rect": {"lower": [0, "wide"], "upper": [1, 1]}},
     "must be a number"),
    ({"name": "a", "predicates": "x<1"}, "must be a list"),
    ({"name": "a", "predicates": [["x", "<"]]}, "predicate must be"),
    ({"name": "a", "predicates": [["x", "!!", 1.0]]}, "bad predicate"),
])
def test_bad_subscriptions_raise_typed_errors(data, fragment):
    with pytest.raises(TraceFormatError) as excinfo:
        subscription_from_json(data, SPACE)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize("data, fragment", [
    (None, "must be an object"),
    ({"attributes": {}}, "non-empty id"),
    ({"id": "e"}, "attributes object"),
    ({"id": "e", "attributes": {"x": True}}, "must be numeric"),
])
def test_bad_events_raise_typed_errors(data, fragment):
    with pytest.raises(TraceFormatError) as excinfo:
        event_from_json(data)
    assert fragment in str(excinfo.value)


def test_read_trace_missing_file_is_typed(tmp_path):
    with pytest.raises(TraceFormatError) as excinfo:
        read_trace(tmp_path / "absent.jsonl")
    assert "cannot read" in str(excinfo.value)


def test_read_trace_of_non_utf8_bytes_is_typed(tmp_path):
    """Regression: a ``0xff 0xfe`` pair raised ``UnicodeDecodeError``."""
    golden = (GOLDEN_DIR / "hotspot.jsonl").read_bytes()
    middle = golden.index(b"\n", len(golden) // 2) + 1
    mutant = tmp_path / "mutant.jsonl"
    mutant.write_bytes(golden[:middle] + b"\xff\xfe" + golden[middle:])
    with pytest.raises(TraceFormatError, match="not UTF-8"):
        read_trace(mutant)


#: S0's first lower bound in the hotspot golden, the number swapped below.
_S0_LOWER = re.compile(r'(\{"name":"S0","rect":\{"lower":\[)(-?[0-9.eE+-]+)')


@pytest.mark.parametrize("literal", ["NaN", "1e999"])
def test_a_non_finite_number_is_a_typed_trace_error(literal):
    """Regression: ``NaN`` / ``1e999`` in a subscription loaded without error,
    and writing the trace back then raised a bare ``ValueError``."""
    golden = (GOLDEN_DIR / "hotspot.jsonl").read_text(encoding="utf-8")
    mutant, swapped = _S0_LOWER.subn(lambda m: m.group(1) + literal, golden,
                                     count=1)
    assert swapped == 1
    with pytest.raises(TraceFormatError, match="non-finite number") as info:
        loads_trace(mutant)
    assert info.value.line == 3


def test_an_integer_too_long_to_convert_is_a_typed_trace_error():
    golden = (GOLDEN_DIR / "hotspot.jsonl").read_text(encoding="utf-8")
    mutant = _S0_LOWER.sub(lambda m: m.group(1) + "9" * 5000, golden, count=1)
    with pytest.raises(TraceFormatError, match="too long") as info:
        loads_trace(mutant)
    assert info.value.line == 3


def test_an_op_time_beyond_the_float_range_is_a_typed_trace_error():
    """Regression: a 400-digit ``t`` raised a bare ``OverflowError``."""
    golden = (GOLDEN_DIR / "hotspot.jsonl").read_text(encoding="utf-8")
    mutant = re.sub(r'"t":782\.0', '"t":' + "9" * 400, golden, count=1)
    assert mutant != golden
    with pytest.raises(TraceFormatError, match="beyond the float range"):
        loads_trace(mutant)


def test_oprecord_rejects_unknown_op_at_construction():
    with pytest.raises(TraceFormatError):
        OpRecord(seg=0, op="teleport")
