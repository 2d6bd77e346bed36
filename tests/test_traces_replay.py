"""Recorder + replay engine: bit-identity, tamper detection, engine override."""

from __future__ import annotations

import pytest

from repro.pubsub.api import PubSubSystem
from repro.spatial.filters import subscription_from_rect
from repro.spatial.rectangle import Rect
from repro.traces import (ExpectRecord, TraceReplayError, active_recorder,
                          delivery_metrics_row, dump_metrics, dumps_trace,
                          execute_trace, loads_trace, recording, replay_trace,
                          write_trace)
from repro.workloads.events import targeted_events
from repro.workloads.subscriptions import uniform_subscriptions


def _drive_small_run():
    """A run exercising every recordable op; returns (trace, live row)."""
    workload = uniform_subscriptions(18, seed=3)
    with recording(scenario="unit") as recorder:
        system = PubSubSystem(workload.space, seed=3)
        system.subscribe_all(workload)
        system.subscribe(subscription_from_rect(
            "late", workload.space, Rect((0.6, 0.6), (0.8, 0.8))))
        events = targeted_events(workload.space, list(workload), 8, seed=11)
        system.publish_many(events[:4])
        subscribers = system.subscribers()
        system.fail(subscribers[0])
        system.unsubscribe(subscribers[1])
        system.move_subscription(
            subscribers[2],
            subscription_from_rect("mover~1", workload.space,
                                   Rect((0.1, 0.1), (0.4, 0.4))))
        system.stabilize()
        system.publish_many(events[4:])
        row = delivery_metrics_row(system, 0)
    return recorder.build(), row


@pytest.fixture(scope="module")
def recorded():
    return _drive_small_run()


def test_recording_is_passive(recorded):
    """The same run without a recorder produces the same metrics row."""
    workload = uniform_subscriptions(18, seed=3)
    system = PubSubSystem(workload.space, seed=3)
    system.subscribe_all(workload)
    system.subscribe(subscription_from_rect(
        "late", workload.space, Rect((0.6, 0.6), (0.8, 0.8))))
    events = targeted_events(workload.space, list(workload), 8, seed=11)
    system.publish_many(events[:4])
    subscribers = system.subscribers()
    system.fail(subscribers[0])
    system.unsubscribe(subscribers[1])
    system.move_subscription(
        subscribers[2],
        subscription_from_rect("mover~1", workload.space,
                               Rect((0.1, 0.1), (0.4, 0.4))))
    system.stabilize()
    system.publish_many(events[4:])
    assert delivery_metrics_row(system, 0) == recorded[1]


def test_replay_reproduces_recorded_metrics(recorded):
    trace, row = recorded
    result = execute_trace(trace)
    assert result.rows == [row]
    assert any("reproduced exactly" in note for note in result.notes)


def test_replay_is_engine_independent(recorded):
    trace, row = recorded
    classic = execute_trace(trace, backend="drtree:classic")
    batched = execute_trace(trace, backend="drtree:batched")
    assert classic.rows == batched.rows == [row]
    assert (dump_metrics("unit", classic.rows)
            == dump_metrics("unit", batched.rows))


def test_replay_survives_serialization(recorded, tmp_path):
    trace, row = recorded
    path = write_trace(tmp_path / "run.jsonl", trace)
    assert replay_trace(path).rows == [row]
    assert replay_trace(path, backend="drtree:batched").rows == [row]


def test_replay_backend_override_is_the_engine_override(recorded):
    trace, row = recorded
    assert execute_trace(trace, backend="drtree:batched").rows == [row]
    with pytest.raises(TypeError):  # the engine= alias is gone, not ignored
        execute_trace(trace, engine="classic")
    with pytest.raises(Exception, match="unknown backend"):
        execute_trace(trace, backend="gossip")


def test_replay_on_a_foreign_family_skips_expect_verification(recorded):
    """Replaying a DR-tree trace on a baseline backend runs the workload
    there; different delivery accuracy is expected, so the bit-identity
    check is skipped (and noted) instead of failing."""
    trace, row = recorded
    result = execute_trace(trace, backend="flooding")  # verify=True
    (replayed,) = result.rows
    assert replayed["subscribers"] == row["subscribers"]
    assert replayed["events"] == row["events"]
    assert any("verification skipped" in note for note in result.notes)


def test_recorded_trace_carries_the_backend(recorded):
    trace, _ = recorded
    assert trace.header.backend == "drtree:classic"
    assert trace.systems()[0].backend == "drtree:classic"


def test_legacy_batch_flag_is_true_exactly_for_drtree_batched():
    """Every registered backend writes the v1 ``batch`` boolean, true only
    for ``drtree:batched``, and a v1 record (boolean, no backend) parses
    back to the backend it names."""
    from repro.api import backend_names
    from repro.traces.format import SystemRecord, parse_system

    for backend in backend_names():
        raw = SystemRecord(seg=0, space=("x",), seed=0, stabilize_rounds=30,
                           backend=backend).to_json()
        assert raw["batch"] is (backend == "drtree:batched"), backend
        del raw["backend"]
        legacy = parse_system(raw, line=2).backend
        assert legacy == ("drtree:batched" if raw["batch"]
                          else "drtree:classic"), backend


def test_baseline_broker_runs_record_and_replay_too(tmp_path):
    """The recorder and replay engine treat both broker families alike."""
    from repro.api import SystemSpec

    workload = uniform_subscriptions(10, seed=4)
    events = targeted_events(workload.space, list(workload), 5, seed=9)
    with recording(scenario="baseline-unit") as recorder:
        broker = SystemSpec(workload.space, backend="flooding", seed=4).build()
        broker.subscribe_all(workload)
        broker.publish_many(events)
        row = delivery_metrics_row(broker, 0)
    trace = recorder.build()
    assert trace.header.backend == "flooding"
    assert trace.systems()[0].backend == "flooding"
    result = execute_trace(trace)  # rebuilds the BaselineBroker and verifies
    assert result.rows == [row]
    path = write_trace(tmp_path / "flood.jsonl", trace)
    assert replay_trace(path).rows == [row]


def test_expect_records_cover_every_segment(recorded):
    trace, row = recorded
    assert [expect.seg for expect in trace.expects] == [0]
    assert trace.expects[0].row == row


def test_tampered_expectation_is_detected(recorded):
    trace, _ = recorded
    tampered = loads_trace(dumps_trace(trace))
    row = dict(tampered.expects[0].row)
    row["true_deliveries"] = row["true_deliveries"] + 1.0
    tampered.expects[0] = ExpectRecord(seg=0, row=row)
    with pytest.raises(TraceReplayError) as excinfo:
        execute_trace(tampered)
    assert "true_deliveries" in str(excinfo.value)
    # verify=False skips the check and still replays.
    assert execute_trace(tampered, verify=False).rows


def test_replay_of_unknown_subscriber_is_typed(recorded):
    trace, _ = recorded
    broken = loads_trace(dumps_trace(trace))
    crash = next(op for op in broken.ops() if op.op == "crash")
    index = broken.body.index(crash)
    broken.body[index] = type(crash)(seg=crash.seg, t=crash.t, op="crash",
                                     data={"id": "ghost", "stabilize": True})
    with pytest.raises(TraceReplayError) as excinfo:
        execute_trace(broken, verify=False)
    assert "ghost" in str(excinfo.value)


def test_unknown_engine_rejected(recorded):
    with pytest.raises(ValueError):
        execute_trace(recorded[0], backend="drtree:warp")


def test_multi_system_runs_record_one_segment_each():
    with recording() as recorder:
        for seed in (1, 2):
            workload = uniform_subscriptions(10, seed=seed)
            system = PubSubSystem(workload.space, seed=seed)
            system.subscribe_all(workload)
            system.publish_many(
                targeted_events(workload.space, list(workload), 3,
                                seed=seed + 5))
    trace = recorder.build()
    assert len(trace.systems()) == 2
    result = execute_trace(trace)
    assert [row["segment"] for row in result.rows] == [0, 1]
    assert len(trace.expects) == 2


def test_nested_recording_contexts_are_rejected():
    with recording():
        assert active_recorder() is not None
        with pytest.raises(RuntimeError):
            with recording():
                pass  # pragma: no cover - never reached
    assert active_recorder() is None


def test_tape_detaches_when_the_recording_context_exits():
    workload = uniform_subscriptions(10, seed=1)
    with recording() as recorder:
        system = PubSubSystem(workload.space, seed=1)
        system.subscribe_all(workload)
    ops_at_exit = len(recorder.build().ops())
    # Post-context facade ops must not leak into the closed recorder.
    system.publish_many(
        targeted_events(workload.space, list(workload), 2, seed=9))
    assert len(recorder.build().ops()) == ops_at_exit
    # ...and a closed recorder refuses new systems.
    with pytest.raises(RuntimeError):
        recorder.attach(system)


def test_recorder_clears_even_on_error():
    with pytest.raises(RuntimeError):
        with recording():
            raise RuntimeError("scenario blew up")
    assert active_recorder() is None


def test_bad_recorded_config_is_a_format_error():
    from repro.traces import SystemRecord, Trace, TraceFormatError, TraceHeader

    trace = Trace(header=TraceHeader())
    trace.body.append(SystemRecord(
        seg=0, space=("x", "y"), seed=0, batch=False, stabilize_rounds=30,
        config={"min_children": 9, "max_children": 4}))  # M < 2m is illegal
    with pytest.raises(TraceFormatError) as excinfo:
        execute_trace(trace)
    assert "bad DR-tree config" in str(excinfo.value)


def test_op_without_system_record_is_a_replay_error():
    from repro.traces import OpRecord, Trace, TraceHeader

    trace = Trace(header=TraceHeader())
    trace.body.append(OpRecord(seg=0, op="unsubscribe", data={"id": "S0"}))
    with pytest.raises(TraceReplayError):
        execute_trace(trace)


def test_trace_without_expectations_replays_without_verification():
    trace, row = _drive_small_run()
    trace.expects = []
    result = execute_trace(trace)  # verify=True with nothing to verify
    assert result.rows == [row]
    assert not any("reproduced exactly" in note for note in result.notes)


def test_failed_facade_calls_are_not_taped():
    workload = uniform_subscriptions(6, seed=0)
    with recording() as recorder:
        system = PubSubSystem(workload.space, seed=0)
        system.subscribe_all(workload)
        ops_before = len(recorder.build().ops())
        with pytest.raises(ValueError):
            system.subscribe(list(workload)[0])  # duplicate subscriber id
        with pytest.raises(KeyError):
            system.move_subscription(
                "ghost",
                subscription_from_rect("g2", workload.space,
                                       Rect((0.0, 0.0), (0.1, 0.1))))
        trace = recorder.build()
    assert len(trace.ops()) == ops_before  # no phantom records
    execute_trace(trace)  # and the trace still replays cleanly


def test_ops_are_taped_with_their_issue_time():
    workload = uniform_subscriptions(6, seed=0)
    with recording() as recorder:
        system = PubSubSystem(workload.space, seed=0)
        system.subscribe_all(workload)
        issued = system.simulation.engine.now
        system.publish_many(
            targeted_events(workload.space, list(workload), 1, seed=2))
    publish = next(op for op in recorder.build().ops() if op.op == "publish")
    assert publish.t == issued  # not the post-dissemination clock


def test_move_requires_known_subscriber():
    workload = uniform_subscriptions(6, seed=0)
    system = PubSubSystem(workload.space, seed=0)
    system.subscribe_all(workload)
    replacement = subscription_from_rect("new", workload.space,
                                         Rect((0.0, 0.0), (0.2, 0.2)))
    with pytest.raises(KeyError):
        system.move_subscription("ghost", replacement)
