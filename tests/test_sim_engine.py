"""Tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationEngine


def test_events_run_in_time_order():
    engine = SimulationEngine()
    order = []
    engine.schedule(5.0, lambda: order.append("late"))
    engine.schedule(1.0, lambda: order.append("early"))
    engine.schedule(3.0, lambda: order.append("middle"))
    engine.run_until_idle()
    assert order == ["early", "middle", "late"]
    assert engine.now == 5.0


def test_same_time_events_are_fifo():
    engine = SimulationEngine()
    order = []
    for index in range(5):
        engine.schedule(1.0, lambda i=index: order.append(i))
    engine.run_until_idle()
    assert order == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    engine = SimulationEngine()
    with pytest.raises(ValueError):
        engine.schedule(-1.0, lambda: None)


def test_schedule_at_absolute_time():
    engine = SimulationEngine()
    seen = []
    engine.schedule_at(4.0, lambda: seen.append(engine.now))
    engine.run_until_idle()
    assert seen == [4.0]
    with pytest.raises(ValueError):
        engine.schedule_at(1.0, lambda: None)


def test_cancelled_events_do_not_run():
    engine = SimulationEngine()
    seen = []
    event = engine.schedule(1.0, lambda: seen.append("cancelled"))
    engine.schedule(2.0, lambda: seen.append("kept"))
    event.cancel()
    engine.run_until_idle()
    assert seen == ["kept"]


def test_callbacks_can_schedule_more_events():
    engine = SimulationEngine()
    seen = []

    def first():
        seen.append("first")
        engine.schedule(1.0, lambda: seen.append("second"))

    engine.schedule(1.0, first)
    engine.run_until_idle()
    assert seen == ["first", "second"]
    assert engine.now == 2.0


def test_run_until_horizon_stops_before_future_events():
    engine = SimulationEngine()
    seen = []
    engine.schedule(1.0, lambda: seen.append(1))
    engine.schedule(10.0, lambda: seen.append(10))
    engine.run(until=5.0)
    assert seen == [1]
    assert engine.now == 5.0
    assert engine.pending() == 1
    engine.run()
    assert seen == [1, 10]


def test_run_max_events():
    engine = SimulationEngine()
    seen = []
    for index in range(10):
        engine.schedule(index, lambda i=index: seen.append(i))
    processed = engine.run(max_events=4)
    assert processed == 4
    assert seen == [0, 1, 2, 3]


def test_run_until_idle_detects_runaway():
    engine = SimulationEngine()

    def perpetual():
        engine.schedule(1.0, perpetual)

    engine.schedule(1.0, perpetual)
    with pytest.raises(RuntimeError):
        engine.run_until_idle(max_events=100)


def test_step_returns_false_when_empty():
    engine = SimulationEngine()
    assert engine.step() is False
    engine.schedule(1.0, lambda: None)
    assert engine.step() is True
    assert engine.step() is False


def test_pending_and_has_pending():
    engine = SimulationEngine()
    assert not engine.has_pending()
    event = engine.schedule(1.0, lambda: None)
    assert engine.has_pending()
    assert engine.pending() == 1
    event.cancel()
    assert engine.pending() == 0
    assert not engine.has_pending()


def test_events_processed_counter():
    engine = SimulationEngine()
    for _ in range(7):
        engine.schedule(1.0, lambda: None)
    engine.run_until_idle()
    assert engine.events_processed == 7


# --------------------------------------------------------------------- #
# Entries standing for many deliveries (rounds and fan-outs)
# --------------------------------------------------------------------- #


def test_schedule_batch_counts_deliveries():
    engine = SimulationEngine()
    ran = []
    engine.schedule(1.0, lambda: ran.append("batch"), count=5)
    assert engine.pending() == 5
    assert engine.has_pending()
    processed = engine.run()
    assert processed == 5
    assert ran == ["batch"]
    assert engine.events_processed == 5
    assert engine.batches_processed == 1
    assert engine.pending() == 0


def test_batch_and_heap_events_merge_in_schedule_order():
    engine = SimulationEngine()
    order = []
    engine.schedule(1.0, lambda: order.append("event-1"))
    engine.schedule(1.0, lambda: order.append("batch"), count=2)
    engine.schedule(1.0, lambda: order.append("event-2"))
    engine.schedule(0.5, lambda: order.append("earlier"))
    engine.run_until_idle()
    assert order == ["earlier", "event-1", "batch", "event-2"]


def test_batches_at_distinct_times_run_in_time_order():
    engine = SimulationEngine()
    order = []
    engine.schedule(2.0, lambda: order.append("late"))
    engine.schedule(1.0, lambda: order.append("early"))
    engine.run_until_idle()
    assert order == ["early", "late"]
    assert engine.now == 2.0


def test_batch_callbacks_can_schedule_more_batches():
    engine = SimulationEngine()
    times = []

    def cascade():
        times.append(engine.now)
        if len(times) < 3:
            engine.schedule(1.0, cascade, count=2)

    engine.schedule(1.0, cascade, count=2)
    engine.run_until_idle()
    assert times == [1.0, 2.0, 3.0]


def test_grow_batch_extends_pending_and_accounting():
    engine = SimulationEngine()
    ran = []
    entry = engine.schedule(1.0, lambda: ran.append("round"), count=2)
    engine.grow_batch(entry, 3)
    assert engine.pending() == 5
    assert engine.run() == 5
    assert engine.events_processed == 5
    with pytest.raises(ValueError):
        engine.grow_batch(entry, -1)


def test_schedule_batch_validation():
    engine = SimulationEngine()
    with pytest.raises(ValueError):
        engine.schedule(-1.0, lambda: None)
    with pytest.raises(ValueError):
        engine.schedule(1.0, lambda: None, count=0)


def test_run_until_idle_with_batches_reaches_idle():
    engine = SimulationEngine()
    seen = []
    engine.schedule(1.0, lambda: seen.append("event"))
    engine.schedule(2.0, lambda: seen.append("batch"), count=3)
    assert engine.run_until_idle() == 4
    assert seen == ["event", "batch"]


def test_run_until_idle_truncation_warns_and_raises(caplog):
    from repro.sim.engine import SimulationStalledError

    engine = SimulationEngine()

    def perpetual():
        engine.schedule(1.0, perpetual)

    engine.schedule(1.0, perpetual)
    with caplog.at_level("WARNING", logger="repro.sim.engine"):
        with pytest.raises(SimulationStalledError):
            engine.run_until_idle(max_events=50)
    assert any("truncated" in record.message for record in caplog.records)


def test_stalled_error_is_a_runtime_error():
    from repro.sim.engine import SimulationStalledError

    assert issubclass(SimulationStalledError, RuntimeError)


def test_grow_batch_rejects_executed_entries():
    engine = SimulationEngine()
    entry = engine.schedule(1.0, lambda: None, count=2)
    engine.run_until_idle()
    assert engine.pending() == 0
    with pytest.raises(ValueError):
        engine.grow_batch(entry, 3)
    assert engine.pending() == 0  # accounting unharmed by the rejected call
    cancelled = engine.schedule(1.0, lambda: None, count=2)
    cancelled.cancel()
    with pytest.raises(ValueError):
        engine.grow_batch(cancelled, 3)
    assert engine.pending() == 0


# --------------------------------------------------------------------------- #
# Ordering is (time, sequence) and nothing else — property test
# --------------------------------------------------------------------------- #

_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0])
_ENGINE_OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("schedule_at"), _DELAYS),
    st.tuples(st.just("batch"), _DELAYS, st.integers(1, 3)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("grow"), st.integers(0, 40), st.integers(0, 3)),
    st.tuples(st.just("step")),
), max_size=40)


class _Unorderable:
    """A callback that raises if the heap ever falls through to comparing it."""

    def __init__(self, ran, key):
        self.ran, self.key = ran, key

    def __call__(self):
        self.ran.append(self.key)

    def __lt__(self, other):
        raise AssertionError("the queue compared two callbacks")

    __gt__ = __le__ = __ge__ = __lt__


@given(_ENGINE_OPS)
@settings(max_examples=300, deadline=None)
def test_interleaved_scheduling_runs_in_time_sequence_order(ops):
    engine = SimulationEngine()
    ran = []
    #: key -> [time, deliveries]; key is the op's sequence number, which is
    #: also the engine's (every entry takes one when it is scheduled).
    live = {}
    handles = {}

    def check_counts():
        assert engine.pending() == sum(count for _, count in live.values())
        assert engine.has_pending() == bool(live)

    def step():
        assert engine.step() == bool(live)
        if live:
            key = min(live, key=lambda k: (live[k][0], k))
            assert ran[-1] == key
            assert engine.now == live.pop(key)[0]

    for op in ops:
        key = len(handles)
        if op[0] in ("schedule", "schedule_at"):
            time = engine.now + op[1]
            handles[key] = (engine.schedule(op[1], _Unorderable(ran, key))
                            if op[0] == "schedule" else
                            engine.schedule_at(time, _Unorderable(ran, key)))
            assert (handles[key].time, handles[key].sequence) == (time, key)
            live[key] = [time, 1]
        elif op[0] == "batch":
            handles[key] = engine.schedule(
                op[1], _Unorderable(ran, key), count=op[2])
            live[key] = [engine.now + op[1], op[2]]
        elif op[0] == "cancel":
            entry = handles.get(op[1])
            if entry is not None:
                entry.cancel()
                live.pop(op[1], None)
        elif op[0] == "grow":
            # Any entry grows while it is queued, a timer's as a round's;
            # one that ran or was cancelled refuses.
            entry = handles.get(op[1])
            if entry is not None:
                if op[1] in live:
                    engine.grow_batch(entry, op[2])
                    live[op[1]][1] += op[2]
                else:
                    with pytest.raises(ValueError):
                        engine.grow_batch(entry, op[2])
        else:
            step()
        check_counts()
    while live:
        step()
        check_counts()
    assert not engine.step()
    assert len(ran) == len(set(ran))
