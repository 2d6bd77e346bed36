"""Deterministic network-condition injection (``repro.sim.conditions``).

Covers the spec forms (mapping / compact string / round-trip), the pure
per-link decision pipeline (hypothesis: same seed + same spec ⇒
byte-identical decisions; transparent spec ⇒ no frame altered; partition
windows never shift neighbouring RNG draws), and the conditioned
``drtree:net`` backend end to end — the join retry timer actually firing
under ``drop_first``, blackout joins failing with a typed timeout,
duplicate dedup and delayed frames preserving the delivered digest, and
the ``net-lossy`` scenario's acceptance row.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import digests
from repro.api import SystemSpec
from repro.net import (ConditionPipeline, ConditionSpecError, NetConditions,
                       NetTimeoutError, PartitionWindow)
from repro.runtime.registry import load_scenarios
from repro.sim import conditions
from repro.sim.conditions import LATENCY_MODELS, LOSS_MODELS
from repro.sim.rng import RandomStreams
from repro.workloads.events import targeted_events
from repro.workloads.subscriptions import uniform_subscriptions
from tests.conftest import random_subscriptions

#: Engine options shared by the conditioned integration tests: background
#: stabilizers off (every repair below is driven or retry-timer based) and
#: a fast clock so the join retry timer (2x stabilization period) fires in
#: ~0.1 real seconds instead of ~0.4.
FAST = {"stabilizer": "off", "time_scale": 0.005}


# --------------------------------------------------------------------------- #
# Spec forms: mapping, compact string, round-trip, rejection
# --------------------------------------------------------------------------- #


def test_compact_string_round_trips_through_mapping():
    spec = NetConditions.parse(
        "loss=0.05,latency=uniform:0.5:2,reorder=0.01:2,duplicate=0.01,"
        "drop_first=1,partition=10:25:2")
    assert spec.loss == 0.05
    assert spec.latency == "uniform"
    assert spec.delay_low == 0.5 and spec.delay_high == 2.0
    assert spec.reorder == 0.01 and spec.reorder_window == 2.0
    assert spec.partitions[0].start == 10.0
    assert NetConditions.from_mapping(spec.to_mapping()) == spec


def test_gilbert_and_latency_string_forms():
    spec = NetConditions.parse("gilbert=0.05:0.4:0.9,latency=lognormal:0:0.5")
    assert spec.loss_model == "gilbert"
    assert (spec.gilbert_p, spec.gilbert_r, spec.gilbert_loss) == \
        (0.05, 0.4, 0.9)
    assert spec.latency == "lognormal" and spec.delay_sigma == 0.5
    assert NetConditions.parse("latency=fixed:1").delay == 1.0


def test_coerce_accepts_every_form_and_none():
    assert NetConditions.coerce(None) is None
    spec = NetConditions(loss=0.1)
    assert NetConditions.coerce(spec) is spec
    assert NetConditions.coerce("loss=0.1") == spec
    assert NetConditions.coerce({"loss": 0.1}) == spec
    with pytest.raises(ConditionSpecError, match="mapping"):
        NetConditions.coerce(3.14)


@pytest.mark.parametrize("bad", [
    {"bogus": 1},
    {"loss": 1.5},
    {"loss_model": "weibull"},
    {"latency": "gaussian"},
    {"latency": "uniform", "delay_low": 2.0, "delay_high": 1.0},
    {"delay": -1.0},
    {"reorder_window": 0.0},
    {"drop_first": -1},
])
def test_malformed_mappings_raise_condition_spec_error(bad):
    with pytest.raises(ConditionSpecError):
        NetConditions.from_mapping(bad)


@pytest.mark.parametrize("bad", [
    "loss", "loss=much", "latency=uniform:0.5", "blorp=1", "partition=5"])
def test_malformed_strings_raise_condition_spec_error(bad):
    with pytest.raises(ConditionSpecError):
        NetConditions.parse(bad)


def test_condition_spec_error_is_a_value_error():
    """Engine-option validation reports it through the ValueError path.
    Both clocks raise the one class: ``repro.net`` re-exports it."""
    assert ConditionSpecError is conditions.ConditionSpecError
    assert issubclass(ConditionSpecError, ValueError)


def test_conditions_validated_at_spec_time(space):
    with pytest.raises(ValueError, match="condition"):
        SystemSpec(space, backend="drtree:net",
                   engine_options={"conditions": {"bogus": 1}})
    with pytest.raises(ValueError, match="loss"):
        SystemSpec(space, backend="drtree:net",
                   engine_options={"conditions": "loss=2"})


def test_transparency_flag():
    assert NetConditions().is_transparent
    assert NetConditions(loss=0.0, latency="none").is_transparent
    assert not NetConditions(loss=0.01).is_transparent
    assert not NetConditions(drop_first=1).is_transparent
    assert not NetConditions(
        partitions=(PartitionWindow(0, 5),)).is_transparent


# --------------------------------------------------------------------------- #
# The pure pipeline: hypothesis properties
# --------------------------------------------------------------------------- #


_probability = st.floats(min_value=0.0, max_value=1.0)

_specs = st.builds(
    NetConditions,
    loss=_probability,
    loss_model=st.sampled_from(LOSS_MODELS),
    gilbert_p=_probability,
    gilbert_r=_probability,
    gilbert_loss=_probability,
    latency=st.sampled_from(LATENCY_MODELS),
    delay=st.floats(min_value=0.0, max_value=2.0),
    delay_low=st.floats(min_value=0.0, max_value=1.0),
    delay_high=st.floats(min_value=1.0, max_value=2.0),
    delay_mu=st.floats(min_value=-1.0, max_value=1.0),
    delay_sigma=st.floats(min_value=0.0, max_value=1.0),
    reorder=_probability,
    duplicate=_probability,
    drop_first=st.integers(min_value=0, max_value=3),
)

_frames = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.sampled_from(["a", "b", "c"]),
              st.floats(min_value=0.0, max_value=50.0)),
    min_size=1, max_size=40)


@given(spec=_specs, seed=st.integers(min_value=0, max_value=2**16),
       frames=_frames)
@settings(max_examples=25, deadline=None)
def test_same_seed_and_spec_give_identical_decisions(spec, seed, frames):
    """The determinism contract: decisions are a pure function of
    (seed, spec, link frame sequence, submission times)."""
    first = ConditionPipeline(spec, RandomStreams(seed))
    second = ConditionPipeline(spec, RandomStreams(seed))
    assert [d.key() for d in first.decide_sequence(frames)] == \
        [d.key() for d in second.decide_sequence(frames)]


@given(seed=st.integers(min_value=0, max_value=2**16), frames=_frames)
@settings(max_examples=25, deadline=None)
def test_transparent_spec_never_alters_a_frame(seed, frames):
    pipeline = ConditionPipeline(NetConditions(), RandomStreams(seed))
    for decision in pipeline.decide_sequence(frames):
        assert decision.key() == (None, 0.0, 1, False)


@given(seed=st.integers(min_value=0, max_value=2**16),
       times=st.lists(st.floats(min_value=0.0, max_value=30.0),
                      min_size=1, max_size=40))
@settings(max_examples=25, deadline=None)
def test_partition_windows_never_shift_neighbouring_draws(seed, times):
    """Draw-order discipline: adding a partition changes only the frames
    inside the window — every other decision stays byte-identical."""
    lossy = NetConditions(loss=0.3, latency="uniform",
                          delay_low=0.1, delay_high=1.0, duplicate=0.2)
    cut = NetConditions.from_mapping({
        **lossy.to_mapping(),
        "partitions": [{"start": 10.0, "duration": 10.0,
                        "sets": [["a"], ["b"]]}]})
    frames = [("a", "b", now) for now in times]
    plain = ConditionPipeline(lossy, RandomStreams(seed)) \
        .decide_sequence(frames)
    walled = ConditionPipeline(cut, RandomStreams(seed)) \
        .decide_sequence(frames)
    for now, base, gated in zip(times, plain, walled):
        if 10.0 <= now < 20.0:
            assert gated.drop == "partitioned"
        else:
            assert gated.key() == base.key()


def test_partition_sets_and_hash_groups():
    window = PartitionWindow(start=0.0, duration=10.0,
                             sets=(("a",), ("b",)))
    pipeline = ConditionPipeline(
        NetConditions(partitions=(window,)), RandomStreams(0))
    assert pipeline.decide("a", "b", 5.0).drop == "partitioned"
    assert pipeline.decide("a", "b", 15.0).drop is None   # window closed
    assert pipeline.decide("a", "c", 5.0).drop is None    # c outside sets
    # Hash-group form: some pair lands on opposite sides of the cut.
    hashed = PartitionWindow(start=0.0, duration=10.0, groups=2)
    peers = [f"S{i}" for i in range(8)]
    assert any(hashed.separates(a, b) for a in peers for b in peers)
    assert not any(hashed.separates(p, p) for p in peers)


def test_gilbert_chain_extremes_are_deterministic():
    always_bad = NetConditions(loss_model="gilbert", gilbert_p=1.0,
                               gilbert_r=0.0, gilbert_loss=1.0)
    pipeline = ConditionPipeline(always_bad, RandomStreams(1))
    frames = [("a", "b", float(i)) for i in range(10)]
    assert all(d.drop == "lost" for d in pipeline.decide_sequence(frames))
    never_bad = NetConditions(loss_model="gilbert", gilbert_p=0.0)
    assert never_bad.is_transparent
    pipeline = ConditionPipeline(never_bad, RandomStreams(1))
    assert all(d.drop is None for d in pipeline.decide_sequence(frames))


def test_drop_first_eats_exactly_the_link_prefix():
    pipeline = ConditionPipeline(NetConditions(drop_first=2),
                                 RandomStreams(0))
    verdicts = [pipeline.decide("a", "b", 0.0).drop for _ in range(4)]
    assert verdicts == ["drop_first", "drop_first", None, None]
    # Each link counts its own prefix.
    assert pipeline.decide("b", "a", 0.0).drop == "drop_first"


# --------------------------------------------------------------------------- #
# Conditioned drtree:net, end to end
# --------------------------------------------------------------------------- #


def _delivered(engine_options):
    """Build/publish one small population under the given net options."""
    workload = uniform_subscriptions(12, seed=4)
    subscriptions = list(workload)
    events = targeted_events(workload.space, subscriptions, 4, seed=7)
    broker = SystemSpec(space=workload.space, seed=4, backend="drtree:net",
                        engine_options=engine_options).build()
    try:
        broker.subscribe_all(subscriptions)
        broker.publish_many(events)
        return digests.delivered_digest(broker), broker.summary()
    finally:
        broker.close()


def test_loss_zero_pipeline_is_byte_transparent():
    """Satellite: a loss=0 conditioned run is frame-for-frame identical to
    a condition-free run — full delivered digest, not just matching sets."""
    clean, _ = _delivered(dict(FAST))
    conditioned, summary = _delivered({**FAST, "conditions": {"loss": 0.0}})
    assert conditioned == clean
    assert summary["net_frames_lost"] == 0
    assert summary["net_frames_delayed"] == 0


def test_duplicates_and_delays_preserve_the_delivered_digest():
    """Settle stays sound when frames are doubled and delayed: the dedup
    guard drops redundant copies and delayed frames hold the ledger."""
    clean, _ = _delivered(dict(FAST))
    noisy, summary = _delivered(
        {**FAST, "conditions": {"duplicate": 1.0,
                                "latency": "fixed", "delay": 0.5}})
    assert noisy == clean
    assert summary["net_duplicates_dropped"] > 0
    assert summary["net_frames_delayed"] > 0


def test_join_retry_timer_fires_and_recovers(space):
    """Satellite: ``drop_first=1`` eats every link's first frame — which is
    each joiner's JOIN — so the retry timer is *guaranteed* to fire and the
    build must still converge to a legal overlay (this path was dead code
    at loss 0)."""
    broker = SystemSpec(
        space, backend="drtree:net", seed=6,
        engine_options={**FAST, "conditions": {"drop_first": 1}}).build()
    try:
        broker.subscribe_all(random_subscriptions(space, 12, seed=6))
        metrics = broker.simulation.metrics
        assert metrics.counter("join.retries") >= 1
        assert metrics.counter("net.conditions.drop_first") > 0
        assert broker.simulation.verify().is_legal
        assert broker.summary()["net_frames_lost"] > 0
    finally:
        broker.close()


def test_blackout_join_times_out_with_typed_fault(space):
    """Total loss exhausts the retry budget: a typed NetTimeoutError, not a
    hang (the settle loop's deadline is the idle_timeout)."""
    broker = SystemSpec(
        space, backend="drtree:net", seed=6,
        engine_options={**FAST, "idle_timeout": 1.0,
                        "conditions": {"loss": 1.0}}).build()
    try:
        subscriptions = random_subscriptions(space, 2, seed=6)
        broker.subscribe(subscriptions[0])      # the root: no frames needed
        with pytest.raises(NetTimeoutError, match="retry budget"):
            broker.subscribe(subscriptions[1])  # its JOIN never arrives
    finally:
        broker.close()


def test_set_conditions_installs_replaces_and_removes(space):
    broker = SystemSpec(space, backend="drtree:net", seed=2,
                        engine_options=FAST).build()
    try:
        sim = broker.simulation
        assert sim.conditions is None
        sim.set_conditions("loss=0.5")
        assert sim.conditions.loss == 0.5
        sim.set_conditions({"drop_first": 1})
        assert sim.conditions.drop_first == 1 and sim.conditions.loss == 0.0
        sim.set_conditions(None)
        assert sim.conditions is None
        broker.subscribe_all(random_subscriptions(space, 6, seed=2))
        assert sim.verify().is_legal
    finally:
        broker.close()


def test_net_lossy_scenario_meets_acceptance():
    """The acceptance row: at 5% loss the background stabilizers restore a
    legal overlay with zero probe false negatives, and the loss=0 row's
    matching digest equals the condition-free reference."""
    result = load_scenarios().get("net-lossy").run(
        peers=24, events=3, crash_fraction=0.1, losses="0,0.05",
        partition="", timeout=30.0, seed=3)
    rows = {row["condition"]: row for row in result.rows}
    zero, lossy = rows["loss=0"], rows["loss=0.05"]
    assert zero["digest_match"] is True and zero["missed"] == 0
    assert lossy["converged"] and lossy["legal"]
    assert lossy["probe_missed"] == 0 and lossy["missed"] == 0
    assert lossy["frames_lost"] > 0


def test_net_lossy_laggard_note_reads_the_missed_column():
    """A zero deadline forces a laggard row; its warning says the driven
    fixpoint recovered every delivery only when the row missed none."""
    result = load_scenarios().get("net-lossy").run(
        peers=24, events=3, crash_fraction=0.1, losses="0.2",
        partition="", timeout=0.0, seed=3)
    (row,) = result.rows
    assert row["converged"] is False
    (note,) = [note for note in result.notes
               if "convergence deadline" in note]
    assert note.startswith("WARNING: loss=0.2 missed the 0s")
    assert ("still recovered every delivery" in note) == (row["missed"] == 0)


def test_net_lossy_laggard_note_names_the_lost_deliveries():
    from repro.experiments.exp_net_lossy import _laggard_note

    rows = [{"condition": "loss=0", "converged": True, "missed": 0},
            {"condition": "loss=0.2", "converged": False, "missed": 1}]
    assert _laggard_note(rows[:1], 60.0) is None
    note = _laggard_note(rows, 60.0)
    assert note.startswith("WARNING: loss=0.2 missed the 60s")
    assert "still recovered every delivery" not in note
    assert note.endswith("did not recover every matching delivery: "
                         "loss=0.2 missed 1)")
    rows[1]["missed"] = 0
    assert _laggard_note(rows, 60.0).endswith(
        "still recovered every delivery)")
