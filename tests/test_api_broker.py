"""The unified Broker protocol: spec, registry, adapters, deprecations.

Covers the `repro.api` package (SystemSpec + backend registry), the
BaselineBroker adapter family, the upfront validation added to the facade
(duplicate subscription names, mismatched attribute spaces), the
`publish_many` accounting equal to `publish`'s, the one copy of each verb,
the typed per-engine option sets, and the removed `batch=` alias (now an
unknown keyword).
"""

from __future__ import annotations

import pytest

from repro.analysis.digests import delivered_digest
from repro.api import (Broker, SystemSpec, UnknownBackendError,
                       backend_metrics_identical, backend_names,
                       create_broker, normalize_backend, register_backend)
from repro.api.options import EngineOptions, NetOptions, ShardedOptions
from repro.baselines import BaselineBroker, FloodingOverlay
from repro.experiments.harness import build_pubsub_system
from repro.pubsub import PubSubSystem
from repro.spatial.filters import Event, make_space, subscription_from_rect
from repro.spatial.rectangle import Rect
from repro.workloads.events import targeted_events
from repro.workloads.subscriptions import uniform_subscriptions
from tests.conftest import random_subscriptions

BASELINE_BACKENDS = ("flooding", "centralized", "per-dimension",
                     "containment-tree")
ALL_BACKENDS = (("drtree:classic", "drtree:batched", "drtree:sharded",
                 "drtree:net")
                + BASELINE_BACKENDS)


#: The ``Broker`` verbs, each written once on :class:`PubSubSystem`.
VERBS = ("subscribe", "subscribe_all", "unsubscribe", "fail",
         "move_subscription", "publish", "publish_many", "stabilize")


def _close(broker) -> None:
    """Release engine resources (a no-op on the baselines, which hold none)."""
    close = getattr(broker, "close", None)
    if close is not None:
        close()


# --------------------------------------------------------------------------- #
# Backend registry and SystemSpec
# --------------------------------------------------------------------------- #


def test_backend_names_cover_both_families():
    names = backend_names()
    assert set(ALL_BACKENDS) == set(names)
    assert names[0] == "drtree:classic"  # drtree engines lead the listing


@pytest.mark.parametrize("alias,canonical", [
    ("drtree", "drtree:classic"),
    ("DRTree:Batched", "drtree:batched"),
    ("drtree:NET", "drtree:net"),
    ("per_dimension", "per-dimension"),
    ("containment_tree", "containment-tree"),
    ("flooding", "flooding"),
])
def test_normalize_backend_aliases(alias, canonical):
    assert normalize_backend(alias) == canonical


def test_normalize_backend_rejects_unknown_names():
    with pytest.raises(UnknownBackendError, match="available"):
        normalize_backend("gossip")
    with pytest.raises(UnknownBackendError, match="engine"):
        normalize_backend("drtree:quantum")


def test_register_backend_rejects_duplicates_and_drtree_names():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("flooding", lambda spec: None)
    with pytest.raises(ValueError, match="drtree backends"):
        register_backend("drtree:custom", lambda spec: None)


def test_spec_build_normalizes_backend(space):
    broker = SystemSpec(space, backend="per_dimension").build()
    assert broker.spec.backend == "per-dimension"
    assert broker.backend == "per-dimension"


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_every_backend_satisfies_the_broker_protocol(backend, space):
    broker = create_broker(SystemSpec(space, backend=backend, seed=7))
    try:
        assert isinstance(broker, Broker)
        spec = broker.spec
        assert spec.backend == backend
        assert spec.seed == 7
        assert spec.space.names == space.names
    finally:
        _close(broker)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_every_backend_runs_the_one_copy_of_each_verb(backend, space):
    """Op-log bracket, input checks and event ids live in one body per verb."""
    broker = create_broker(SystemSpec(space, backend=backend, seed=7))
    try:
        for verb in VERBS:
            assert getattr(type(broker), verb) is getattr(PubSubSystem,
                                                          verb), verb
    finally:
        _close(broker)


def test_unknown_engine_is_a_typed_error(space):
    with pytest.raises(UnknownBackendError,
                       match=r"^unknown dissemination engine 'quantum'; "
                             r"registered: \['classic', 'batched', "
                             r"'sharded', 'net'\]$"):
        PubSubSystem(space, engine="quantum")


@pytest.mark.parametrize("backend", ["drtree:classic", "flooding"])
def test_retired_ids_raise_keyerror_on_both_families(backend, space):
    """Both families reject unknown/retired ids upfront (Broker contract)."""
    broker = create_broker(SystemSpec(space, backend=backend, seed=3))
    broker.subscribe_all(random_subscriptions(space, 4, seed=5))
    victim = broker.subscribers()[0]
    broker.fail(victim)
    with pytest.raises(KeyError, match="unknown subscriber"):
        broker.fail(victim)
    with pytest.raises(KeyError, match="unknown subscriber"):
        broker.unsubscribe(victim)
    with pytest.raises(KeyError, match="unknown subscriber"):
        broker.unsubscribe("never-subscribed")


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_build_pubsub_system_accepts_any_backend(backend):
    workload = uniform_subscriptions(10, seed=4)
    broker = build_pubsub_system(workload, seed=4, backend=backend)
    try:
        assert broker.subscribers() == sorted(sub.name for sub in workload)
        events = targeted_events(workload.space, list(workload), 5, seed=9)
        outcomes = broker.publish_many(events)
        assert all(not outcome.false_negatives for outcome in outcomes)
    finally:
        _close(broker)


# --------------------------------------------------------------------------- #
# BaselineBroker facade semantics
# --------------------------------------------------------------------------- #


@pytest.fixture
def flooding_broker(space):
    broker = SystemSpec(space, backend="flooding", seed=1).build()
    broker.subscribe_all(random_subscriptions(space, 8, seed=12))
    return broker


def test_baseline_broker_publish_audits_deliveries(space):
    broker = SystemSpec(space, backend="flooding", seed=1).build()
    broker.subscribe(subscription_from_rect("in", space, Rect((0, 0), (1, 1))))
    broker.subscribe(subscription_from_rect("out", space, Rect((2, 2), (3, 3))))
    outcome = broker.publish(Event({"x": 0.5, "y": 0.5}, event_id="e"))
    assert outcome.received == {"in", "out"}  # flooding reaches everyone
    assert outcome.intended == {"in"}
    assert outcome.false_positives == {"out"}
    assert outcome.false_negatives == set()
    assert outcome.messages >= 1
    summary = broker.summary()
    assert summary["events"] == 1.0
    assert summary["false_positives"] == 1.0


def test_baseline_broker_assigns_event_ids(flooding_broker):
    outcome = flooding_broker.publish(Event({"x": 0.4, "y": 0.4}))
    assert outcome.event_id.startswith("event-")


def test_baseline_broker_publish_into_empty_system_raises(space):
    broker = SystemSpec(space, backend="centralized").build()
    with pytest.raises(RuntimeError, match="empty system"):
        broker.publish(Event({"x": 0.1, "y": 0.2}, event_id="e"))


def test_baseline_broker_unsubscribe_and_fail(flooding_broker):
    first, second, *_ = flooding_broker.subscribers()
    flooding_broker.unsubscribe(first)
    flooding_broker.fail(second)
    assert first not in flooding_broker.subscribers()
    assert second not in flooding_broker.subscribers()
    with pytest.raises(KeyError, match="unknown subscriber"):
        flooding_broker.unsubscribe(first)
    with pytest.raises(KeyError, match="unknown subscriber"):
        flooding_broker.fail("nobody")


def test_baseline_broker_move_subscription(space, flooding_broker):
    walker = flooding_broker.subscribers()[0]
    moved = subscription_from_rect("walker~1", space,
                                   Rect((0.2, 0.2), (0.5, 0.5)))
    new_id = flooding_broker.move_subscription(walker, moved)
    assert new_id == "walker~1"
    assert walker not in flooding_broker.subscribers()
    assert flooding_broker.subscription_of(new_id) is moved


def test_baseline_broker_stabilize_is_a_noop(flooding_broker):
    before = flooding_broker.subscribers()
    assert flooding_broker.stabilize() is None
    assert flooding_broker.subscribers() == before


def test_baseline_broker_clock_counts_operations(space):
    broker = SystemSpec(space, backend="containment-tree").build()
    assert broker.clock() == 0.0
    broker.subscribe(subscription_from_rect("a", space, Rect((0, 0), (1, 1))))
    broker.publish(Event({"x": 0.5, "y": 0.5}, event_id="e"))
    assert broker.clock() == 2.0


# --------------------------------------------------------------------------- #
# Upfront validation: duplicate names (facade + baselines), space checks
# --------------------------------------------------------------------------- #


def test_move_subscription_rejects_duplicate_name_upfront(space):
    """Regression: a duplicate name used to die deep inside the simulator,
    after the old subscriber had already left the overlay."""
    system = PubSubSystem(space, seed=2)
    system.subscribe_all(random_subscriptions(space, 6, seed=8))
    victim, squatter, *_ = system.subscribers()
    before = system.subscribers()
    taken = subscription_from_rect(squatter, space, Rect((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="duplicate subscription name"):
        system.move_subscription(victim, taken)
    # The upfront check fired before the leave: nothing moved.
    assert system.subscribers() == before


def test_move_subscription_rejects_retired_names_too(space):
    """Peer ids are never reused, so even a crashed subscriber's name is
    permanently taken."""
    system = PubSubSystem(space, seed=2)
    system.subscribe_all(random_subscriptions(space, 6, seed=8))
    crashed, mover, *_ = system.subscribers()
    system.fail(crashed)
    reused = subscription_from_rect(crashed, space, Rect((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="never reused"):
        system.move_subscription(mover, reused)


def test_baseline_broker_never_reuses_names(space, flooding_broker):
    """Regression: names retired by unsubscribe/fail/move stay taken, so
    both broker families accept exactly the same op sequences (a trace
    recorded on a baseline replays on the DR-tree and vice versa)."""
    retired = flooding_broker.subscribers()[0]
    flooding_broker.unsubscribe(retired)
    reused = subscription_from_rect(retired, space, Rect((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="never reused"):
        flooding_broker.subscribe(reused)
    with pytest.raises(ValueError, match="never reused"):
        flooding_broker.subscribe_all([reused])
    with pytest.raises(ValueError, match="never reused"):
        flooding_broker.move_subscription(flooding_broker.subscribers()[0],
                                          reused)


def test_subscribe_all_rejects_in_batch_duplicates_before_mutating(space):
    """Regression: a duplicate *within* the batch used to register the first
    copy and then die inside the simulator, leaving an unreplayable trace."""
    dup = subscription_from_rect("dup", space, Rect((0, 0), (1, 1)))
    other = subscription_from_rect("other", space, Rect((0, 0), (1, 1)))
    system = PubSubSystem(space, seed=1)
    with pytest.raises(ValueError, match="within"):
        system.subscribe_all([other, dup, dup])
    assert system.subscribers() == []  # nothing was registered

    broker = SystemSpec(space, backend="flooding").build()
    with pytest.raises(ValueError, match="within"):
        broker.subscribe_all([other, dup, dup])
    assert broker.subscribers() == []


def test_subscribe_rejects_duplicate_name_upfront(space):
    system = PubSubSystem(space, seed=2)
    system.subscribe(subscription_from_rect("a", space, Rect((0, 0), (1, 1))))
    with pytest.raises(ValueError, match="duplicate subscription name"):
        system.subscribe(subscription_from_rect("a", space,
                                                Rect((2, 2), (3, 3))))


def test_baseline_broker_move_rejects_duplicate_name(space, flooding_broker):
    mover, squatter, *_ = flooding_broker.subscribers()
    before = flooding_broker.subscribers()
    taken = subscription_from_rect(squatter, space, Rect((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="duplicate subscription name"):
        flooding_broker.move_subscription(mover, taken)
    assert flooding_broker.subscribers() == before


@pytest.mark.parametrize("backend", BASELINE_BACKENDS)
def test_baseline_overlays_reject_mismatched_spaces(backend, space):
    """Regression: baselines used to accept foreign-space filters silently;
    now they raise exactly the facade's error."""
    broker = SystemSpec(space, backend=backend).build()
    foreign = subscription_from_rect(
        "f", make_space("foo", "bar"), Rect((0, 0), (1, 1)))
    with pytest.raises(
            ValueError,
            match="subscription attribute space does not match the system's"):
        broker.subscribe(foreign)


def test_bare_overlay_adopts_first_space_then_checks():
    overlay = FloodingOverlay(degree=2, seed=0)
    xy = make_space("x", "y")
    overlay.add_subscriber(
        subscription_from_rect("a", xy, Rect((0, 0), (1, 1))))
    assert overlay.space.names == ("x", "y")
    with pytest.raises(ValueError, match="attribute space"):
        overlay.add_subscriber(subscription_from_rect(
            "b", make_space("p", "q"), Rect((0, 0), (1, 1))))


# --------------------------------------------------------------------------- #
# publish_many: the same message accounting as publish
# --------------------------------------------------------------------------- #


def test_publish_many_message_accounting_matches_per_publish_path():
    workload = uniform_subscriptions(14, seed=6)
    events = targeted_events(workload.space, list(workload), 8, seed=21)

    one_by_one = PubSubSystem(workload.space, seed=6)
    one_by_one.subscribe_all(workload)
    for event in events:
        one_by_one.publish(event)

    many = PubSubSystem(workload.space, seed=6)
    many.subscribe_all(workload)
    many.publish_many(events)

    per_event = {eid: o.messages for eid, o in one_by_one.accounting.outcomes.items()}
    batched = {eid: o.messages for eid, o in many.accounting.outcomes.items()}
    assert per_event == batched
    assert one_by_one.summary() == many.summary()


# --------------------------------------------------------------------------- #
# The removed batch= alias (an unknown keyword)
# --------------------------------------------------------------------------- #


def test_batch_alias_is_a_hard_error(space):
    with pytest.raises(TypeError, match="batch"):
        PubSubSystem(space, batch=True)
    with pytest.raises(TypeError, match="batch"):
        PubSubSystem(space, batch=False)


def test_build_pubsub_system_batch_alias_is_a_hard_error():
    workload = uniform_subscriptions(6, seed=1)
    with pytest.raises(TypeError, match="batch"):
        build_pubsub_system(workload, seed=1, batch=True)


# --------------------------------------------------------------------------- #
# Typed engine options
# --------------------------------------------------------------------------- #


def test_engine_options_unknown_key_names_engine_and_allowed_keys(space):
    with pytest.raises(ValueError, match=r"engine 'sharded'.*known:.*shards"):
        SystemSpec(space, backend="drtree:sharded",
                   engine_options={"bogus": 1})


def test_engine_options_invalid_value_is_rejected_at_spec_time(space):
    with pytest.raises(ValueError, match="shards must be at least 1"):
        SystemSpec(space, backend="drtree:sharded",
                   engine_options={"shards": 0})
    with pytest.raises(ValueError, match="unknown shard transport"):
        SystemSpec(space, backend="drtree:sharded",
                   engine_options={"transport": "postal"})


def test_engine_without_options_rejects_any_mapping(space):
    with pytest.raises(ValueError, match=r"engine 'classic'.*known: \[\]"):
        SystemSpec(space, backend="drtree:classic",
                   engine_options={"shards": 2})


def test_baseline_backend_rejects_engine_options(space):
    with pytest.raises(ValueError, match="takes no engine options"):
        SystemSpec(space, backend="flooding", engine_options={"shards": 2})
    with pytest.raises(ValueError, match="takes no engine options"):
        SystemSpec(space, backend="flooding", engine_options=NetOptions())


def test_with_backend_revalidates_engine_options(space):
    spec = SystemSpec(space, backend="drtree:sharded",
                      engine_options={"shards": 2})
    with pytest.raises(ValueError, match="engine options"):
        spec.with_backend("drtree:classic")


_TYPED_OPTIONS = (
    ("drtree:classic", EngineOptions(), {}),
    ("drtree:batched", EngineOptions(), {}),
    ("drtree:sharded", ShardedOptions(shards=3, transport="inline"),
     {"shards": 3, "transport": "inline"}),
    ("drtree:net", NetOptions(stabilizer="off"), {"stabilizer": "off"}),
)


@pytest.mark.parametrize("backend, typed, mapping", _TYPED_OPTIONS,
                         ids=[row[0] for row in _TYPED_OPTIONS])
def test_typed_engine_options_build_like_the_equal_mapping(backend, typed,
                                                           mapping):
    """The instance validation returns builds, and the broker it builds
    records and delivers exactly what the equal mapping's broker does."""
    workload = uniform_subscriptions(24, seed=4)
    subscriptions = list(workload)
    events = targeted_events(workload.space, subscriptions, 6, seed=5)
    seen = []
    for options in (typed, mapping):
        spec = SystemSpec(workload.space, backend=backend, seed=4)
        broker = spec.with_engine_options(options).build()
        try:
            broker.subscribe_all(subscriptions)
            received = [sorted(outcome.received)
                        for outcome in broker.publish_many(events)]
            summary = (broker.summary()
                       if backend_metrics_identical(backend) else None)
            seen.append((broker.spec, received, delivered_digest(broker),
                         summary))
        finally:
            _close(broker)
    assert seen[0] == seen[1]


# --------------------------------------------------------------------------- #
# Adapter classes stay reachable directly
# --------------------------------------------------------------------------- #


def test_baseline_broker_direct_construction(space):
    spec = SystemSpec(space, backend="flooding", seed=3)
    broker = BaselineBroker(spec, FloodingOverlay(degree=3, seed=3))
    assert broker.overlay.space.names == space.names
    assert isinstance(broker, Broker)
