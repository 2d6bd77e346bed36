"""What a peer costs in memory, and how a delivered message finds its handler.

Lemma 3.1 bounds the routing state a peer holds at O(M · log_m N) entries
(``DRTreePeer.state_size``).  What a peer allocates beyond that is this
implementation's overhead: the handler table is one per class, not one per
peer, and the records allocated per level, per child, per message and per
scheduled event are slotted.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.api import SystemSpec
from repro.overlay import messages as msg
from repro.overlay.dissemination import DisseminationMixin
from repro.overlay.peer import DRTreePeer
from repro.overlay.state import ChildInfo, LevelState
from repro.sim.engine import SimulationEngine
from repro.sim.messages import Message
from repro.spatial.rectangle import Rect
from repro.workloads import uniform_subscriptions
from repro.workloads.events import targeted_events

#: Bytes still allocated per peer after a 2 000-peer bulk ``subscribe_all``.
#: With a handler table per peer and ``__dict__``-backed records a peer cost
#: 2 979–3 530 B on Python 3.10–3.12.
BYTES_PER_PEER = 1700

#: Bytes per peer the same build allocates at its peak beyond what stays
#: live: envelopes in flight and the scheduling records of the rounds being
#: built.  With stabilization traffic scheduled one heap entry per message
#: and an envelope free list it read 986–1 020 B on Python 3.10–3.12; with
#: every batched message in a per-round queue and each envelope dropped as
#: it is handled, 681–691 B.
TRANSIENT_BYTES_PER_PEER = 800


@pytest.fixture(scope="module")
def traced_build():
    """A traced 2 000-peer bulk build: (broker, live B/peer, peak B/peer)."""
    population = uniform_subscriptions(2000, seed=1)
    subscriptions = list(population)
    broker = SystemSpec(population.space, backend="drtree:batched",
                        seed=1).build()
    gc.collect()
    tracemalloc.start()
    try:
        broker.subscribe_all(subscriptions)
        gc.collect()
        allocated, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (broker, allocated / len(subscriptions),
            peak / len(subscriptions))


def test_a_bulk_loaded_peer_allocates_at_most_its_budget(traced_build):
    broker, per_peer, _ = traced_build
    assert per_peer <= BYTES_PER_PEER, f"{per_peer:.0f} B allocated per peer"
    assert not any(hasattr(peer, "_handlers")
                   for peer in broker.simulation.live_peers())


def test_a_bulk_build_peaks_at_most_its_transient_budget_above_live(
        traced_build):
    _, live, peak = traced_build
    transient = peak - live
    assert transient <= TRANSIENT_BYTES_PER_PEER, (
        f"{transient:.0f} B per peer allocated at the peak beyond live")


def test_the_protocol_records_have_no_instance_dict():
    rect = Rect((0.0,), (1.0,))
    records = [ChildInfo(mbr=rect), LevelState(level=0, mbr=rect),
               Message("a", "b", msg.JOIN),
               SimulationEngine().schedule(1.0, lambda: None)]
    assert [type(record).__name__ for record in records
            if hasattr(record, "__dict__")] == []


def test_a_handler_wrapped_on_the_class_after_the_build_is_the_one_that_runs(
        monkeypatch):
    """Dispatch resolves the handler by name on every delivery, so a wrapper
    installed once the peers exist (the benchmark's tracer does this) runs."""
    assert set(DRTreePeer.handlers) == (msg.STRUCTURAL_KINDS
                                        | msg.DISSEMINATION_KINDS)
    assert all(callable(getattr(DRTreePeer, name))
               for name in DRTreePeer.handlers.values())
    population = uniform_subscriptions(600, seed=2)
    subscriptions = list(population)
    broker = SystemSpec(population.space, backend="drtree:batched",
                        seed=2).build()
    broker.subscribe_all(subscriptions)
    handled = []
    original = DisseminationMixin.handle_publish_down

    def spy(self, message):
        handled.append(message.recipient)
        original(self, message)

    monkeypatch.setattr(DisseminationMixin, "handle_publish_down", spy)
    counter = f"network.messages.{msg.PUBLISH_DOWN}"
    before = broker.simulation.metrics.counter(counter)
    for event in targeted_events(population.space, subscriptions, 3, seed=2):
        broker.publish(event)
    sent = broker.simulation.metrics.counter(counter) - before
    assert handled and len(handled) == sent
