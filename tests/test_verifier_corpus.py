"""The verifier's reports on a fixed corpus of legal and damaged trees.

``tests/verifier_corpus.json`` holds, for every state below, what
:meth:`~repro.overlay.verifier.OverlayVerifier.verify` reported when the
verifier still ran one pass per check: the violations in order (their count,
the first few and a SHA-256 of all of them), the root, the height, the degree
and state-size statistics.  Any rewrite of the verifier must reproduce every
report exactly.

The corpus: ``uniform_subscriptions`` at 12, 80 and 600 peers, seeds 1-4,
``drtree:batched`` built by one bulk load and by one join per subscriber
(stabilized once, after the last join),
plus the 2-shard coordinator's merged ``_PeerView`` objects at 600 peers
(bulk load, and bulk load of 560 followed by 40 joins, then one stabilize).  Each tree is
reported legal, then after :class:`~repro.sim.failures.MemoryCorruptor` has
scrambled 30 % of the peers, then after 10 % of the live peers crash on top.

Regenerate (only when the verifier's *output* is meant to change) with::

    PYTHONPATH=src python -c 'from tests.test_verifier_corpus import write_fixture; write_fixture()'
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SystemSpec
from repro.overlay.bootstrap import BULK_THRESHOLD
from repro.overlay.config import DRTreeConfig
from repro.overlay.verifier import OverlayVerifier
from repro.workloads import uniform_subscriptions

FIXTURE = Path(__file__).resolve().parent / "verifier_corpus.json"
SIZES = (12, 80, 600)
SEEDS = (1, 2, 3, 4)
SHARDED_JOINS = 40
#: Reports at or below this population also pin the containment lists.
CONTAINMENT_UP_TO = 80

_CONFIG = DRTreeConfig()
VERIFIER = OverlayVerifier(_CONFIG.min_children, _CONFIG.max_children)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def summarize(report) -> dict:
    """A report as the plain data the fixture stores."""
    return {
        "violations": len(report.violations),
        "first": report.violations[:4],
        "sha256": _digest(report.violations),
        "weak": _digest(report.weak_containment_violations),
        "strong": _digest(report.strong_containment_violations),
        "root": report.root,
        "height": report.height,
        "peer_count": report.peer_count,
        "max_degree": report.max_degree,
        "min_internal_degree": report.min_internal_degree,
        "mean_state_size": report.mean_state_size,
        "max_state_size": report.max_state_size,
    }


def _crash_tenth(simulation, live_ids, seed: int) -> None:
    victims = random.Random(seed).sample(sorted(live_ids),
                                         len(live_ids) // 10)
    for victim in victims:
        simulation.crash(victim)


def _batched_states(size: int, seed: int, build: str):
    population = uniform_subscriptions(size, seed=seed)
    broker = SystemSpec(population.space, backend="drtree:batched",
                        seed=seed).build()
    broker.subscribe_all(list(population), bulk=build == "bulk")
    simulation = broker.simulation
    yield "legal", simulation.live_peers
    simulation.corrupt(0.3)
    yield "corrupt", simulation.live_peers
    _crash_tenth(simulation,
                 [peer.process_id for peer in simulation.live_peers()], seed)
    yield "crash", simulation.live_peers


def _sharded_states(seed: int, build: str):
    size = SIZES[-1]
    population = list(uniform_subscriptions(size, seed=seed))
    bulk = population if build == "bulk" else population[:-SHARDED_JOINS]
    assert len(bulk) >= BULK_THRESHOLD  # multi-shard
    broker = SystemSpec(uniform_subscriptions(size, seed=seed).space,
                        backend="drtree:sharded", seed=seed,
                        engine_options={"shards": 2,
                                        "transport": "inline"}).build()
    try:
        broker.subscribe_all(bulk)
        for subscription in population[len(bulk):]:
            broker.subscribe(subscription, stabilize=False)
        broker.stabilize()
        simulation = broker.simulation
        assert len(simulation.shard_report()) == 2
        yield "legal", simulation._peer_views
        for shard in simulation._shards:
            shard.runtime.sim.corrupt(0.3)
        yield "corrupt", simulation._peer_views
        _crash_tenth(simulation, [view.process_id
                                  for view in simulation._peer_views()], seed)
        yield "crash", simulation._peer_views
    finally:
        broker.close()


def corpus():
    """``(name, peers())`` for every state of the corpus, in fixture order."""
    for size in SIZES:
        for seed in SEEDS:
            for build in ("bulk", "joins"):
                for state, peers in _batched_states(size, seed, build):
                    yield f"batched/{size}/{seed}/{build}/{state}", peers
    for seed in SEEDS:
        for build in ("bulk", "joins"):
            for state, peers in _sharded_states(seed, build):
                yield f"sharded/{SIZES[-1]}/{seed}/{build}/{state}", peers


def _report(peers) -> dict:
    containment = len(peers) <= CONTAINMENT_UP_TO
    return summarize(VERIFIER.verify(peers, check_containment=containment))


def write_fixture() -> None:
    """Rewrite the fixture from the current verifier."""
    reports = {name: _report(peers()) for name, peers in corpus()}
    FIXTURE.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def observed():
    """Per corpus state: its report now, and ``legal_report``'s answer
    checked against ``verify``'s (read at once: later states mutate the
    same peers)."""
    result = {}
    for name, peers in corpus():
        current = peers()
        full = VERIFIER.verify(current)
        early = VERIFIER.legal_report(current)
        result[name] = (_report(current),
                        early == (full if full.is_legal else None))
    return result


def test_every_report_matches_the_recorded_one(recorded, observed):
    assert sorted(observed) == sorted(recorded)
    assert [name for name, (report, _) in observed.items()
            if report != recorded[name]] == []


def test_the_corpus_has_legal_and_illegal_states(recorded):
    legal = {name for name, report in recorded.items()
             if not report["violations"]}
    assert {name for name in recorded if name.endswith("/legal")} == legal


def test_legal_report_is_verify_or_none_on_the_corpus(observed):
    assert [name for name, (_, agrees) in observed.items()
            if not agrees] == []


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_legal_report_is_none_exactly_when_verify_is_illegal(data):
    """Random damage to a small tree: ``legal_report`` agrees with ``verify``."""
    size = data.draw(st.integers(min_value=1, max_value=40), label="size")
    seed = data.draw(st.integers(min_value=0, max_value=50), label="seed")
    population = uniform_subscriptions(size, seed=seed)
    broker = SystemSpec(population.space, backend="drtree:batched",
                        seed=seed).build()
    broker.subscribe_all(list(population))
    simulation = broker.simulation
    fraction = data.draw(st.sampled_from((0.0, 0.05, 0.2, 0.5)),
                         label="corrupted")
    if fraction:
        simulation.corrupt(fraction)
    live = [peer.process_id for peer in simulation.live_peers()]
    for victim in data.draw(st.lists(st.sampled_from(live), max_size=3,
                                     unique=True), label="crashed"):
        simulation.crash(victim)
    peers = simulation.live_peers() + [simulation.peer(pid) for pid in live
                                       if not simulation.peer(pid).alive]
    full = VERIFIER.verify(peers)
    early = VERIFIER.legal_report(peers)
    if full.is_legal:
        assert early == full
    else:
        assert early is None
