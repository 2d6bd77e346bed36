"""Worker-proxy teardown and failure containment, on every transport.

One table over ``inline`` / ``pipe`` / ``shm``: the coordinator's single
worker proxy must tear down identically whichever channel it was given —
idempotent polite close, a hard terminate that is safe with a command
outstanding, no surviving worker process and no ``/dev/shm`` segment — and
a worker that dies under *any* exchange (``bulk_load`` included) must close
the whole simulation instead of leaving stale replies on the other pipes.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro import snapshot
from repro.api.spec import SystemSpec
from repro.overlay.config import DRTreeConfig
from repro.sim.network import FixedLatency
from repro.sim.sharded import (ShardedSimulation, ShardFailedError,
                               shm_available)
from repro.sim.sharded.shm import leaked_segments
from repro.workloads.subscriptions import uniform_subscriptions

CONFIG = DRTreeConfig(min_children=4, max_children=8)

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="multiprocessing.shared_memory "
                                      "unavailable on this platform")
PROCESS_TRANSPORTS = ["pipe", pytest.param("shm", marks=needs_shm)]
TRANSPORTS = ["inline"] + PROCESS_TRANSPORTS


@pytest.fixture(scope="module")
def workload():
    workload = uniform_subscriptions(600, seed=3)
    return workload.space, list(workload)


def _workers(sim):
    return [shard.process for shard in sim._shards
            if hasattr(shard, "process")]


def _assert_nothing_left(workers):
    for process in workers:
        process.join(timeout=5)
        assert not process.is_alive()
    assert leaked_segments(os.getpid()) == []


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_close_twice_is_a_noop(workload, transport):
    _space, subs = workload
    sim = ShardedSimulation(config=CONFIG, seed=3, shards=2,
                            transport=transport)
    sim.bulk_load(subs)
    workers = _workers(sim)
    assert len(workers) == (0 if transport == "inline" else 2)
    sim.close()
    sim.close()
    _assert_nothing_left(workers)
    with pytest.raises(ShardFailedError, match="already closed"):
        sim.stabilize()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_terminate_with_a_command_outstanding(workload, transport):
    _space, subs = workload
    sim = ShardedSimulation(config=CONFIG, seed=3, shards=2,
                            transport=transport)
    sim.bulk_load(subs)
    workers = _workers(sim)
    for shard in sim._shards:
        shard.request(("peer_views",))  # never collected
    sim.terminate()
    sim.terminate()
    _assert_nothing_left(workers)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_shard_workers_always_run_the_batched_network(transport):
    """No option chooses a shard's scheduler: its network is lossless with a
    ``FixedLatency``, so every message joins the per-round queues."""
    with ShardedSimulation(config=CONFIG, seed=3, shards=2,
                           transport=transport) as sim:
        sim._ensure_shards(1)
        # Any transport: the worker's own snapshot says so.
        blob = sim._rpc(0, ("snapshot",))
        network = snapshot.load(blob, "shard")["sim"].network
        assert not network.loss_rate
        assert type(network.latency) is FixedLatency
        assert not hasattr(network, "batch")
        assert not hasattr(sim, "batch")


def test_sharded_batch_engine_option_is_rejected(workload):
    space, _subs = workload
    with pytest.raises(ValueError) as excinfo:
        SystemSpec(space, backend="drtree:sharded",
                   engine_options={"batch": True})
    assert "known: ['shards', 'transport']" in str(excinfo.value)


@pytest.mark.parametrize("transport", PROCESS_TRANSPORTS)
def test_worker_killed_before_bulk_load_closes_the_simulation(workload,
                                                              transport):
    """Regression: ``bulk_load`` used to collect replies on its own, so a
    dead worker raised but left the simulation open with the surviving
    shard's ``bulk_wire`` reply unread — answering the *next* command."""
    _space, subs = workload
    sim = ShardedSimulation(config=CONFIG, seed=3, shards=2,
                            transport=transport)
    try:
        sim._ensure_shards(2)
        workers = _workers(sim)
        workers[0].kill()
        workers[0].join(timeout=5)
        with pytest.raises(ShardFailedError, match="shard 0"):
            sim.bulk_load(subs)
        assert sim._closed
        with pytest.raises(ShardFailedError, match="already closed"):
            sim.stabilize()
        _assert_nothing_left(workers)
    finally:
        sim.close()


_ORPHAN_SCRIPT = """
import signal
from repro.overlay.config import DRTreeConfig
from repro.sim.sharded import ShardedSimulation
from repro.workloads.subscriptions import uniform_subscriptions

sim = ShardedSimulation(config=DRTreeConfig(min_children=4, max_children=8),
                        seed=3, shards=2, transport="pipe")
sim.bulk_load(list(uniform_subscriptions(2000, seed=3)))
for shard in sim._shards:
    shard.request(("snapshot",))  # replies larger than a pipe's buffer
print(*(shard.process.pid for shard in sim._shards), flush=True)
signal.pause()
"""


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no /proc: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def test_pipe_workers_exit_after_their_coordinator_is_sigkilled(tmp_path):
    """Regression: a forked pipe worker held its own copy of the
    coordinator's pipe end, so a reply to a SIGKILLed coordinator never hit
    EPIPE and the worker blocked in ``send`` for good."""
    src_root = str(os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = tmp_path / "pids.txt"
    workers = []
    # Orphaned workers inherit stdout: a file, unlike a pipe, never makes
    # the test wait for them.
    with open(out, "w") as stdout:
        proc = subprocess.Popen([sys.executable, "-c", _ORPHAN_SCRIPT],
                                env=env, stdout=stdout,
                                stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while not out.read_text().endswith("\n"):
            assert proc.poll() is None, "coordinator died before its workers"
            assert time.monotonic() < deadline, "coordinator never got ready"
            time.sleep(0.05)
        workers = [int(pid) for pid in out.read_text().split()]
        assert len(workers) == 2 and all(map(_running, workers))
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
