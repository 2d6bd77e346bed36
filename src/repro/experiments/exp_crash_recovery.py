"""J1 — crash recovery: kill a journaled run, resume it, demand identity.

The journal subsystem's contract (``docs/journal.md``) is that a run killed
at *any* instant — ``SIGKILL``, no cleanup, no flushing courtesy — leaves a
durable, chain-verified journal from which ``repro resume`` finishes the
run with delivery metrics **byte-identical** to an uninterrupted run of the
same scenario and seed.  This scenario enforces that contract end to end:

1. run the ``hotspot`` workload uninterrupted (in-process) and render its
   canonical metrics document (:func:`repro.traces.replay.dump_metrics`);
2. launch the same workload in a subprocess with ``--journal``, poll the
   journal file until ``kill_after_ops`` operations are durable, then
   ``SIGKILL`` the process mid-run (for ``drtree:sharded`` this kills the
   multi-process coordinator, orphaning its shard workers);
3. resume the journal in-process (:func:`repro.journal.resume_journal`) and
   compare the two metrics documents byte for byte;
4. independently recompute, from the journal file itself, how many ops lie
   after the last snapshot, and require the resume to have re-executed
   exactly that tail — no more (snapshots are being used), no less
   (nothing is skipped unvalidated).

Any violation raises; the CI ``recovery`` job runs this scenario on the
classic engine and on the sharded engine over both inter-process
transports (``--transport pipe`` and ``--transport shm``).
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator

import repro
from repro.experiments.exp_throughput import _transport_name
from repro.experiments.harness import ExperimentResult
from repro.runtime.registry import Param, backend_param, register_scenario

#: How long the scenario waits for the journaled subprocess to reach the
#: kill threshold before giving up (generous: CI machines can be slow).
KILL_DEADLINE_S = 120.0


@contextlib.contextmanager
def _transport_env(transport: str) -> Iterator[None]:
    """Pin the shard transport for everything under this scenario.

    The ``hotspot`` workload the journal records has no transport knob of
    its own, so the pin rides on ``REPRO_SHARD_TRANSPORT`` — honored by
    :func:`repro.sim.sharded.resolve_transport` whenever a sharded engine
    is built with ``transport="auto"``.  Both the in-process phases
    (reference run, resume) and the SIGKILLed subprocess (which inherits
    ``os.environ``) see the same transport, so the recovery contract is
    exercised end to end on the pinned transport.
    """
    from repro.sim.sharded import TRANSPORT_ENV_VAR

    if transport == "auto":
        yield
        return
    previous = os.environ.get(TRANSPORT_ENV_VAR)
    os.environ[TRANSPORT_ENV_VAR] = transport
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(TRANSPORT_ENV_VAR, None)
        else:
            os.environ[TRANSPORT_ENV_VAR] = previous


def _count_journaled_ops(path: Path) -> int:
    """Ops durably in the journal right now (crude but dependency-free)."""
    try:
        data = path.read_bytes()
    except OSError:
        return 0
    return data.count(b'"rec":"op"')


def _spawn_journaled_run(journal: Path, peers: int, events: int, seed: int,
                         backend: str, snapshot_interval: int
                         ) -> subprocess.Popen:
    """Launch ``repro run hotspot --journal`` in a child process."""
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "hotspot",
         "--peers", str(peers), "--events", str(events), "--seed", str(seed),
         "--backend", backend,
         "--journal", str(journal), "--snapshot-every", str(snapshot_interval),
         "--quiet"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


@register_scenario(
    "crash-recovery",
    "Crash recovery via the durable op journal",
    description="SIGKILL a journaled hotspot run mid-flight, resume it from "
                "the snapshot + op-log tail, and require the recovered "
                "delivery metrics to be byte-identical to an uninterrupted "
                "run (raises on any divergence).",
    params=(
        Param("peers", int, 200, "number of subscribers"),
        Param("events", int, 60, "publications in the stream"),
        Param("seed", int, 3, "RNG seed"),
        Param("kill_after_ops", int, 25,
              "SIGKILL once this many ops are durable in the journal"),
        Param("snapshot_interval", int, 10,
              "journal snapshot cadence (ops per segment)"),
        backend_param(),
        Param("transport", _transport_name, "auto",
              "shard transport pinned for all phases via "
              "REPRO_SHARD_TRANSPORT (sharded backend only)"),
    ),
)
def crash_recovery(peers: int, events: int, seed: int, kill_after_ops: int,
                   snapshot_interval: int, backend: str,
                   transport: str) -> ExperimentResult:
    """Kill a journaled ``hotspot`` run mid-flight, resume, compare bytes."""
    from repro.journal import read_journal, resume_journal, verify_journal
    from repro.runtime.runner import run_one
    from repro.traces.replay import dump_metrics

    result = ExperimentResult(
        "J1", "Crash recovery via the durable op journal")
    params = {"peers": peers, "events": events, "seed": seed,
              "backend": backend}
    total_ops = 1 + events  # one subscribe_all + one op per publication
    if not 0 < kill_after_ops < total_ops:
        raise ValueError(
            f"kill_after_ops must be in (0, {total_ops}) so the kill lands "
            f"mid-run, got {kill_after_ops}")

    with _transport_env(transport):
        # 1. The uninterrupted reference, in-process.
        reference = run_one("hotspot", dict(params))
        if not reference.ok:
            raise RuntimeError(f"reference run failed: {reference.error}")
        reference_doc = dump_metrics(reference.scenario, reference.rows)

        with tempfile.TemporaryDirectory(prefix="repro-crash-") as tmp:
            journal = Path(tmp) / "run.journal"

            # 2. The victim, in a subprocess, SIGKILLed once enough ops are
            # durable.  SIGKILL is the point: no handler runs, no buffer is
            # flushed — only what the journal already forced to disk survives.
            proc = _spawn_journaled_run(journal, peers, events, seed, backend,
                                        snapshot_interval)
            deadline = time.monotonic() + KILL_DEADLINE_S
            durable = 0
            while time.monotonic() < deadline:
                durable = _count_journaled_ops(journal)
                if durable >= kill_after_ops:
                    break
                if proc.poll() is not None:
                    raise RuntimeError(
                        f"journaled run exited (rc={proc.returncode}) before "
                        f"reaching {kill_after_ops} ops; it journaled {durable}")
                time.sleep(0.005)
            else:
                proc.kill()
                proc.wait()
                raise RuntimeError(
                    f"journaled run reached only {durable}/{kill_after_ops} ops "
                    f"within {KILL_DEADLINE_S}s")
            proc.send_signal(signal.SIGKILL)
            proc.wait()

            # 3+4. What must the resume re-execute?  Derived from the file, not
            # from the resume machinery being tested.
            surviving = read_journal(journal)
            if surviving.sealed:
                raise RuntimeError("journal sealed before the kill landed; "
                                   "raise kill_after_ops")
            snapshot = surviving.snapshot_for(0)
            expected_tail = len(surviving.ops) - (snapshot.ops if snapshot else 0)

            outcome, report = resume_journal(journal)
            if not outcome.ok:
                raise RuntimeError(f"resumed run failed: {outcome.error}")
            resumed_doc = dump_metrics(outcome.scenario, outcome.rows)
            identical = resumed_doc == reference_doc
            if not identical:
                raise RuntimeError(
                    "resumed metrics differ from the uninterrupted run:\n"
                    f"reference: {reference_doc}\nresumed:  {resumed_doc}")
            stats = report.segments[0]
            if stats.reexecuted != expected_tail:
                raise RuntimeError(
                    f"resume re-executed {stats.reexecuted} ops but the journal "
                    f"holds {expected_tail} ops after its last snapshot")
            verify_journal(journal)  # sealed, chain-intact, canonical bytes

            result.add_row(
                backend=backend,
                transport=transport,
                ops_journaled=stats.journaled,
                snapshot_ops=stats.snapshot_ops,
                ops_reexecuted=stats.reexecuted,
                torn_tail=int(report.torn_tail),
                byte_identical=int(identical),
            )
    result.add_note(
        f"SIGKILLed after {kill_after_ops}+ durable ops; resume replayed "
        f"only the {stats.reexecuted}-op tail after the last snapshot and "
        "reproduced the uninterrupted metrics document byte for byte")
    return result
