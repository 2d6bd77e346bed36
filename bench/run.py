"""Entry point of the benchmark: one command, every metric by name.

    python3 bench/run.py --workload steady-publish --seed 1 --seconds 10 --trace 0

runs one workload in this process and prints, as the last line of standard
output, ``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every per-layer
metric (``--trace 1``).  Without ``--workload`` it runs all six, one fresh
interpreter each, one after the other.  ``--json OUT`` writes the full
records (detail metrics, simulated statistics, digests) that
``bench/agree.py`` compares.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # before the imports that setup_s must cover

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
CONTRACT = ROOT / "BENCHMARK.json"

#: A run that is still going after this many seconds dumps every thread's
#: stack and exits non-zero (the contract allows 180).
HARD_LIMIT_S = 165
#: Set in the environment of the interpreter that runs the workload; the one
#: without it is that interpreter's supervisor.
SUPERVISED = "BENCH_SUPERVISED"


def contract() -> Dict[str, Any]:
    with open(CONTRACT, encoding="utf-8") as handle:
        return json.load(handle)


def _tail(samples: List[float]) -> Dict[str, float]:
    """The highest percentile with ten samples beyond it, and its value."""
    ordered = sorted(samples)
    return {"value": ordered[-11] * 1e3,
            "percentile": 100.0 * (1.0 - 10.0 / len(ordered)),
            "samples": len(ordered)}


def _quartiles(samples: List[float]) -> List[float]:
    if len(samples) < 2:
        return [samples[0]] * 3
    return statistics.quantiles(samples, n=4)


def run_workload(name: str, seed: int = 1, seconds: int = 10,
                 trace: bool = False, scale: str = "full") -> Dict[str, Any]:
    """Run one workload in this process; returns its full record."""
    from bench import workloads

    workload = workloads.WORKLOADS[name](workloads.SCALES[scale], seconds)
    record: Dict[str, Any] = {"workload": name, "seed": seed,
                              "seconds": seconds, "scale": scale,
                              "trace": int(trace)}
    if not trace:
        done = workloads.execute(workload, seed, _STARTED,
                                 workload.scale.setups)
        record["metrics"] = end_to_end(done)
        record["detail"] = detail(done)
    else:
        from bench import perlayer
        from bench.tracing import Tracer

        # The untraced pass is the reference trace_overhead_pct needs; the
        # traced pass then repeats it on the same inputs.
        plain = workloads.execute(workload, seed, _STARTED, setups=1)
        tracer = Tracer()
        with tracer.installed():
            done = workloads.execute(workload, seed, _STARTED, setups=1,
                                     tracer=tracer)
            values = perlayer.compute(tracer, done, plain,
                                      workload.scale.probe_calls)
        tracer.write(workloads.OUT_DIR / f"trace-{name}.json")
        record["metrics"] = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in perlayer.UNITS.items()}
        # The denominators for "share of an op": 1e6 / rate is µs per op.
        record["detail"] = {"untraced_ops_per_s": plain.ops_per_s,
                            "traced_ops_per_s": done.ops_per_s}
        record["unresolved"] = sorted(tracer.unresolved)
        record["spans"] = len(tracer.spans)
    rec = done.rec
    record.update({
        "attempted": rec.attempted + rec.abandoned,
        "failed": rec.failed,
        "checks": done.facts["checks"],
        "problems": rec.problems,
        "digest": done.facts["digest"],
        "simulated": done.facts["simulated"],
        "counts_repeat": workload.counts_repeat,
    })
    record["correct"] = all(record["checks"].values())
    return record


def end_to_end(done: Any) -> Dict[str, Dict[str, Any]]:
    """The metrics ``BENCHMARK.json`` bounds; every workload reports all."""
    values = {
        "setup_s": done.import_s + statistics.median(done.setup_times),
        "ops_per_s": done.ops_per_s,
        "publish_p50_ms":
            statistics.median(done.rec.calibrated("publish")) * 1e3,
        "peak_rss_mb": done.rss_mb,
    }
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in contract()["end_to_end"]}


def detail(done: Any) -> Dict[str, Any]:
    """What the bounded metrics are made of; printed, not gated.

    Times are calibrated like the metrics unless the name says ``raw``.
    """
    rec = done.rec
    facts: Dict[str, Any] = {
        "host_factor": {"median": statistics.median(rec.factors),
                        "min": min(rec.factors), "max": max(rec.factors)},
        "import_s": done.import_s,
        "setup_times_s": done.setup_times,
        "raw_setup_times_s": done.raw_setup_times,
        "chunks": len(done.chunk_times),
        "chunk_quartiles_s": _quartiles(done.chunk_times),
        "raw_publish_p50_ms": statistics.median(rec.raw("publish")) * 1e3,
    }
    for kind in sorted(set(rec.kinds)):
        samples = rec.calibrated(kind)
        facts[f"{kind}_p50_ms"] = {"value": statistics.median(samples) * 1e3,
                                   "samples": len(samples)}
    if len(rec.samples["publish"]) > 20:
        facts["publish_tail_ms"] = _tail(rec.calibrated("publish"))
    return facts


def report(record: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the contract's last line."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  scale {record['scale']}  "
          f"trace {record['trace']}")
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>12} {metric['unit']}")
    for name, value in record.get("detail", {}).items():
        print(f"  detail {name}: {json.dumps(value)}")
    simulated = record["simulated"]
    print(f"  simulated msgs_per_event {simulated['msgs_per_event']:.6g}  "
          f"false_positive_rate {simulated['false_positive_rate']:.6g}  "
          f"events {simulated['events']}  "
          f"false_negatives {simulated['false_negatives']}")
    print(f"  digest {record['digest']}")
    print(f"  checks {json.dumps(record['checks'])}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print(f"  ops attempted {record['attempted']}  failed {record['failed']}")
    # An unresolved layer reads null in the record and 0 here: the contract
    # wants a number for every metric.
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": 0.0 if metric["value"] is None
                   or not math.isfinite(metric["value"])
                   else metric["value"], "unit": metric["unit"]}
            for name, metric in record["metrics"].items()},
    }))


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it.

    The shm transport starts one; left alone it ends only when it sees this
    process gone, a moment *after* the run has returned.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(module, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def _session_members(session: int) -> List[int]:
    """Pids of the live (not zombie) processes of ``session``, from /proc."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                # "pid (comm) state ppid pgrp session ..."; comm may hold
                # spaces and parentheses, so split after the last ")".
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[3]) == session:
            members.append(int(entry))
    return members


def _reap() -> None:
    """Collect every child that has ended (orphans arrive as children once
    this process is a subreaper)."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def _unlink_segments(pid: int) -> None:
    """Remove the shm segments a killed run's coordinator ``pid`` left."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.sim.sharded.shm import leaked_segments
    except ImportError:
        return
    for name in leaked_segments(pid):
        try:
            os.unlink(f"/dev/shm/{name}")
        except OSError:
            pass


def supervise(arguments: List[str]) -> int:
    """Run the workload in a child interpreter with a session of its own and
    return only when no process of that session is left.

    The child starts shard workers, multiprocessing's resource tracker and a
    loop thread; it stops them itself on the way out, but a run that hits the
    hard limit, is killed, or meets a bug in that clean-up must not leave one
    behind either (a later run would share the machine with it).
    """
    try:
        import ctypes

        # PR_SET_CHILD_SUBREAPER: orphaned descendants become children of
        # this process, so that _reap() can wait for them.
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass

    def interrupted(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt(f"signal {signum}")

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, interrupted)
    sys.stdout.flush()
    child = None
    code = 1
    try:
        # String hashes decide set and dict layouts, and with them timings;
        # the child runs under a fixed hash seed.
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())] + arguments,
            env={**os.environ, "PYTHONHASHSEED": "0", SUPERVISED: "1"},
            start_new_session=True)
        code = child.wait(timeout=HARD_LIMIT_S + 5)
    except subprocess.TimeoutExpired:
        print(f"bench: no result after {HARD_LIMIT_S + 5}s, stopping the run",
              file=sys.stderr)
    except KeyboardInterrupt as exc:
        print(f"bench: {exc}, stopping the run", file=sys.stderr)
    finally:
        if child is not None:
            left = _session_members(child.pid)
            if left and code == 0:
                print(f"bench: the run left processes {left} behind",
                      file=sys.stderr)
            give_up = time.monotonic() + 8.0
            while left and time.monotonic() < give_up:
                try:
                    os.killpg(child.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                child.poll()
                _reap()
                time.sleep(0.01)
                left = _session_members(child.pid)
            child.poll()
            _reap()
            if code != 0:
                _unlink_segments(child.pid)
    return code if 0 <= code < 126 else 1


def run_all(args: argparse.Namespace) -> List[Dict[str, Any]]:
    """Every workload ``--repeat`` times, one fresh interpreter per run."""
    records: List[Dict[str, Any]] = []
    names = [entry["name"] for entry in contract()["workloads"]]
    with tempfile.TemporaryDirectory(dir=ROOT / "bench") as scratch:
        for _ in range(args.repeat):
            for name in names:
                out = Path(scratch) / "record.json"
                subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--scale", args.scale,
                     "--json", str(out)],
                    check=True, timeout=HARD_LIMIT_S + 30)
                with open(out, encoding="utf-8") as handle:
                    records.extend(json.load(handle)["runs"])
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="sizes the op counts (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's populations")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload when running all six")
    parser.add_argument("--json", metavar="OUT",
                        help="write the full run records here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found beside bench/; the benchmark "
              "measures that program and cannot run without it",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = contract()["run_seconds"]
    if args.workload is None:
        records = run_all(args)
    elif os.environ.get(SUPERVISED) != "1":
        return supervise(sys.argv[1:] if argv is None else argv)
    else:
        faulthandler.dump_traceback_later(HARD_LIMIT_S, exit=True)
        for path in (ROOT / "src", ROOT):
            sys.path.insert(0, str(path))
        try:
            record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.scale)
        finally:
            stop_resource_tracker()
        report(record)
        records = [record]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"runs": records}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
