"""Do two result sets of ``bench/run.py --json`` agree?

    python3 bench/agree.py A.json B.json

Exits non-zero unless

* for every workload, the medians of every end-to-end metric over the runs
  of A and of B differ by no more than the metric's ``BENCHMARK.json`` bound
  (relative to A's median), and
* everything the simulator computes agrees *exactly* between runs of the
  same ``(workload, seed, seconds, scale)``: failed ops, the delivered
  digest and — where the backend's counts repeat — the simulated statistics
  and the message counts by type, and
* within each set, ``steady-publish`` and ``sharded-shm`` (same inputs, two
  engines) report the same digest and simulated statistics.

Only untraced runs are compared.  A host-speed change must leave the second
and third kind identical; a change to the overlay must not move the first.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

CONTRACT = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

#: Two workloads that replay one input stream through different engines.
PARITY = ("steady-publish", "sharded-shm")


def load(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [run for run in json.load(handle)["runs"] if not run["trace"]]


def exact_view(run: Dict[str, Any], counts: bool) -> Dict[str, Any]:
    """The part of a run that must not depend on host speed."""
    view = {"failed": run["failed"], "digest": run["digest"],
            "events": run["simulated"]["events"],
            "false_negatives": run["simulated"]["false_negatives"]}
    if counts:
        view.update({key: run["simulated"][key] for key in
                     ("msgs_per_event", "false_positive_rate",
                      "messages_by_type")})
    return view


def compare(first: List[Dict[str, Any]], second: List[Dict[str, Any]],
            out=sys.stdout) -> List[str]:
    """Every disagreement between two result sets, as one line each."""
    with open(CONTRACT, encoding="utf-8") as handle:
        contract = json.load(handle)
    problems: List[str] = []

    by_workload: Tuple[Dict[str, list], Dict[str, list]] = (
        defaultdict(list), defaultdict(list))
    for runs, grouped in zip((first, second), by_workload):
        for run in runs:
            grouped[run["workload"]].append(run)
    for entry in contract["workloads"]:
        name = entry["name"]
        if not by_workload[0][name] or not by_workload[1][name]:
            problems.append(f"{name}: missing from one of the sets")
            continue
        for metric in contract["end_to_end"]:
            medians = [statistics.median(
                run["metrics"][metric["name"]]["value"]
                for run in grouped[name]) for grouped in by_workload]
            change = (medians[1] - medians[0]) / medians[0]
            verdict = "ok" if abs(change) <= metric["bound"] else "DISAGREE"
            print(f"{name:<18} {metric['name']:<15} "
                  f"{medians[0]:>11.5g} {medians[1]:>11.5g} "
                  f"{metric['unit']:<4} {change:+8.2%} "
                  f"(bound {metric['bound']:.0%}) {verdict}", file=out)
            if verdict != "ok":
                problems.append(
                    f"{name} {metric['name']}: medians {medians[0]:.5g} and "
                    f"{medians[1]:.5g} differ by {change:+.2%}, bound "
                    f"{metric['bound']:.0%}")

    same_inputs: Dict[tuple, Dict[str, Any]] = {}
    for run in first + second:
        key = (run["workload"], run["seed"], run["seconds"], run["scale"])
        view = exact_view(run, run["counts_repeat"])
        if same_inputs.setdefault(key, view) != view:
            problems.append(f"{key}: simulated results differ between runs "
                            f"of the same inputs: {same_inputs[key]} != "
                            f"{view}")

    for label, runs in (("first", first), ("second", second)):
        engines: Dict[tuple, Dict[str, Any]] = {}
        for run in runs:
            if run["workload"] in PARITY:
                key = (run["seed"], run["seconds"], run["scale"])
                view = exact_view(run, counts=True)
                if engines.setdefault(key, view) != view:
                    problems.append(
                        f"{label} set, seed {run['seed']}: {PARITY[0]} and "
                        f"{PARITY[1]} disagree on the same input stream")
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    problems = compare(load(argv[0]), load(argv[1]))
    for problem in problems:
        print(f"DISAGREE: {problem}")
    print("agree" if not problems else f"{len(problems)} disagreements")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
