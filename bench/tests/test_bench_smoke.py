"""Schema and hygiene of the benchmark at ``--scale tiny`` (tier-1, < 15 s)."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from bench import agree, layers, perlayer, run

BENCH = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: In the environment of every run below, and so of every process it starts.
MARK = {"BENCH_SMOKE_MARK": str(os.getpid())}


def _run_cli(arguments):
    name, trace, out = arguments
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--scale", "tiny", "--seed", "3", "--seconds", "10",
         "--trace", str(trace), "--json", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, **MARK})


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """All six workloads, traced and untraced, through the command line."""
    directory = tmp_path_factory.mktemp("bench")
    jobs = [(name, trace, directory / f"{name}-{trace}.json")
            for name in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        finished = list(pool.map(_run_cli, jobs))
    runs = {}
    for (name, trace, out), done in zip(jobs, finished):
        assert done.returncode == 0, done.stderr
        last_line = json.loads(done.stdout.strip().splitlines()[-1])
        record = json.loads(out.read_text())["runs"][0]
        runs[name, trace] = (last_line, record)
    return runs


def test_contract_lists_match_the_code():
    from bench import workloads

    assert WORKLOADS == list(workloads.WORKLOADS)
    assert ({metric["name"]: metric["unit"]
             for metric in CONTRACT["per_layer"]} == perlayer.UNITS)
    names = WORKLOADS + [metric["name"] for kind in ("end_to_end", "per_layer")
                         for metric in CONTRACT[kind]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


def test_every_span_target_resolves():
    for target in layers.all_targets():
        layers.resolve(target)


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(cli_runs, name):
    last_line, record = cli_runs[name, 0]
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    assert last_line["correct"] is True and last_line["failed"] == 0
    assert last_line["attempted"] >= 1
    expected = {metric["name"]: metric["unit"]
                for metric in CONTRACT["end_to_end"]}
    assert {metric: value["unit"]
            for metric, value in last_line["metrics"].items()} == expected
    for value in last_line["metrics"].values():
        assert math.isfinite(value["value"]) and value["value"] > 0
    assert record["problems"] == [] and all(record["checks"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(cli_runs, name):
    last_line, record = cli_runs[name, 1]
    assert last_line["correct"] is True and last_line["failed"] == 0
    assert {metric: value["unit"] for metric, value
            in last_line["metrics"].items()} == perlayer.UNITS
    for value in last_line["metrics"].values():
        assert math.isfinite(value["value"])
    assert record["unresolved"] == []
    assert all(value["value"] is not None
               for value in record["metrics"].values())
    assert (BENCH / "out" / f"trace-{name}.json").is_file()


def test_runs_leave_nothing_behind(cli_runs):
    from repro.sim.sharded.shm import leaked_segments

    assert not list((BENCH / "out").glob("journal-*"))
    assert leaked_segments() == []
    # No shard worker, resource tracker or interpreter outlives its run.
    (mark,) = (f"{key}={value}".encode() for key, value in MARK.items())
    survivors = []
    for entry in os.listdir("/proc"):
        try:
            environ = Path("/proc", entry, "environ").read_bytes()
        except OSError:
            continue
        if entry.isdigit() and mark in environ.split(b"\0"):
            survivors.append(entry)
    assert survivors == []


def test_agree_accepts_equal_sets_and_rejects_a_changed_digest(cli_runs):
    records = [record for (_, trace), (_, record) in cli_runs.items()
               if not trace]
    assert agree.compare(records, records, out=None) == []
    changed = [dict(record, digest="0" * 64) for record in records]
    assert agree.compare(records, changed, out=None)


def test_sharded_run_matches_the_single_process_run(cli_runs):
    steady, sharded = (cli_runs[name, 0][1] for name in agree.PARITY)
    assert steady["digest"] == sharded["digest"]
    assert steady["simulated"] == sharded["simulated"]


def test_moved_target_reads_null_and_leaves_no_wrapper(monkeypatch, capsys):
    from repro.pubsub import accounting

    original = accounting.matching_subscribers
    monkeypatch.setitem(layers.SPANS, "pubsub.matching",
                        ("repro.pubsub.accounting:moved_elsewhere",))
    record = run.run_workload("steady-publish", seed=3, trace=True,
                              scale="tiny")
    assert record["correct"] and record["unresolved"] == ["pubsub.matching"]
    assert record["metrics"]["pubsub.matching.us_per_event"]["value"] is None
    assert record["metrics"]["pubsub.api.self_us_per_op"]["value"] > 0
    assert "does not resolve" in capsys.readouterr().err
    assert accounting.matching_subscribers is original
    assert "__wrapped__" not in vars(accounting.DeliveryAccounting.start_event)
