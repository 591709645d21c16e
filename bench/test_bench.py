"""Smoke and determinism tests for the benchmark itself.

Run from the repository root:

    python3 -m pytest bench -q

Every workload runs at a tiny ``--scale`` so the whole file takes about
a minute. The tests check the benchmark's contract, not the program's
speed: every metric named in ``BENCHMARK.json`` is printed with its
unit, exact counts repeat across same-seed runs, and the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SCALE = "0.05"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, attempt: int = 0):
    """One tiny run: (stdout lines, parsed result)."""
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", str(trace), "--scale", SCALE)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    _, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in spec}
    printed = {name: value["unit"]
               for name, value in result["metrics"].items()}
    assert printed == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fail_rate_printed_with_its_base(workload):
    lines, result = run(workload, 0)
    line = next(line for line in lines if line.startswith("fail_rate "))
    failures, base = line.split()[1].split("/")
    assert int(base) > 0
    assert result["metrics"]["fail_rate"]["value"] == pytest.approx(
        int(failures) / int(base))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(workload):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from run import is_count
    finally:
        sys.path.pop(0)
    first = run(workload, 1, 0)[1]["metrics"]
    second = run(workload, 1, 1)[1]["metrics"]
    counts = [name for name in first if is_count(name)]
    assert "nlp.squash_calls" in counts and "persist.fsync_calls" in counts
    assert {n: first[n]["value"] for n in counts} == {
        n: second[n]["value"] for n in counts}


def test_process_pool_twin_runs_and_equals_serial():
    # The traced batch run checks every twin job's digest against the
    # serial job on the same world; a mismatch would fail the run.
    _, result = run("batch-480", 1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["exec.pool_tasks"]["value"] > 0
    assert metrics["exec.pool_wall_s"]["value"] > 0
    assert metrics["exec.pool_speedup"]["value"] > 0
    serve = run("serve-repeat", 1)[1]["metrics"]
    assert serve["exec.pool_speedup"]["value"] == 0


def test_workload_counts_show_each_layer():
    batch = run("batch-480", 1)[1]["metrics"]
    serve = run("serve-repeat", 1)[1]["metrics"]
    assert batch["nlp.squash_calls"]["value"] > 0
    assert batch["analysis.tables_s"]["value"] > 0
    assert batch["persist.fsync_calls"]["value"] == 0
    assert batch["stream.wall_s"]["value"] == 0
    assert serve["serve.dispatch_calls"]["value"] > 0
    # The durable stream is serve-repeat's extra job: one session.
    assert serve["persist.fsync_calls"]["value"] > 0
    assert serve["persist.journal_records"]["value"] > 0
    assert serve["stream.epochs"]["value"] == 8
    assert serve["stream.wall_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
