"""Bench: the execution engine's workers × cache grid.

Runs the collect→curate→enrich pipeline on the scaled scenario serially
and on four worker processes, dumps ``artifacts/exec_grid.json``
(per-cell wall time, records/sec, speedup over the sequential uncached
baseline, cache hit rate), and asserts the engine's perf bar.

One untimed warm-up job runs first, then every cell is timed twice: in
grid order, then in reverse. A cell's wall time is the mean of its two
runs, so no cell gains or loses from where it sits in the order (in one
process, the first job also pays the warm-up of every memo and lexicon).
The bar:

* ``--workers 4`` with the cache on must be ≥ 2.5× — the multi-core
  floor, asserted only when the host actually has ≥ 4 CPUs
  (``os.cpu_count()``). On smaller hosts the process pool cannot
  beat the GIL by parallelism, so the assertion falls back to the
  cache-dedup-minus-IPC floor (≥ 1.25×) and the artifact records which
  bar was applied; correctness (identical records/gaps across every
  cell) is asserted unconditionally either way.

The byte-level equivalence proof lives in
``tests/test_exec_equivalence.py``; this grid keeps the *speed* story
honest. It is not run by ``scripts/ci.sh``; ``bench/run.py`` is the
gate on speed.
"""

import json
import os
import time
from pathlib import Path

from repro.core.pipeline import run_pipeline
from repro.exec import ExecutionPolicy
from repro.obs import Telemetry
from repro.world.scenario import ScenarioConfig, build_world

#: The "scaled world": heavier per-campaign volume than the unit-test
#: scenarios, so duplicate texts (the cache's target) and annotation
#: compute (the process pool's target) carry production-like weight.
GRID_CONFIG = ScenarioConfig(seed=7726, n_campaigns=240,
                             mean_campaign_volume=70.0,
                             sbi_burst_volume=150)

#: (pool, workers, cache) cells; the first is the baseline. The worker
#: count alone picks the pool: serial at one, processes above.
GRID = (
    ("serial", 1, False),
    ("serial", 1, True),
    ("process", 4, False),
    ("process", 4, True),
)

#: Multi-core floor for the process pool at 4 workers (hosts with ≥ 4 CPUs).
PROCESS_SPEEDUP_FLOOR = 2.5
#: What the process pool must still clear on hosts without 4 CPUs:
#: the cache dedup win minus fork/pickle overhead.
PROCESS_FALLBACK_FLOOR = 1.25


def _cell_key(pool: str, workers: int, cache: bool) -> str:
    return f"pool={pool},workers={workers},cache={'on' if cache else 'off'}"


def _timed_run(workers: int, cache: bool):
    """One pipeline job on a fresh world: its wall seconds (the world
    build is not timed), records, gaps and cache snapshot."""
    world = build_world(GRID_CONFIG)
    telemetry = Telemetry.create(clock=world.clock)
    started = time.perf_counter()
    run = run_pipeline(
        world, telemetry=telemetry,
        execution=ExecutionPolicy(workers=workers, cache=cache),
    )
    wall = time.perf_counter() - started
    return wall, (len(run.dataset), len(run.enriched.gaps),
                  telemetry.cache_snapshot)


def test_exec_grid():
    """Run the pool grid on the scaled scenario and dump the artifact."""
    _timed_run(*GRID[0][1:])  # warm-up, untimed
    walls = {cell: [] for cell in GRID}
    outcomes = {}
    for cell in list(GRID) + list(reversed(GRID)):
        wall, outcomes[cell] = _timed_run(*cell[1:])
        walls[cell].append(wall)
    cells = {}
    for (pool, workers, cache), (records, gaps, snapshot) in outcomes.items():
        runs = walls[(pool, workers, cache)]
        wall = sum(runs) / len(runs)
        cells[_cell_key(pool, workers, cache)] = {
            "pool": pool,
            "workers": workers,
            "cache": cache,
            "wall_seconds": round(wall, 3),
            "wall_seconds_runs": [round(run_wall, 3) for run_wall in runs],
            "records": records,
            "records_per_sec": round(records / wall, 1) if wall else None,
            "gaps": gaps,
            "cache_hit_rate": round(snapshot.get("hit_rate", 0.0), 4),
            "cache_hits": snapshot.get("totals", {}).get("hits", 0),
        }

    baseline = cells[_cell_key("serial", 1, False)]
    processed = cells[_cell_key("process", 4, True)]
    process_speedup = baseline["wall_seconds"] / processed["wall_seconds"]

    cpus = os.cpu_count() or 1
    multicore = cpus >= 4
    process_floor = (PROCESS_SPEEDUP_FLOOR if multicore
                     else PROCESS_FALLBACK_FLOOR)

    out_dir = Path(os.environ.get("REPRO_BENCH_ARTIFACTS",
                                  str(Path(__file__).parent / "artifacts")))
    out_dir.mkdir(parents=True, exist_ok=True)
    artifact = {
        "config": {"seed": GRID_CONFIG.seed,
                   "n_campaigns": GRID_CONFIG.n_campaigns,
                   "mean_campaign_volume": GRID_CONFIG.mean_campaign_volume},
        "cpus": cpus,
        "cells": cells,
        "speedup_process4_cached_vs_sequential": round(process_speedup, 3),
        "process_speedup_floor_applied": process_floor,
    }
    (out_dir / "exec_grid.json").write_text(
        json.dumps(artifact, indent=2))
    for key, cell in cells.items():
        print(f"\n  {key}: {cell['wall_seconds']:.2f} s "
              f"(runs {cell['wall_seconds_runs']})", end="")
    print(f"\nexec grid ({cpus} cpus): "
          f"process {process_speedup:.2f}x "
          f"(floor {process_floor:.2f}x), "
          f"{processed['records_per_sec']:,.0f} records/s")

    # All cells must agree on outputs (the cheap proxy here; the full
    # byte-equivalence proof lives in tests/test_exec_equivalence.py).
    assert len({(c["records"], c["gaps"]) for c in cells.values()}) == 1
    assert processed["cache_hit_rate"] > 0
    assert process_speedup >= process_floor, (
        f"workers=4 cached process run is only {process_speedup:.2f}x "
        f"over sequential (floor {process_floor:.2f}x on {cpus} cpus)"
    )
