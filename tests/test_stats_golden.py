"""Golden-snapshot tests for the ``repro stats`` CLI surface.

The full stdout of ``python -m repro stats`` at a fixed seed — header
line, Pipeline stages, Service telemetry, Resilience, Cache, and Run
counters tables, plus the per-service gap report — is checked in under
``tests/golden/`` and compared byte-for-byte. Wall-clock span timings
are the one nondeterministic ingredient, so the tests freeze the
tracer's time source at 0.0 (every "Wall (s)" and "Self (s)" cell
renders as 0.00); everything else is a pure function of the seed and
the sim clock.

Regenerating after an intentional output change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest -q tests/test_stats_golden.py

then review the golden diff like any other code change.
"""

import os
from pathlib import Path

import pytest

import repro.cli as cli
import repro.obs.telemetry as telemetry_mod
from repro.obs.trace import Tracer

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "stats_seed7_none.txt": ["--seed", "7", "--campaigns", "10",
                             "--quiet", "stats"],
    "stats_seed7_flaky.txt": ["--seed", "7", "--campaigns", "10",
                              "--quiet", "--faults", "flaky", "stats"],
    "stats_seed7_workers4.txt": ["--seed", "7", "--campaigns", "10",
                                 "--quiet", "--workers", "4", "stats"],
    "stats_seed7_nocache.txt": ["--seed", "7", "--campaigns", "10",
                                "--quiet", "--no-cache", "stats"],
    "stats_seed7_epochs3.txt": ["--seed", "7", "--campaigns", "10",
                                "--quiet", "stats", "--epochs", "3"],
    "stats_seed7_hostile.txt": ["--seed", "7", "--campaigns", "10",
                                "--quiet", "--hostile", "poison", "stats"],
}


def _without_table(text: str, title: str) -> str:
    """Drop one rendered table (a blank-line-separated chunk) by title.

    The Pools table's kind and task counts legitimately differ across
    worker counts (shard fan-out), so cross-golden equivalence checks
    compare everything *around* it.
    """
    chunks = text.split("\n\n")
    return "\n\n".join(c for c in chunks
                       if c.splitlines()[0:1] != [title])


@pytest.fixture
def frozen_wall_clock(monkeypatch):
    """Pin every tracer's wall-time source so span timings are bytes."""

    def frozen_tracer(**kwargs):
        kwargs["time_source"] = lambda: 0.0
        return Tracer(**kwargs)

    monkeypatch.setattr(telemetry_mod, "Tracer", frozen_tracer)


@pytest.mark.parametrize("golden_name", sorted(CASES))
def test_stats_output_matches_golden(golden_name, frozen_wall_clock,
                                     capsys):
    argv = CASES[golden_name]
    assert cli.main(list(argv)) == 0
    output = capsys.readouterr().out
    golden_path = GOLDEN_DIR / golden_name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(output, encoding="utf-8")
        pytest.skip(f"updated golden {golden_name}")
    assert golden_path.exists(), (
        f"missing golden file {golden_path}; regenerate with "
        f"REPRO_UPDATE_GOLDEN=1 (see module docstring)"
    )
    expected = golden_path.read_text(encoding="utf-8")
    assert output == expected, (
        f"`repro stats` output diverged from {golden_name}; if the "
        f"change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )


RESUMED_GOLDEN = "stats_seed7_flaky_resumed.txt"


def test_resumed_stats_matches_golden(frozen_wall_clock, capsys, tmp_path):
    """`repro resume` stats: Checkpoint table populated, same pipeline
    numbers as the uninterrupted flaky run (resume is byte-identical),
    and all of it golden-pinned like the other surfaces."""
    run_dir = tmp_path / "ck"
    crash_argv = ["--seed", "7", "--campaigns", "10", "--quiet",
                  "--faults", "flaky", "--run-dir", str(run_dir),
                  "--kill-at", "whois:5", "stats"]
    assert cli.main(crash_argv) == 75
    capsys.readouterr()
    assert cli.main(["resume", str(run_dir)]) == 0
    output = capsys.readouterr().out
    golden_path = GOLDEN_DIR / RESUMED_GOLDEN
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(output, encoding="utf-8")
        pytest.skip(f"updated golden {RESUMED_GOLDEN}")
    assert golden_path.exists(), (
        f"missing golden file {golden_path}; regenerate with "
        f"REPRO_UPDATE_GOLDEN=1 (see module docstring)"
    )
    assert output == golden_path.read_text(encoding="utf-8"), (
        f"resumed `repro stats` output diverged from {RESUMED_GOLDEN}; "
        f"if intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )


def test_resumed_golden_covers_the_checkpoint_table():
    resumed = (GOLDEN_DIR / RESUMED_GOLDEN).read_text()
    assert "Checkpoint" in resumed
    assert "resume" in resumed
    assert "Stages restored" in resumed
    # The resumed run reports the same pipeline results as the
    # uninterrupted flaky golden: same header counts, same gap report.
    flaky = (GOLDEN_DIR / "stats_seed7_flaky.txt").read_text()
    assert resumed.splitlines()[0] == flaky.splitlines()[0]


def test_goldens_cover_cache_and_resilience_tables():
    """The checked-in snapshots really exercise the new surfaces."""
    cached = (GOLDEN_DIR / "stats_seed7_none.txt").read_text()
    assert "Cache" in cached and "Hit rate" in cached
    assert "Resilience" in cached
    uncached = (GOLDEN_DIR / "stats_seed7_nocache.txt").read_text()
    assert "cache=off" in uncached
    assert "Hit rate" not in uncached
    flaky = (GOLDEN_DIR / "stats_seed7_flaky.txt").read_text()
    assert "Enrichment gaps:" in flaky
    # Process-pool and serial runs print byte-identical stats apart
    # from the header's workers field, the precompute span's workers
    # attr, and the Pools table's pool kind and shard fan-out — the
    # golden twins are themselves an equivalence check.
    parallel = (GOLDEN_DIR / "stats_seed7_workers4.txt").read_text()
    assert "Pools" in cached and "Pools" in parallel
    assert "enrichment  ProcessPool  4" in parallel
    assert (_without_table(parallel, "Pools")
            == _without_table(cached, "Pools").replace("workers=1",
                                                       "workers=4"))


def test_hostile_golden_covers_the_quarantine_table():
    """The poison golden carries the Quarantine table and header
    quarantine count; the clean golden must carry neither — the table
    renders only when something was diverted."""
    hostile = (GOLDEN_DIR / "stats_seed7_hostile.txt").read_text()
    header = hostile.splitlines()[0]
    assert "hostile=poison" in header
    assert "quarantined=43" in header
    assert "Quarantine" in hostile
    for reason in ("reporter_flood", "poison_cluster", "oversize_body",
                   "unicode_anomaly", "malformed_url", "invalid_timestamp"):
        assert reason in hostile, f"golden lacks quarantine reason {reason}"
    clean = (GOLDEN_DIR / "stats_seed7_none.txt").read_text()
    assert "quarantined=" not in clean
    assert "Quarantine" not in clean
    # Clean-subset identity, visible in the goldens themselves: the
    # record count survives hostility byte-for-byte in both headers.
    assert " records=384 " in header and " records=384 " in \
        clean.splitlines()[0]


SERVE_ARGV =["--seed", "7", "--campaigns", "10", "--quiet", "serve",
              "--load-profile", "burst", "--requests", "800",
              "--reporters", "150", "--queue-capacity", "24",
              "--batch-size", "8"]

SERVE_CASES = {
    "serve_seed7_burst.txt": SERVE_ARGV,
    "serve_seed7_burst_flaky.txt": (["--faults", "flaky"] + SERVE_ARGV),
    "serve_seed7_burst_outage.txt": (["--faults", "outage"] + SERVE_ARGV),
}


@pytest.mark.parametrize("golden_name", sorted(SERVE_CASES))
def test_serve_output_matches_golden(golden_name, frozen_wall_clock,
                                     capsys):
    """`repro serve` stdout — header, stage table, Serve + mode-transition
    tables, queue/latency footers — golden-pinned like the stats surfaces."""
    argv = SERVE_CASES[golden_name]
    assert cli.main(list(argv)) == 0
    output = capsys.readouterr().out
    golden_path = GOLDEN_DIR / golden_name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(output, encoding="utf-8")
        pytest.skip(f"updated golden {golden_name}")
    assert golden_path.exists(), (
        f"missing golden file {golden_path}; regenerate with "
        f"REPRO_UPDATE_GOLDEN=1 (see module docstring)"
    )
    assert output == golden_path.read_text(encoding="utf-8"), (
        f"`repro serve` output diverged from {golden_name}; if the "
        f"change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )


def test_serve_golden_covers_the_serve_tables():
    """The checked-in serve snapshot really shows the overload story:
    queue-depth percentiles, shed accounting, and the full
    shed-and-recover mode cycle."""
    served = (GOLDEN_DIR / "serve_seed7_burst.txt").read_text()
    assert "Serve" in served
    assert "Queue depth p50/p90/p99/max" in served
    assert "Intake latency p50/p99 (sim s)" in served
    assert "Serve mode transitions" in served
    assert "breached high watermark" in served
    assert "recovered: queue depth" in served
    assert "shedding=" in served  # shed counts broken down by reason
    # The outage twin degrades on enrichment-tier pressure: an open
    # breaker moves a healthy service to annotate-only, and the reason
    # names the breaker. (The flaky twin's breakers never open.)
    outage = (GOLDEN_DIR / "serve_seed7_burst_outage.txt").read_text()
    degrades = [line.split(None, 3) for line in outage.splitlines()
                if line.split()[1:3] == ["healthy", "degraded"]]
    assert degrades, "outage golden has no healthy → degraded transition"
    assert all(reason.startswith("breaker virustotal open")
               for _at, _from, _to, reason in degrades)


INVESTIGATE_BASE = ["--seed", "7", "--campaigns", "30", "--quiet"]
INVESTIGATE_SUB = ["investigate", "--playbook", "full-funnel",
                   "--sample", "120"]

INVESTIGATE_CASES = {
    "investigate_seed7_full.txt": INVESTIGATE_BASE + INVESTIGATE_SUB,
    "investigate_seed7_process4.txt": (
        INVESTIGATE_BASE + ["--workers", "4"] + INVESTIGATE_SUB),
}


@pytest.mark.parametrize("golden_name", sorted(INVESTIGATE_CASES))
def test_investigate_output_matches_golden(golden_name, frozen_wall_clock,
                                           capsys):
    """`repro investigate` stdout — header, stage table, Investigations
    table, fleet fingerprint — golden-pinned like the other surfaces."""
    argv = INVESTIGATE_CASES[golden_name]
    assert cli.main(list(argv)) == 0
    output = capsys.readouterr().out
    golden_path = GOLDEN_DIR / golden_name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(output, encoding="utf-8")
        pytest.skip(f"updated golden {golden_name}")
    assert golden_path.exists(), (
        f"missing golden file {golden_path}; regenerate with "
        f"REPRO_UPDATE_GOLDEN=1 (see module docstring)"
    )
    assert output == golden_path.read_text(encoding="utf-8"), (
        f"`repro investigate` output diverged from {golden_name}; if the "
        f"change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )


def test_investigate_golden_covers_the_investigations_table():
    """The checked-in investigate snapshot really shows the fleet story:
    funnel outcomes, evidence accounting, steps run, and — across
    the serial/process twins — the pool-equivalence fingerprint."""
    full = (GOLDEN_DIR / "investigate_seed7_full.txt").read_text()
    header = full.splitlines()[0]
    assert "playbook=full-funnel" in header
    assert "scans=" in header and "scan_gaps=" in header
    assert "Investigations" in full
    assert "Funnel depth distribution" in full
    assert "Evidence packages" in full
    steps = next(line for line in full.splitlines()
                 if line.startswith("Steps run"))
    assert "hash_and_scan=" in steps
    assert "(ms)" not in full
    assert "investigate fingerprint=" in full

    def fingerprint(text):
        return next(line for line in text.splitlines()
                    if line.startswith("investigate fingerprint="))

    # The process-pool twin is the worker-count equivalence guarantee,
    # visible in the goldens themselves: same fleet fingerprint, only
    # the header's workers field, the probe span and the Pool row differ.
    process = (GOLDEN_DIR / "investigate_seed7_process4.txt").read_text()
    assert "workers=4" in process.splitlines()[0]
    assert "ProcessPool × 4" in process
    assert fingerprint(process) == fingerprint(full)


def test_stream_golden_covers_the_epoch_table():
    """`repro stats --epochs 3` pins the Stream/Epoch surface: one row
    per epoch, the ledger summary line, and the stream fingerprint."""
    streamed = (GOLDEN_DIR / "stats_seed7_epochs3.txt").read_text()
    assert "epochs=3" in streamed.splitlines()[0]
    assert "Stream" in streamed
    assert "(ledger)" in streamed
    assert "stream/epoch" in streamed  # per-epoch spans in the stage table
    for epoch_index in ("0", "1", "2"):
        assert any(line.strip().startswith(epoch_index)
                   for line in streamed.splitlines()), (
            f"no Stream-table row for epoch {epoch_index}")
