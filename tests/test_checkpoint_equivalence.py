"""Differential kill harness for checkpoint/resume's headline guarantee.

A checkpointed run killed hard at *any* journal write boundary — the
collection barrier, the curation barrier, any per-lookup record, even
the final ``complete`` record — must, after ``resume_pipeline``,
produce a :class:`~repro.core.pipeline.PipelineRun` byte-identical to a
run that never crashed: same rows, gaps, limitations, report, meter
charges, and final sim-clock position (``tests.fingerprints`` covers
all of it). And the resume must do so with **zero duplicate charged
service calls**: the crashed run's live request count plus the resumed
run's equals the uninterrupted run's exactly.

The harness crashes via the journal's own kill counter
(``kill_after_writes=N`` raises :class:`SimulatedCrash` — a
``BaseException``, so no handler in the pipeline can absorb it —
immediately after the Nth durable append), which places a kill point at
every boundary a real ``kill -9`` could land on. One tiny world is
killed at *every* write; a seeds × fault-profiles × worker-counts grid
is killed at sampled boundaries (first writes, mid-journal, the last
two writes) to keep wall time sane. Runs go through the batch row of
the shared differential harness (``tests.differential``), which caches
each uninterrupted baseline once per test session.
"""

import json

import pytest

from repro.checkpoint import MANIFEST_NAME
from repro.errors import SimulatedCrash
from repro.exec import ExecutionPolicy
from repro.faults import CrashPoint, build_fault_plan
from repro.obs import Telemetry
from repro.world.scenario import ScenarioConfig

from tests.differential import (
    BATCH,
    baseline,
    journal_writes,
    kill_then_resume,
)

#: Dense config: small enough to kill at every single journal write.
_TINY = ScenarioConfig(seed=3, n_campaigns=2, include_sbi_burst=False)
#: Grid config: big enough to exercise retries/breakers under faults.
_GRID = ScenarioConfig(seed=0, n_campaigns=3, include_sbi_burst=False)

SEEDS = (3, 11)
PROFILES = ("flaky", "outage")
POLICIES = (ExecutionPolicy(workers=1), ExecutionPolicy(workers=4))
_SERIAL = POLICIES[0]

_SERVICES = ("hlr", "whois", "crtsh", "passivedns", "ipinfo",
             "virustotal", "gsb", "openai")


def _scenario(seed: int) -> ScenarioConfig:
    return ScenarioConfig(seed=seed, n_campaigns=_GRID.n_campaigns,
                          include_sbi_burst=_GRID.include_sbi_burst)


def _faults(scenario, profile):
    return build_fault_plan(profile, seed=scenario.seed)


def _baseline(scenario, profile, policy):
    """Fingerprint of the uninterrupted, *uncheckpointed* run."""
    return BATCH.fingerprint(baseline(BATCH, scenario,
                                      _faults(scenario, profile), policy))


def _sampled_kill_points(writes):
    """Stage barriers, early lookups, mid-journal, and the final writes."""
    points = {1, 2, 3, writes // 2, writes - 1, writes}
    return sorted(p for p in points if 1 <= p <= writes)


def test_record_mode_changes_nothing(tmp_path):
    """Journaling a run must not perturb it."""
    checkpointed, writes = journal_writes(
        _TINY, _faults(_TINY, "flaky"), _SERIAL, tmp_path / "full")
    assert BATCH.fingerprint(checkpointed) == _baseline(_TINY, "flaky",
                                                        _SERIAL)
    assert writes > 3          # two barriers + lookups + complete


def test_kill_at_every_journal_write(tmp_path):
    """The dense proof: no write boundary exists where a crash loses
    or duplicates anything."""
    plan = _faults(_TINY, "flaky")
    base = _baseline(_TINY, "flaky", _SERIAL)
    _, writes = journal_writes(_TINY, plan, _SERIAL, tmp_path / "full")
    for kill_at in range(1, writes + 1):
        resumed = kill_then_resume(BATCH, tmp_path / f"kill{kill_at}",
                                   _TINY, plan, _SERIAL, kill=kill_at)
        assert BATCH.fingerprint(resumed) == base, (
            f"diverged after crash at write {kill_at}")


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES,
                         ids=lambda p: f"workers{p.workers}")
def test_kill_grid_seeds_profiles_workers(seed, profile, policy, tmp_path):
    """Sampled kill points across the seeds × profiles × workers grid."""
    scenario = _scenario(seed)
    plan = _faults(scenario, profile)
    base = _baseline(scenario, profile, policy)
    _, writes = journal_writes(scenario, plan, policy, tmp_path / "full")
    for kill_at in _sampled_kill_points(writes):
        resumed = kill_then_resume(BATCH, tmp_path / f"kill{kill_at}",
                                   scenario, plan, policy, kill=kill_at)
        assert BATCH.fingerprint(resumed) == base, (
            f"diverged: seed={seed} profile={profile} "
            f"workers={policy.workers} crash at write {kill_at}")


def _live_requests(telemetry):
    """Per-service charged-call counts this process actually performed."""
    return {service: telemetry.metrics.value("service.requests",
                                             service=service)
            for service in _SERVICES}


def test_resume_performs_zero_duplicate_charged_calls(tmp_path):
    """crashed + resumed live request counts == uninterrupted's, per
    service — the journal replays completed lookups, it never re-buys
    them. (Meter-state equality is already inside the fingerprint; this
    checks the *process-local* work, which state restoration could
    otherwise hide.)"""
    plan = _faults(_TINY, "flaky")
    uninterrupted, crashed, resumed = (Telemetry.create() for _ in range(3))
    BATCH.start(_TINY, plan, None, telemetry=uninterrupted)
    with pytest.raises(SimulatedCrash):
        BATCH.start(_TINY, plan, None, tmp_path / "ck",
                    kill_after_writes=15, telemetry=crashed)
    BATCH.resume(tmp_path / "ck", telemetry=resumed)

    full = _live_requests(uninterrupted)
    crash_part = _live_requests(crashed)
    resume_part = _live_requests(resumed)
    combined = {s: crash_part[s] + resume_part[s] for s in _SERVICES}
    assert combined == full
    # The crash landed mid-enrichment, so both halves did real work.
    assert sum(crash_part.values()) > 0
    assert sum(resume_part.values()) > 0


def test_resumed_telemetry_reports_replays(tmp_path):
    with pytest.raises(SimulatedCrash):
        BATCH.start(_TINY, _faults(_TINY, "flaky"), None, tmp_path / "ck",
                    kill_after_writes=10)
    telemetry = Telemetry.create()
    BATCH.resume(tmp_path / "ck", telemetry=telemetry)
    snapshot = telemetry.checkpoint_snapshot
    assert snapshot["mode"] == "resume"
    assert snapshot["stages_restored"] == ["collection", "curation"]
    assert snapshot["lookups_replayed"] > 0


def test_hostile_run_resumes_on_its_hostile_world(tmp_path):
    """A ``--hostile poison`` run that crashes before the collection
    barrier must resume on the poisoned world it started on: the
    manifest's scenario carries every ScenarioConfig field, ``hostile``
    included, so the resumed world is rebuilt with the same pack."""
    scenario = ScenarioConfig(seed=7, n_campaigns=10, hostile="poison")
    plan = _faults(scenario, "none")
    policy = ExecutionPolicy()
    base = baseline(BATCH, scenario, plan, policy)
    resumed = kill_then_resume(BATCH, tmp_path / "ck", scenario, plan,
                               policy, kill=CrashPoint("Reddit", 1))
    manifest = json.loads((tmp_path / "ck" / MANIFEST_NAME).read_text())
    assert manifest["scenario"]["hostile"] == "poison"
    assert resumed.world.config == scenario
    assert (len(resumed.collection.reports),
            resumed.curation_stats.quarantined) == (1598, 43)
    assert BATCH.fingerprint(resumed) == BATCH.fingerprint(base)
    assert BATCH.charged(resumed) == BATCH.charged(base)
