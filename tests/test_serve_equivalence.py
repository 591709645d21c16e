"""Differential chaos-under-load proofs for the intake service.

The serve layer's headline guarantee: a server killed mid-schedule and
resumed from its last durable commit converges on *byte-identical*
observable state to a server that was never interrupted — same dataset
rows, annotations, gap/rejection ledgers, request statuses, dedup
lineage, mode-transition history, latency digests, final clock, and
(exactly-once billing) the same per-service charged-call totals. The
matrix here crosses fault profiles × kill points × worker counts and
asserts `serve_fingerprint` equality for every cell, plus the shed
accounting invariants that make "no report lost, none double-processed"
checkable from the outside. Runs go through the serve row of the shared
differential harness (``tests.differential``): each kill is an
``arrival`` crash point, and each uninterrupted baseline runs once per
test session.
"""

import json
import pickle

import pytest

from repro.errors import SimulatedCrash
from repro.exec import ExecutionPolicy
from repro.faults import CrashPoint, build_fault_plan
from repro.serve import (
    FRONT_DOOR_REASONS,
    IntakeService,
    LoadSpec,
    ServeConfig,
    serve_fingerprint,
)
from repro.world.scenario import ScenarioConfig

from tests.differential import SERVE, baseline, kill_then_resume

SCENARIO = ScenarioConfig(seed=7726, n_campaigns=12)
LOAD = LoadSpec(profile="burst", requests=400, reporters=80, seed=11)
CONFIG = ServeConfig(queue_capacity=64, batch_size=8, drain_interval=20.0,
                     commit_every=50)


def _args(faults, *, workers=1, load=LOAD):
    """(scenario, faults, policy) and the shape of one serve run."""
    return ((SCENARIO, build_fault_plan(faults, seed=3),
             ExecutionPolicy(workers=workers)),
            dict(load=load, config=CONFIG))


def _baseline(faults, **kwargs):
    run, shape = _args(faults, **kwargs)
    return baseline(SERVE, *run, **shape)


def _killed_then_resumed(directory, kill_at, faults, **kwargs):
    run, shape = _args(faults, **kwargs)
    return kill_then_resume(SERVE, directory, *run,
                            kill=CrashPoint("arrival", kill_at), **shape)


@pytest.fixture(scope="module")
def baselines():
    """One uninterrupted reference run per fault profile."""
    return {faults: _baseline(faults) for faults in ("flaky", "outage")}


class TestKillResumeEquivalence:
    @pytest.mark.parametrize("faults", ["flaky", "outage"])
    @pytest.mark.parametrize("kill_at", [60, 211])
    def test_fingerprint_stable_across_kill(self, tmp_path, baselines,
                                            faults, kill_at):
        resumed = _killed_then_resumed(
            tmp_path / f"serve-{faults}-{kill_at}", kill_at, faults)
        assert serve_fingerprint(resumed) == serve_fingerprint(
            baselines[faults])

    @pytest.mark.parametrize("faults", ["flaky", "outage"])
    def test_zero_duplicate_charges(self, tmp_path, baselines, faults):
        resumed = _killed_then_resumed(tmp_path / f"serve-{faults}", 130,
                                       faults)
        assert SERVE.charged(resumed) == SERVE.charged(baselines[faults])

    def test_double_kill_still_converges(self, tmp_path, baselines):
        """A reopened service killed again still converges."""
        (scenario, faults, policy), shape = _args("flaky")
        serve_dir = tmp_path / "serve-twice"
        with pytest.raises(SimulatedCrash):
            SERVE.start(scenario, faults.extended(CrashPoint("arrival", 90)),
                        policy, serve_dir, **shape)
        with pytest.raises(SimulatedCrash):
            SERVE.resume(serve_dir, kill_at=CrashPoint("arrival", 260))
        third = SERVE.resume(serve_dir)
        assert serve_fingerprint(third) == serve_fingerprint(
            baselines["flaky"])

    def test_resume_holds_exactly_the_committed_cache_entries(self,
                                                              tmp_path):
        """A reopened service's cache is the last commit's, seeded, not
        stored. A load that dropped them would still converge, because
        the precompute recomputes what the cache lacks, so only the
        cache itself shows it."""
        (scenario, faults, policy), shape = _args("flaky")
        serve_dir = tmp_path / "serve-cache"
        with pytest.raises(SimulatedCrash):
            SERVE.start(scenario, faults.extended(CrashPoint("arrival", 211)),
                        policy, serve_dir, **shape)
        committed = pickle.loads(
            (serve_dir / "state.pkl").read_bytes())["cache_entries"]
        assert committed  # the last commit before the kill holds 25
        cache = IntakeService.load(serve_dir).stages.cache
        assert cache.export_entries() == committed
        assert cache.stats()["totals"] == {
            "hits": 0, "misses": 0, "stores": 0, "seeded": len(committed)}


class TestHostileKillResume:
    def test_sanitizer_counters_survive_a_commit(self, tmp_path):
        """The serve sanitizer's flood and cluster counters latch across
        batches, so a poisoned spike killed mid-schedule must resume
        with the counters its last commit held: it then quarantines
        what the uninterrupted run does. It is the one serve cell with
        hostile input."""
        run = (ScenarioConfig(seed=11, n_campaigns=20, hostile="poison"),
               None, None)
        shape = dict(load=LoadSpec(profile="spike", requests=6000,
                                   reporters=500, seed=11),
                     config=ServeConfig(queue_capacity=30,
                                        commit_every=250))
        resumed = kill_then_resume(SERVE, tmp_path / "serve-poison", *run,
                                   kill=CrashPoint("arrival", 3100), **shape)
        base = baseline(SERVE, *run, **shape)
        assert resumed.state.quarantined == base.state.quarantined == 27
        assert serve_fingerprint(resumed) == serve_fingerprint(base)

    def test_quarantine_pressure_survives_a_commit(self, tmp_path):
        """The controller reads the last batch's quarantine rate, so a
        poisoned spike committed and killed at arrival 5217 must resume
        with the rate its commit held: the pressure signal then moves
        the service through the modes the uninterrupted run moves it
        through."""
        run = (ScenarioConfig(seed=11, n_campaigns=20, hostile="poison"),
               None, None)
        shape = dict(load=LoadSpec(profile="spike", requests=6000,
                                   reporters=500, seed=11),
                     config=ServeConfig(queue_capacity=30,
                                        commit_every=5217))
        resumed = kill_then_resume(SERVE, tmp_path / "serve-pressure", *run,
                                   kill=CrashPoint("arrival", 5217), **shape)
        assert serve_fingerprint(resumed) == serve_fingerprint(
            baseline(SERVE, *run, **shape))


class TestWorkerEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_never_changes_results(self, baselines, workers):
        parallel = _baseline("flaky", workers=workers)
        assert serve_fingerprint(parallel) == serve_fingerprint(
            baselines["flaky"])

    def test_workers_and_kill_compose(self, tmp_path, baselines):
        resumed = _killed_then_resumed(tmp_path / "serve-w2", 211, "flaky",
                                       workers=2)
        assert serve_fingerprint(resumed) == serve_fingerprint(
            baselines["flaky"])

    def test_process_pool_survives_kill_resume(self, tmp_path):
        """SERVE.json records the whole execution policy: a killed
        2-worker service resumes on a 2-worker process pool."""
        run = (ScenarioConfig(seed=7, n_campaigns=4), None,
               ExecutionPolicy(workers=2))
        shape = dict(load=LoadSpec(profile="steady", requests=60,
                                   reporters=10, seed=3),
                     config=ServeConfig(batch_size=8, commit_every=20))
        resumed = kill_then_resume(SERVE, tmp_path / "serve-proc", *run,
                                   kill=CrashPoint("arrival", 30), **shape)
        assert resumed.policy == run[2]
        assert serve_fingerprint(resumed) == serve_fingerprint(
            baseline(SERVE, *run, **shape))


class TestShedAccounting:
    @pytest.mark.parametrize("faults", ["flaky", "outage"])
    def test_every_report_accounted(self, baselines, faults):
        service = baselines[faults]
        stats = service.stats()
        assert stats["accepted"] + stats["shed"] == stats["submitted"]
        assert (stats["processed"] + stats["timed_out"]
                == stats["accepted"])
        front_door = [r for r in service.state.rejections
                      if r.reason in FRONT_DOOR_REASONS]
        assert len(front_door) == stats["shed"]
        # Every rejection names its request, reporter, and service mode.
        for rejection in service.state.rejections:
            assert rejection.request_id and rejection.reporter
            assert rejection.mode in ("healthy", "degraded", "shedding",
                                      "draining")

    def test_statuses_partition_the_submissions(self, baselines):
        service = baselines["flaky"]
        stats = service.stats()
        statuses = list(service.state.statuses.values())
        assert len(statuses) == stats["submitted"]
        assert statuses.count("done") == stats["processed"]
        assert statuses.count("timed_out") == stats["timed_out"]
        assert statuses.count("rejected") == stats["shed"]

    def test_tight_deadlines_survive_kill_resume(self, tmp_path):
        load = LoadSpec(profile="burst", requests=400, reporters=80,
                        seed=11, budget_range=(1.0, 40.0))
        base = _baseline("flaky", load=load)
        assert base.stats()["timed_out"] > 0
        resumed = _killed_then_resumed(tmp_path / "serve-deadline", 211,
                                       "flaky", load=load)
        assert serve_fingerprint(resumed) == serve_fingerprint(base)


class TestFingerprintSensitivity:
    """The fingerprint must actually see behaviour, not vacuously agree."""

    def test_fault_profiles_fingerprint_differently(self, baselines):
        assert (serve_fingerprint(baselines["flaky"])
                != serve_fingerprint(baselines["outage"]))

    def test_fingerprint_is_valid_canonical_json(self, baselines):
        payload = json.loads(serve_fingerprint(baselines["flaky"]))
        assert set(payload) >= {"rows", "annotations", "gaps", "rejections",
                                "statuses", "charged", "transitions",
                                "counters", "clock_now"}
