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
checkable from the outside.
"""

import json

import pytest

from repro.faults import build_fault_plan
from repro.serve import (
    FRONT_DOOR_REASONS,
    LoadSpec,
    ServeConfig,
    charged_calls,
    run_killed_then_resumed,
    run_to_completion,
    serve_fingerprint,
)
from repro.world.scenario import ScenarioConfig

SCENARIO = ScenarioConfig(seed=7726, n_campaigns=12)
LOAD = LoadSpec(profile="burst", requests=400, reporters=80, seed=11)
CONFIG = ServeConfig(queue_capacity=64, batch_size=8, drain_interval=20.0,
                     commit_every=50)


def _kwargs(faults, *, workers=1, load=LOAD):
    from repro.exec import ExecutionPolicy

    return dict(
        scenario=SCENARIO,
        load=load,
        config=CONFIG,
        fault_plan=build_fault_plan(faults, seed=3),
        execution=ExecutionPolicy(workers=workers),
    )


@pytest.fixture(scope="module")
def baselines():
    """One uninterrupted reference run per fault profile."""
    return {faults: run_to_completion(**_kwargs(faults))
            for faults in ("flaky", "outage")}


class TestKillResumeEquivalence:
    @pytest.mark.parametrize("faults", ["flaky", "outage"])
    @pytest.mark.parametrize("kill_at", [60, 211])
    def test_fingerprint_stable_across_kill(self, tmp_path, baselines,
                                            faults, kill_at):
        resumed = run_killed_then_resumed(
            tmp_path / f"serve-{faults}-{kill_at}", kill_at=kill_at,
            **_kwargs(faults))
        assert serve_fingerprint(resumed) == serve_fingerprint(
            baselines[faults])

    @pytest.mark.parametrize("faults", ["flaky", "outage"])
    def test_zero_duplicate_charges(self, tmp_path, baselines, faults):
        resumed = run_killed_then_resumed(
            tmp_path / f"serve-{faults}", kill_at=130, **_kwargs(faults))
        assert charged_calls(resumed) == charged_calls(baselines[faults])

    def test_double_kill_still_converges(self, tmp_path, baselines):
        from repro.errors import SimulatedCrash
        from repro.serve import IntakeService

        serve_dir = tmp_path / "serve-twice"
        first = IntakeService.create(serve_dir=serve_dir, kill_at=90,
                                     **_kwargs("flaky"))
        with pytest.raises(SimulatedCrash):
            first.run()
        second = IntakeService.load(serve_dir, kill_at=260)
        with pytest.raises(SimulatedCrash):
            second.run()
        third = IntakeService.load(serve_dir)
        third.run()
        assert serve_fingerprint(third) == serve_fingerprint(
            baselines["flaky"])


class TestWorkerEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_never_changes_results(self, baselines, workers):
        parallel = run_to_completion(**_kwargs("flaky", workers=workers))
        assert serve_fingerprint(parallel) == serve_fingerprint(
            baselines["flaky"])

    def test_workers_and_kill_compose(self, tmp_path, baselines):
        resumed = run_killed_then_resumed(
            tmp_path / "serve-w2", kill_at=211,
            **_kwargs("flaky", workers=2))
        assert serve_fingerprint(resumed) == serve_fingerprint(
            baselines["flaky"])

    def test_process_pool_survives_kill_resume(self, tmp_path):
        """SERVE.json records the whole execution policy: a killed
        process-pool service resumes on the process pool."""
        from repro.exec import ExecutionPolicy

        kwargs = dict(
            scenario=ScenarioConfig(seed=7, n_campaigns=4),
            load=LoadSpec(profile="steady", requests=60, reporters=10,
                          seed=3),
            config=ServeConfig(batch_size=8, commit_every=20),
            execution=ExecutionPolicy(workers=2, pool="process"),
        )
        resumed = run_killed_then_resumed(tmp_path / "serve-proc",
                                          kill_at=30, **kwargs)
        assert resumed.policy.pool == "process"
        assert serve_fingerprint(resumed) == serve_fingerprint(
            run_to_completion(**kwargs))


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
        base = run_to_completion(**_kwargs("flaky", load=load))
        assert base.stats()["timed_out"] > 0
        resumed = run_killed_then_resumed(
            tmp_path / "serve-deadline", kill_at=211,
            **_kwargs("flaky", load=load))
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
