"""Unit + load-smoke tests for repro.serve: the overload-safe intake
service.

Covers the admission layer (token buckets, structured rejections), the
bounded queue, the degradation controller's mode machine, the load
generator's determinism, and one end-to-end burst smoke: 10k simulated
reports against a small queue must shed at the watermark, never exceed
the bound, recover to ``healthy``, and populate the latency digests.
"""

import pytest

from repro.errors import ConfigurationError
from repro.obs import Telemetry
from repro.serve import (
    FRONT_DOOR_REASONS,
    AdmissionController,
    AdmissionPolicy,
    BoundedQueue,
    DegradationController,
    IntakeService,
    LoadSpec,
    QueueItem,
    Request,
    ReporterBucket,
    ServeConfig,
    ServeMode,
    generate_schedule,
)
from repro.services.base import ServiceMeter, SimClock
from repro.resilience import CircuitBreaker
from repro.world.scenario import ScenarioConfig

SCENARIO = ScenarioConfig(seed=7726, n_campaigns=20)


def _item(index, *, enqueued_at=0.0, deadline=None, reporter="rep-00000"):
    return QueueItem(index=index, request_id=f"q{index:07d}",
                     reporter=reporter, post_index=index,
                     enqueued_at=enqueued_at, deadline=deadline)


class TestReporterBucket:
    def test_burst_then_refill(self):
        bucket = ReporterBucket(rate=1.0, burst=2.0, now=0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst spent
        assert bucket.try_take(1.0)      # one token back after 1s

    def test_retry_after_names_the_refill_instant(self):
        bucket = ReporterBucket(rate=0.5, burst=1.0, now=0.0)
        assert bucket.try_take(0.0)
        hint = bucket.retry_after(0.0)
        assert hint == pytest.approx(2.0)  # 1 token / 0.5 per s
        assert bucket.try_take(hint)

    def test_state_roundtrip(self):
        bucket = ReporterBucket(rate=1.0, burst=3.0, now=0.0)
        bucket.try_take(0.5)
        state = bucket.state_dict()
        clone = ReporterBucket(rate=1.0, burst=3.0,
                               now=state["refilled_at"],
                               tokens=state["tokens"])
        assert clone.state_dict() == state


class TestAdmissionController:
    def test_rate_limit_rejections_are_structured(self):
        clock = SimClock()
        control = AdmissionController(
            AdmissionPolicy(reporter_rate=1.0, reporter_burst=1.0), clock)
        assert control.admit_reporter("rep-1") is None
        control.record_accept()
        hint = control.admit_reporter("rep-1")
        assert hint is not None and hint > 0
        control.reject("q1", "rep-1", "rate_limited", "over budget",
                       mode="healthy", retry_after=hint)
        rejection = control.rejections[-1]
        assert rejection.reason == "rate_limited"
        assert rejection.retry_after == pytest.approx(hint, abs=1e-3)
        assert control.rejected_by_reason["rate_limited"] == 1
        assert control.accepted == 1

    def test_state_roundtrip_preserves_buckets_and_counts(self):
        clock = SimClock()
        control = AdmissionController(AdmissionPolicy(), clock)
        control.admit_reporter("rep-1")
        control.record_accept()
        control.reject("q1", "rep-2", "queue_full", "full", mode="healthy")
        state = control.state_dict()
        clone = AdmissionController(AdmissionPolicy(), clock)
        clone.restore_state(state)
        assert clone.accepted == 1
        assert clone.rejected_by_reason == {"queue_full": 1}
        assert clone.state_dict() == state


class TestBoundedQueue:
    def test_never_exceeds_capacity(self):
        queue = BoundedQueue(3)
        accepted = [queue.offer(_item(i)) for i in range(5)]
        assert accepted == [True, True, True, False, False]
        assert queue.depth == 3
        assert queue.max_depth == 3
        assert queue.refused == 2

    def test_fifo_order(self):
        queue = BoundedQueue(8)
        for i in range(5):
            queue.offer(_item(i))
        taken = queue.take(3)
        assert [item.index for item in taken] == [0, 1, 2]
        assert queue.depth == 2

    def test_state_roundtrip(self):
        queue = BoundedQueue(4)
        queue.offer(_item(0, deadline=12.5))
        queue.offer(_item(1))
        queue.take(1)
        state = queue.state_dict()
        clone = BoundedQueue(4)
        clone.restore_state(state)
        assert clone.state_dict() == state
        assert [item.index for item in clone.items()] == [1]


class TestDegradationController:
    def _controller(self, clock, breakers=None, meters=None):
        return DegradationController(clock, high_watermark=8,
                                     low_watermark=4,
                                     breakers=breakers or {},
                                     meters=meters or {})

    def test_shed_latches_until_low_watermark(self):
        clock = SimClock()
        ctrl = self._controller(clock)
        assert ctrl.refresh(7) is ServeMode.HEALTHY
        assert ctrl.refresh(8) is ServeMode.SHEDDING
        # Above the low watermark the latch holds even as depth falls.
        assert ctrl.refresh(5) is ServeMode.SHEDDING
        assert ctrl.refresh(4) is ServeMode.HEALTHY

    def test_open_breaker_degrades(self):
        clock = SimClock()
        breaker = CircuitBreaker("whois", clock, failure_threshold=1,
                                 cooldown=60.0)
        ctrl = self._controller(clock, breakers={"whois": breaker})
        assert ctrl.refresh(0) is ServeMode.HEALTHY
        breaker.record_failure()
        assert ctrl.refresh(0) is ServeMode.DEGRADED
        clock.advance(60.0)
        breaker.allow()
        breaker.record_success()  # closes the breaker
        assert ctrl.refresh(0) is ServeMode.HEALTHY

    def test_exhausted_quota_degrades(self):
        clock = SimClock()
        meter = ServiceMeter(service="openai", clock=clock, rate=100.0,
                             burst=100.0, quota=10)
        ctrl = self._controller(clock, meters={"openai": meter})
        assert ctrl.refresh(0) is ServeMode.HEALTHY
        for _ in range(10):
            meter.charge()
        assert ctrl.refresh(0) is ServeMode.DEGRADED

    def test_draining_wins_over_everything(self):
        clock = SimClock()
        ctrl = self._controller(clock)
        ctrl.begin_drain(9)  # above the high watermark
        assert ctrl.mode is ServeMode.DRAINING
        assert ctrl.refresh(9) is ServeMode.DRAINING
        ctrl.end_drain()
        assert ctrl.mode is ServeMode.HEALTHY

    def test_transitions_recorded_with_reasons(self):
        clock = SimClock()
        ctrl = self._controller(clock)
        ctrl.refresh(8)
        clock.advance(5.0)
        ctrl.refresh(0)
        moves = [(t.from_mode, t.to_mode) for t in ctrl.transitions]
        assert moves == [("healthy", "shedding"), ("shedding", "healthy")]
        assert "high watermark" in ctrl.transitions[0].reason

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            DegradationController(SimClock(), high_watermark=4,
                                  low_watermark=4, breakers={}, meters={})


class TestLoadGenerator:
    def test_schedule_is_deterministic(self):
        spec = LoadSpec(profile="burst", requests=300, reporters=40, seed=9)
        first = generate_schedule(spec, n_posts=50)
        again = generate_schedule(spec, n_posts=50)
        assert first == again
        assert len(first) == 300

    def test_arrivals_are_time_ordered_with_unique_ids(self):
        spec = LoadSpec(profile="spike", requests=200, reporters=30, seed=2)
        schedule = generate_schedule(spec, n_posts=50)
        times = [a.at for a in schedule]
        assert times == sorted(times)
        assert len({a.request_id for a in schedule}) == 200

    def test_profiles_differ(self):
        kwargs = dict(requests=200, reporters=30, seed=2)
        by_profile = {
            profile: generate_schedule(LoadSpec(profile=profile, **kwargs),
                                       n_posts=50)
            for profile in ("steady", "burst", "spike")
        }
        assert by_profile["steady"] != by_profile["burst"]
        assert by_profile["burst"] != by_profile["spike"]

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadSpec(profile="tsunami")
        with pytest.raises(ConfigurationError):
            LoadSpec(requests=0)
        with pytest.raises(ConfigurationError):
            LoadSpec(budget_range=(5.0, 1.0))


class TestDispatch:
    def _service(self, **config):
        return IntakeService.create(
            SCENARIO,
            load=LoadSpec(profile="steady", requests=50, reporters=10,
                          seed=3),
            config=ServeConfig(**config),
            fault_plan=None,
        )

    def test_unknown_route_is_404(self):
        service = self._service()
        assert service.dispatch(Request("GET", "/v1/nope")).status == 404

    def test_status_endpoint_tracks_lifecycle(self):
        service = self._service()
        service.run()
        state = service.state
        done = next(rid for rid, status in state.statuses.items()
                    if status == "done")
        response = service.dispatch(Request("GET", f"/v1/reports/{done}"))
        assert response.status == 200
        assert response.body["status"] == "done"
        missing = service.dispatch(Request("GET", "/v1/reports/q9999999"))
        assert missing.status == 404

    def test_health_endpoint_reports_mode(self):
        service = self._service()
        service.run()
        response = service.dispatch(Request("GET", "/v1/health"))
        assert response.status == 200
        assert response.body["mode"] == "healthy"

    def test_stats_endpoint_mirrors_stats(self):
        service = self._service()
        service.run()
        response = service.dispatch(Request("GET", "/v1/stats"))
        assert response.status == 200
        assert response.body["submitted"] == 50


class TestBurstLoadSmoke:
    """The acceptance-criteria smoke: 10k bursty reports, small queue."""

    @pytest.fixture(scope="class")
    def service(self):
        service = IntakeService.create(
            scenario=SCENARIO,
            load=LoadSpec(profile="burst", requests=10_000, reporters=2000,
                          seed=7726),
            config=ServeConfig(queue_capacity=40, batch_size=32,
                               drain_interval=20.0, commit_every=2000),
            fault_plan=None,
            telemetry_factory=lambda world: Telemetry.create(
                clock=world.clock),
        )
        service.run()
        return service

    def test_queue_depth_never_exceeds_bound(self, service):
        stats = service.stats()
        assert stats["queue"]["max_depth"] <= stats["queue"]["capacity"]

    def test_service_sheds_and_recovers(self, service):
        moves = [(t.from_mode, t.to_mode)
                 for t in service.controller.transitions]
        assert ("healthy", "shedding") in moves
        assert service.controller.mode is ServeMode.HEALTHY
        assert service.stats()["rejected_by_reason"].get("shedding", 0) > 0

    def test_every_submission_is_accounted_for(self, service):
        stats = service.stats()
        assert stats["submitted"] == 10_000
        assert stats["accepted"] + stats["shed"] == stats["submitted"]
        assert (stats["processed"] + stats["timed_out"]
                == stats["accepted"])
        front_door = sum(
            stats["rejected_by_reason"].get(reason, 0)
            for reason in FRONT_DOOR_REASONS)
        assert front_door == stats["shed"]
        assert len(service.state.rejections) >= stats["shed"]

    def test_latency_percentiles_populated(self, service):
        latency = service.stats()["latency"]
        assert latency["count"] == service.state.processed
        assert 0 < latency["p50"] <= latency["p99"]

    def test_nothing_queued_after_drain(self, service):
        assert service.queue.depth == 0
        assert service.state.statuses
        assert "queued" not in set(service.state.statuses.values())

    def test_serve_snapshot_reaches_telemetry(self, service):
        snapshot = service.telemetry.serve_snapshot
        assert snapshot["submitted"] == 10_000
        text = service.telemetry.serve_table().to_text()
        assert "Queue depth p50/p90/p99/max" in text
        transitions = service.telemetry.serve_transition_table()
        assert any("shedding" in str(row) for row in transitions.rows)


class TestDegradedOperation:
    def test_outage_faults_push_service_degraded(self):
        from repro.faults import build_fault_plan

        service = IntakeService.create(
            scenario=SCENARIO,
            load=LoadSpec(profile="burst", requests=800, reporters=150,
                          seed=11),
            config=ServeConfig(queue_capacity=64, batch_size=8,
                               drain_interval=20.0, commit_every=400),
            fault_plan=build_fault_plan("outage", seed=7726),
        )
        service.run()
        stats = service.stats()
        assert stats["degraded_batches"] > 0
        modes = {t["to_mode"] for t in stats["transitions"]}
        assert "degraded" in modes
        # Annotate-only batches still produce records, never lose them.
        assert stats["processed"] + stats["timed_out"] == stats["accepted"]

    def test_tight_budgets_time_out_in_queue(self):
        service = IntakeService.create(
            scenario=SCENARIO,
            load=LoadSpec(profile="burst", requests=800, reporters=150,
                          seed=11, budget_range=(0.5, 2.0)),
            config=ServeConfig(queue_capacity=64, batch_size=8,
                               drain_interval=20.0, commit_every=400),
            fault_plan=None,
        )
        service.run()
        stats = service.stats()
        assert stats["timed_out"] > 0
        assert stats["processed"] + stats["timed_out"] == stats["accepted"]
        reasons = {r.reason for r in service.state.rejections}
        assert "deadline" in reasons
        timed_out = [rid for rid, status in service.state.statuses.items()
                     if status == "timed_out"]
        assert len(timed_out) == stats["timed_out"]

    def test_batch_deadline_caps_enrichment_retries(self):
        """The oldest queued request's deadline rides into its batch's
        enrichment: a retry whose backoff would land past it files a
        ``deadline`` gap instead of sleeping past the caller's patience."""
        from repro.faults import build_fault_plan

        service = IntakeService.create(
            scenario=SCENARIO,
            load=LoadSpec(profile="burst", requests=800, reporters=150,
                          seed=11, budget_range=(30.0, 90.0)),
            config=ServeConfig(queue_capacity=64, batch_size=8,
                               drain_interval=20.0, commit_every=400),
            fault_plan=build_fault_plan("flaky", seed=7726),
        )
        service.run()
        assert any(gap.kind == "deadline" for gap in service.state.gaps)
        stats = service.stats()
        assert stats["processed"] + stats["timed_out"] == stats["accepted"]
