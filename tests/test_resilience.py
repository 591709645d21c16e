"""Unit tests for repro.resilience: retry policies and circuit breakers."""

import pytest

from repro.errors import (
    CircuitOpen,
    ConfigurationError,
    DeadlineExceeded,
    NotFound,
    QuotaExhausted,
    RateLimitExceeded,
    ServiceUnavailable,
)
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    RetryPolicy,
    breaker_counts,
    call_with_policy,
)
from repro.services.base import ServiceMeter, SimClock, wait_and_charge


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0,
                             jitter=0.0)
        delays = [policy.delay_for(n) for n in (1, 2, 3, 4, 5)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=10.0, jitter=0.2, seed=42)
        first = policy.delay_for(1, key="whois:url")
        again = policy.delay_for(1, key="whois:url")
        assert first == again
        assert 8.0 <= first <= 12.0
        # A different key jitters differently.
        other = policy.delay_for(1, key="whois:other-url")
        assert other != first

    def test_seed_changes_jitter(self):
        a = RetryPolicy(jitter=0.5, seed=1).delay_for(1, key="k")
        b = RetryPolicy(jitter=0.5, seed=2).delay_for(1, key="k")
        assert a != b

    def test_retry_after_hint_wins_when_longer(self):
        policy = RetryPolicy(base_delay=0.5, jitter=0.0)
        assert policy.delay_for(1, retry_after=9.0) == 9.0
        assert policy.delay_for(1, retry_after=0.1) == 0.5

    def test_should_retry_honors_retryable(self):
        policy = RetryPolicy(max_attempts=3)
        transient = ServiceUnavailable("down", service="s")
        permanent = ServiceUnavailable("gone", service="s", permanent=True)
        assert policy.should_retry(1, transient)
        assert not policy.should_retry(3, transient)  # attempts exhausted
        assert not policy.should_retry(1, permanent)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


class _Flaky:
    """Callable failing a scripted number of times before succeeding."""

    def __init__(self, failures, exc_factory=None):
        self.failures = failures
        self.calls = 0
        self.exc_factory = exc_factory or (
            lambda: ServiceUnavailable("blip", service="svc"))

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc_factory()
        return "ok"


class TestCallWithPolicy:
    def test_success_passthrough(self):
        clock = SimClock()
        result = call_with_policy(lambda: 7, policy=RetryPolicy(),
                                  clock=clock)
        assert result == 7
        assert clock.now == 0.0

    def test_retries_transient_and_advances_clock(self):
        clock = SimClock()
        flaky = _Flaky(failures=2)
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.0)
        assert call_with_policy(flaky, policy=policy, clock=clock,
                                service="svc") == "ok"
        assert flaky.calls == 3
        assert clock.now == pytest.approx(1.0 + 2.0)

    def test_exhausted_attempts_raise_with_count(self):
        clock = SimClock()
        flaky = _Flaky(failures=99)
        with pytest.raises(ServiceUnavailable) as excinfo:
            call_with_policy(flaky, policy=RetryPolicy(max_attempts=3),
                             clock=clock, service="svc")
        assert excinfo.value.resilience_attempts == 3
        assert flaky.calls == 3

    def test_non_retryable_fails_immediately(self):
        clock = SimClock()
        flaky = _Flaky(failures=99, exc_factory=lambda: QuotaExhausted(
            "quota", service="svc"))
        with pytest.raises(QuotaExhausted):
            call_with_policy(flaky, policy=RetryPolicy(max_attempts=5),
                             clock=clock)
        assert flaky.calls == 1
        assert clock.now == 0.0

    def test_rate_limit_retry_after_honored(self):
        clock = SimClock()
        flaky = _Flaky(failures=1, exc_factory=lambda: RateLimitExceeded(
            "slow down", service="svc", retry_after=30.0))
        policy = RetryPolicy(base_delay=0.1, jitter=0.0)
        assert call_with_policy(flaky, policy=policy, clock=clock) == "ok"
        assert clock.now == pytest.approx(30.0)

    def test_on_retry_observer_sees_each_backoff(self):
        clock = SimClock()
        seen = []
        call_with_policy(
            _Flaky(failures=2), policy=RetryPolicy(jitter=0.0), clock=clock,
            service="svc",
            on_retry=lambda svc, attempt, delay, exc: seen.append(
                (svc, attempt, delay)),
        )
        assert [(s, a) for s, a, _ in seen] == [("svc", 1), ("svc", 2)]

    def test_deadline_already_past_raises_before_any_attempt(self):
        clock = SimClock()
        clock.advance(100.0)
        probe = _Flaky(failures=0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            call_with_policy(probe, policy=RetryPolicy(), clock=clock,
                             service="svc", deadline=50.0)
        assert probe.calls == 0
        assert excinfo.value.resilience_attempts == 0
        assert excinfo.value.remaining == 0.0

    def test_deadline_cuts_backoff_instead_of_sleeping_past_it(self):
        clock = SimClock()
        flaky = _Flaky(failures=99)
        policy = RetryPolicy(max_attempts=10, base_delay=10.0, jitter=0.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            call_with_policy(flaky, policy=policy, clock=clock,
                             service="svc", deadline=15.0)
        # Attempt 1 fails, waits 10s; attempt 2's 20s backoff would land
        # past t=15, so the loop raises instead of sleeping.
        assert flaky.calls == 2
        assert clock.now == pytest.approx(10.0)
        assert isinstance(excinfo.value.__cause__, ServiceUnavailable)

    def test_deadline_failure_does_not_charge_the_breaker(self):
        clock = SimClock()
        clock.advance(100.0)
        breaker = CircuitBreaker("svc", clock, failure_threshold=1)
        with pytest.raises(DeadlineExceeded):
            call_with_policy(_Flaky(failures=0), policy=RetryPolicy(),
                             clock=clock, breaker=breaker, deadline=50.0)
        # The *caller* ran out of patience; the service is not at fault.
        assert breaker.state is BreakerState.CLOSED
        assert breaker.snapshot()["consecutive_failures"] == 0

    def test_deadline_in_the_future_is_invisible(self):
        clock = SimClock()
        flaky = _Flaky(failures=2)
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.0)
        assert call_with_policy(flaky, policy=policy, clock=clock,
                                deadline=1e9) == "ok"
        assert flaky.calls == 3

    def test_breaker_trips_and_fails_fast(self):
        clock = SimClock()
        breaker = CircuitBreaker("svc", clock, failure_threshold=3,
                                 cooldown=60.0)
        policy = RetryPolicy(max_attempts=1)  # one attempt per call
        for _ in range(3):
            with pytest.raises(ServiceUnavailable):
                call_with_policy(_Flaky(failures=9), policy=policy,
                                 clock=clock, breaker=breaker)
        assert breaker.state is BreakerState.OPEN
        probe = _Flaky(failures=0)
        with pytest.raises(CircuitOpen):
            call_with_policy(probe, policy=policy, clock=clock,
                             breaker=breaker)
        assert probe.calls == 0  # never reached the service


class TestBreakerCounts:
    def test_not_found_is_an_answer(self):
        assert not breaker_counts(NotFound("nope", service="s"))

    def test_permanent_block_does_not_count(self):
        blocked = ServiceUnavailable("blocked", service="s", permanent=True)
        assert not breaker_counts(blocked)

    def test_transient_and_quota_count(self):
        assert breaker_counts(ServiceUnavailable("down", service="s"))
        assert breaker_counts(QuotaExhausted("quota", service="s"))
        assert breaker_counts(RateLimitExceeded("429", service="s"))


class TestCircuitBreaker:
    def test_closed_until_threshold(self):
        breaker = CircuitBreaker("svc", SimClock(), failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker("svc", SimClock(), failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_open_rejects_until_cooldown(self):
        clock = SimClock()
        breaker = CircuitBreaker("svc", clock, failure_threshold=1,
                                 cooldown=30.0)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.fast_fails == 1
        clock.advance(29.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()  # half-open probe
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_success_closes(self):
        clock = SimClock()
        breaker = CircuitBreaker("svc", clock, failure_threshold=1,
                                 cooldown=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        clock = SimClock()
        breaker = CircuitBreaker("svc", clock, failure_threshold=3,
                                 cooldown=10.0)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()  # the probe fails: re-open immediately
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        assert not breaker.allow()

    def test_observer_sees_transitions(self):
        clock = SimClock()
        events = []
        breaker = CircuitBreaker(
            "svc", clock, failure_threshold=1, cooldown=5.0,
            observer=lambda svc, event, value: events.append(event),
        )
        breaker.record_failure()
        breaker.allow()  # fast fail
        clock.advance(5.0)
        breaker.allow()  # half-open
        breaker.record_success()
        assert events == ["open", "fast_fail", "half_open", "close"]

    def test_snapshot_shape(self):
        breaker = CircuitBreaker("svc", SimClock())
        snap = breaker.snapshot()
        assert snap == {"state": "closed", "opens": 0, "fast_fails": 0,
                        "consecutive_failures": 0, "opened_at": None,
                        "half_open_probes": 0, "half_open_successes": 0}

    def test_snapshot_counts_half_open_probes(self):
        clock = SimClock()
        breaker = CircuitBreaker("svc", clock, failure_threshold=1,
                                 cooldown=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()        # probe 1...
        breaker.record_failure()      # ...fails, re-opens
        clock.advance(10.0)
        assert breaker.allow()        # probe 2...
        breaker.record_success()      # ...succeeds, closes
        snap = breaker.snapshot()
        assert snap["half_open_probes"] == 2
        assert snap["half_open_successes"] == 1
        assert snap["state"] == "closed"

    def test_half_open_counts_survive_state_roundtrip(self):
        clock = SimClock()
        breaker = CircuitBreaker("svc", clock, failure_threshold=1,
                                 cooldown=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        state = breaker.state_dict()
        clone = CircuitBreaker("svc", clock, failure_threshold=1,
                               cooldown=5.0)
        clone.restore_state(state)
        assert clone.snapshot() == breaker.snapshot()

    def test_restore_tolerates_records_without_probe_counts(self):
        # State dicts written before the probe counters existed must
        # still restore (counters default to zero).
        clock = SimClock()
        breaker = CircuitBreaker("svc", clock)
        state = breaker.state_dict()
        state.pop("half_open_probes")
        state.pop("half_open_successes")
        breaker.restore_state(state)
        assert breaker.snapshot()["half_open_probes"] == 0


class TestMeterGuards:
    """Satellite: mis-configured meters fail loudly, not forever."""

    def test_zero_rate_meter_raises_configuration_error(self):
        meter = ServiceMeter(service="svc", clock=SimClock(), rate=0.0,
                             burst=2.0)
        meter.charge()
        meter.charge()
        with pytest.raises(ConfigurationError):
            meter.charge()

    def test_burst_still_usable_with_zero_rate(self):
        meter = ServiceMeter(service="svc", clock=SimClock(), rate=0.0,
                             burst=3.0)
        for _ in range(3):
            meter.charge()
        assert meter.used == 3

    def test_wait_and_charge_bounded(self):
        # rate high enough to dodge the charge() guard but never enough
        # to refill a whole-token deficit within the bound.
        meter = ServiceMeter(service="svc", clock=SimClock(), rate=1e-6,
                             burst=1.0)
        meter.charge()
        with pytest.raises(ConfigurationError):
            wait_and_charge(meter, max_total_wait=60.0)

    def test_wait_and_charge_still_converges_normally(self):
        meter = ServiceMeter(service="svc", clock=SimClock(), rate=10.0,
                             burst=1.0)
        meter.charge()
        waited = wait_and_charge(meter)
        assert waited > 0
        assert meter.used == 2


class TestBreakerSnapshotsOnFailedRuns:
    """Regression: breaker snapshots must survive a run that crashes.

    ``run_pipeline`` used to capture breaker state only on the success
    path, so a partially-failed run (an unexpected non-ServiceError
    escaping a stage) returned telemetry with no breaker snapshots. The
    capture now lives in a ``finally``.
    """

    def test_snapshots_captured_when_enrichment_crashes(self, monkeypatch):
        from repro.core.pipeline import run_pipeline
        from repro.obs import Telemetry
        from repro.services.virustotal import VirusTotalService
        from repro.world.scenario import ScenarioConfig, build_world

        world = build_world(ScenarioConfig(seed=13, n_campaigns=4))
        telemetry = Telemetry.create(clock=world.clock)

        def explode(self, url, precomputed=None):
            raise RuntimeError("simulated operator error")

        # A non-ServiceError escapes _guarded and aborts the run after
        # the sender stage already built (and exercised) breakers.
        monkeypatch.setattr(VirusTotalService, "scan_url", explode)
        with pytest.raises(RuntimeError, match="operator error"):
            run_pipeline(world, telemetry=telemetry)
        assert telemetry.breaker_snapshots, \
            "crashed run lost its breaker snapshots"
        assert "hlr" in telemetry.breaker_snapshots
        # Meters were captured by the same crash path too.
        assert telemetry.meter_snapshots


class TestSpansSurviveCrashes:
    """Regression: a crashed run's trace must still serialise coherently.

    Stage spans are context managers that close (stamping the error) as
    the crash propagates, and any span the crash left open on the tracer
    stack is flagged + ended by ``Tracer.abandon_open`` in the run's own
    teardown — so a partial trace always exports, and unfinished spans
    serialise with ``wall_seconds=None`` rather than a bogus zero.
    """

    def _crash_run(self):
        import json

        from repro.core.pipeline import run_pipeline
        from repro.errors import SimulatedCrash
        from repro.faults import CrashPoint, FaultPlan
        from repro.obs import Telemetry
        from repro.world.scenario import ScenarioConfig, build_world

        world = build_world(ScenarioConfig(seed=13, n_campaigns=4))
        telemetry = Telemetry.create(clock=world.clock)
        plan = FaultPlan(rules=[CrashPoint("whois", 2)], profile="crash")
        with pytest.raises(SimulatedCrash):
            run_pipeline(world, telemetry=telemetry, fault_plan=plan)
        return telemetry, json

    def test_partial_spans_captured_and_serialisable(self):
        telemetry, json_mod = self._crash_run()
        spans = {span.name: span for span in telemetry.tracer.spans}
        # The meter hook counted what the dying stage charged live
        # before the crash.
        assert telemetry.metrics.value("service.requests",
                                       service="whois") >= 1
        # The stage that died and its ancestors saw the crash
        # propagate: each context manager closed its span on the way
        # out, stamping the error.
        for name in ("enrich/urls", "enrich", "pipeline"):
            assert spans[name].finished, name
            assert "SimulatedCrash" in spans[name].attributes["error"]
        # Nothing is left open, and the whole trace exports as JSON.
        assert telemetry.tracer.open_spans() == []
        document = json_mod.loads(telemetry.to_json())
        assert document["spans"], "crashed run serialised no spans"
        assert "profile" not in document

    def test_unfinished_spans_serialise_as_none_not_zero(self):
        from repro.obs import MetricsRegistry, Telemetry
        from repro.obs.trace import Tracer

        tracer = Tracer(time_source=lambda: 0.0)
        parent = tracer.start("pipeline")
        tracer.start("enrich")   # popped unfinished by the parent's end
        tracer.end(parent)
        dumped = {span["name"]: span for span in tracer.to_dicts()}
        assert dumped["enrich"]["wall_seconds"] is None
        table = Telemetry(tracer=tracer,
                          metrics=MetricsRegistry()).span_table()
        rows = {row[0]: row for row in table.rows}
        assert rows["enrich"][1:4] == ["1 (1 unfinished)", None, None]

    def test_abandon_open_flags_error_and_empties_stack(self):
        from repro.obs.trace import Tracer

        tracer = Tracer(time_source=lambda: 0.0)
        tracer.start("pipeline")
        tracer.start("enrich")
        abandoned = tracer.abandon_open(error="SimulatedCrash: boom")
        assert [span.name for span in abandoned] == ["enrich", "pipeline"]
        assert all(span.finished for span in abandoned)
        assert all(span.attributes["abandoned"] == 1 for span in abandoned)
        assert all("SimulatedCrash" in span.attributes["error"]
                   for span in abandoned)
        assert tracer.open_spans() == []
