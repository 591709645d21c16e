"""Tests for the observability layer (``repro.obs``)."""

import json

import pytest

from repro.core.collection import TwitterCollector
from repro.core.config import PipelineConfig
from repro.core.pipeline import run_pipeline
from repro.errors import RateLimitExceeded
from repro.forums.base_meter import ForumMeter
from repro.obs import (
    NULL_SPAN,
    NULL_TELEMETRY,
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    TRACE_FORMAT_VERSION,
    Telemetry,
    Tracer,
)
from repro.obs import trace as trace_mod
from repro.services.base import ServiceMeter, SimClock, wait_and_charge
from repro.types import Forum
from repro.world.scenario import ScenarioConfig, build_world

FORUM_SPANS = {f"collect/{forum.value}" for forum in Forum}
ENRICH_STAGE_SPANS = {"enrich/precompute", "enrich/senders", "enrich/urls",
                      "enrich/annotate"}
ENRICHMENT_SERVICES = ("hlr", "whois", "crtsh", "spamhaus-pdns", "ipinfo",
                       "virustotal", "gsb", "openai")


@pytest.fixture(scope="module")
def obs_run():
    """A small world run with observability enabled."""
    world = build_world(ScenarioConfig(seed=11, n_campaigns=12))
    telemetry = Telemetry.create(clock=world.clock)
    return run_pipeline(world, telemetry=telemetry)


class TestSpanNesting:
    def test_parent_child_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.finished and inner.finished

    def test_wall_and_sim_durations(self):
        clock = SimClock()
        ticks = iter([1.0, 2.5])
        tracer = Tracer(clock=clock, time_source=lambda: next(ticks))
        with tracer.span("stage"):
            clock.advance(30.0)
        (span,) = tracer.find("stage")
        assert span.wall_seconds == pytest.approx(1.5)
        assert span.sim_seconds == pytest.approx(30.0)

    def test_exception_recorded_and_span_closed(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        (span,) = tracer.find("boom")
        assert span.finished
        assert "RuntimeError" in span.attributes["error"]

    def test_manual_start_end_siblings(self):
        tracer = Tracer()
        root = tracer.start("root")
        a = tracer.start("a")
        tracer.end(a)
        b = tracer.start("b")
        tracer.end(b)
        tracer.end(root)
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_progress_sink_lines(self):
        lines = []
        tracer = Tracer(sink=lines.append)
        with tracer.span("collect"):
            pass
        assert any(line.startswith("▶ collect") for line in lines)
        assert any(line.startswith("✓ collect") for line in lines)

    def test_attributes_set_and_exported(self):
        tracer = Tracer()
        with tracer.span("stage", forum="Twitter") as span:
            span.set(posts=3)
        exported = tracer.to_dicts()[0]
        assert exported["attributes"] == {"forum": "Twitter", "posts": 3}


class TestMetrics:
    def test_counter_math(self):
        registry = MetricsRegistry()
        registry.counter("requests", service="hlr").inc()
        registry.counter("requests", service="hlr").inc(4)
        assert registry.value("requests", service="hlr") == 5
        assert registry.value("requests", service="whois") == 0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_labels_split_instruments(self):
        registry = MetricsRegistry()
        registry.counter("n", forum="a").inc()
        registry.counter("n", forum="b").inc(2)
        values = {tuple(c.labels.items()): c.value
                  for c in registry.counters()}
        assert values == {(("forum", "a"),): 1, (("forum", "b"),): 2}

    def test_null_metrics_noop(self):
        metrics = NullMetrics()
        metrics.counter("x", service="s").inc(10)
        assert metrics.to_dict() == {"counters": []}


class TestNullTracer:
    def test_shared_singleton_handle(self):
        tracer = NullTracer()
        assert tracer.span("a") is NULL_SPAN
        assert tracer.start("b") is NULL_SPAN
        with tracer.span("c") as span:
            assert span.set(x=1) is span

    def test_pipeline_allocates_no_spans_when_disabled(self, monkeypatch):
        # Any Span construction while telemetry is off is a bug: make
        # instantiation explode, then run the full pipeline without
        # telemetry.
        def _boom(*args, **kwargs):
            raise AssertionError("Span allocated with tracing disabled")

        monkeypatch.setattr(trace_mod, "Span", _boom)
        world = build_world(ScenarioConfig(seed=3, n_campaigns=4))
        run = run_pipeline(world)
        assert run.telemetry is NULL_TELEMETRY
        assert len(NULL_TELEMETRY.tracer.spans) == 0
        assert run.dataset is not None


class TestMeterSnapshots:
    def test_service_meter_snapshot_keys(self):
        clock = SimClock()
        meter = ServiceMeter(service="t", clock=clock, rate=10, burst=2,
                             quota=5)
        meter.charge()
        snapshot = meter.snapshot()
        assert snapshot["used"] == 1
        assert snapshot["remaining"] == 4
        assert snapshot["throttle_events"] == 0
        assert snapshot["last_charge_at"] == clock.now
        assert snapshot["backoff_seconds"] == 0.0

    def test_throttle_and_backoff_accounted(self):
        clock = SimClock()
        meter = ServiceMeter(service="t", clock=clock, rate=10, burst=1)
        wait_and_charge(meter)
        wait_and_charge(meter)  # second charge must wait for a refill
        snapshot = meter.snapshot()
        assert snapshot["throttle_events"] >= 1
        assert snapshot["backoff_seconds"] > 0

    def test_observer_sees_events(self):
        events = []
        clock = SimClock()
        meter = ServiceMeter(service="svc", clock=clock, rate=10, burst=1,
                             quota=2)
        meter.observer = lambda service, event, value: events.append(
            (service, event)
        )
        wait_and_charge(meter)
        wait_and_charge(meter)
        with pytest.raises(Exception):
            meter.charge()
        kinds = {event for _, event in events}
        assert {"request", "throttle", "backoff", "quota"} <= kinds
        assert all(service == "svc" for service, _ in events)

    def test_forum_meter_snapshot(self):
        clock = SimClock(start=42.0)
        meter = ForumMeter(service="tw", cap=2, clock=clock)
        meter.charge()
        assert meter.snapshot() == {
            "used": 1, "remaining": 1, "throttle_events": 0,
            "last_charge_at": 42.0,
        }
        meter.charge()
        with pytest.raises(Exception):
            meter.charge()
        assert meter.snapshot()["throttle_events"] == 1


class TestCollectionLimitations:
    def _capped_twitter(self, cap):
        import datetime as dt
        from repro.forums.base import Post
        from repro.forums.twitter import TwitterService

        service = TwitterService(meter=ForumMeter(service="tw", cap=cap))
        service.page_size = 5
        base = dt.datetime(2020, 1, 1)
        for i in range(40):
            service.add_post(Post(
                post_id=f"t{i}", forum=Forum.TWITTER, author="u",
                created_at=base + dt.timedelta(days=i * 10),
                body="smishing report",
            ))
        return service

    def test_quota_becomes_structured_limitation(self):
        service = self._capped_twitter(cap=3)
        result = TwitterCollector(service, PipelineConfig()).collect()
        assert result.limitations
        limitation = result.limitations[0]
        assert limitation.forum is Forum.TWITTER
        assert limitation.kind == "quota"
        assert limitation.service == "tw"
        assert limitation.posts_forgone > 0
        assert limitation.simulated_at is not None
        # Legacy string accounting still present for old consumers.
        assert len(result.api_errors) == len(result.limitations)

    def test_no_limitations_on_clean_run(self):
        service = self._capped_twitter(cap=500)
        result = TwitterCollector(service, PipelineConfig()).collect()
        assert result.limitations == []


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        clock = SimClock()
        telemetry = Telemetry.create(clock=clock)
        with telemetry.tracer.span("pipeline"):
            clock.advance(5.0)
            telemetry.metrics.counter("service.requests",
                                      service="hlr").inc(3)
        meter = ServiceMeter(service="hlr", clock=clock)
        meter.charge()
        telemetry.capture_meter(meter)

        path = tmp_path / "trace.json"
        telemetry.write_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["format"] == TRACE_FORMAT_VERSION == 3
        assert "profile" not in loaded
        (span,) = loaded["spans"]
        assert span["name"] == "pipeline"
        assert span["sim_seconds"] == pytest.approx(5.0)
        assert loaded["metrics"] == {"counters": [
            {"name": "service.requests", "labels": {"service": "hlr"},
             "value": 3.0}]}
        assert loaded["meters"]["hlr"]["used"] == 1


class TestPipelineTelemetry:
    def test_one_span_per_forum(self, obs_run):
        names = obs_run.telemetry.tracer.names()
        for name in FORUM_SPANS:
            assert names.count(name) == 1, name

    def test_one_span_per_enrichment_service(self, obs_run):
        """Each enrichment stage has one span; each enrichment service
        is tallied once, by the meter hook's ``service.requests``."""
        telemetry = obs_run.telemetry
        names = telemetry.tracer.names()
        for name in ENRICH_STAGE_SPANS:
            assert names.count(name) == 1, name
        assert not [name for name in names if name.startswith("enrich/")
                    and name not in ENRICH_STAGE_SPANS]
        requests = [counter for counter in telemetry.metrics.counters()
                    if counter.name == "service.requests"]
        for service in ENRICHMENT_SERVICES:
            matching = [c for c in requests
                        if c.labels == {"service": service}]
            assert len(matching) == 1 and matching[0].value > 0, service

    def test_stage_spans_nest_under_pipeline(self, obs_run):
        tracer = obs_run.telemetry.tracer
        (root,) = tracer.find("pipeline")
        (collect,) = tracer.find("collect")
        (curate,) = tracer.find("curate")
        (enrich,) = tracer.find("enrich")
        assert collect.parent_id == root.span_id
        assert curate.parent_id == root.span_id
        assert enrich.parent_id == root.span_id
        (twitter,) = tracer.find("collect/Twitter")
        assert twitter.parent_id == collect.span_id

    def test_meter_snapshots_captured(self, obs_run):
        snapshots = obs_run.telemetry.meter_snapshots
        for service in ("hlr", "whois", "crtsh", "spamhaus-pdns", "ipinfo",
                        "virustotal", "gsb", "openai"):
            assert service in snapshots
            assert snapshots[service]["used"] > 0

    def test_per_service_counters_recorded(self, obs_run):
        metrics = obs_run.telemetry.metrics
        assert metrics.value("service.requests", service="openai") > 0
        assert metrics.value("service.requests", service="hlr") > 0
        assert metrics.value("curation.records_out") == len(obs_run.dataset)

    def test_observers_detached_after_run(self, obs_run):
        assert obs_run.world.hlr.meter.observer is None
        for forum_service in obs_run.world.forums.values():
            assert forum_service.meter.observer is None

    def test_summary_renders(self, obs_run):
        summary = obs_run.telemetry.summary()
        assert "Pipeline stages" in summary
        assert "Service telemetry" in summary
        assert "openai" in summary

    def test_self_column_sums_to_root_wall(self, obs_run):
        """On a live clock every second of the root span belongs to
        exactly one row's Self, so the column adds up to the root's
        Wall (each cell is rounded to 4 places)."""
        table = obs_run.telemetry.span_table()
        rows = dict(zip(table.column("Stage"), table.rows))
        wall = table.columns.index("Wall (s)")
        root_wall = rows["pipeline"][wall]
        assert root_wall > 0
        assert sum(table.column("Self (s)")) == pytest.approx(
            root_wall, abs=1e-4 * len(rows))
