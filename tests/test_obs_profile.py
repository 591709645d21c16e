"""Unit tests for the performance observatory's analysis layer.

Covers the percentile digest, self/cumulative hot-path attribution and
Chrome trace export.
"""

import json

import pytest

from repro.obs.profile import (
    PercentileDigest,
    build_profile,
    chrome_trace,
)
from repro.obs.trace import Tracer


def _fake_clock():
    """A controllable time source: returns, then advances."""
    state = {"now": 0.0}

    def advance(seconds):
        state["now"] += seconds

    return (lambda: state["now"]), advance


class TestPercentileDigest:
    def test_empty_digest_answers_none(self):
        digest = PercentileDigest()
        assert digest.count == 0
        assert digest.p50 is None and digest.p90 is None
        assert digest.min is None and digest.mean is None

    def test_single_value_is_every_quantile(self):
        digest = PercentileDigest([3.5])
        assert digest.p50 == digest.p90 == digest.p99 == 3.5

    def test_median_interpolates(self):
        digest = PercentileDigest([1.0, 2.0, 3.0, 4.0])
        assert digest.p50 == pytest.approx(2.5)

    def test_quantiles_match_known_sample(self):
        digest = PercentileDigest(range(101))  # 0..100
        assert digest.quantile(0.0) == 0
        assert digest.p50 == pytest.approx(50.0)
        assert digest.p90 == pytest.approx(90.0)
        assert digest.p99 == pytest.approx(99.0)
        assert digest.quantile(1.0) == 100

    def test_add_after_query_resorts(self):
        digest = PercentileDigest([5.0, 1.0])
        assert digest.p50 == pytest.approx(3.0)
        digest.add(0.0)
        assert digest.p50 == pytest.approx(1.0)

    def test_merge_combines_samples(self):
        left = PercentileDigest([1.0, 2.0])
        right = PercentileDigest([3.0, 4.0])
        left.merge(right)
        assert left.count == 4
        assert left.p50 == pytest.approx(2.5)

    def test_rejects_out_of_range_quantile(self):
        with pytest.raises(ValueError):
            PercentileDigest([1.0]).quantile(1.5)


class TestBuildProfile:
    def test_self_time_excludes_direct_children(self):
        now, advance = _fake_clock()
        tracer = Tracer(time_source=now)
        parent = tracer.start("enrich")
        advance(1.0)                     # parent-only work
        child = tracer.start("enrich/urls")
        advance(3.0)                     # child work
        tracer.end(child)
        advance(0.5)                     # more parent-only work
        tracer.end(parent)

        profile = build_profile(tracer.spans)
        enrich = profile.stages["enrich"]
        urls = profile.stages["enrich/urls"]
        assert enrich.cum_seconds == pytest.approx(4.5)
        assert enrich.self_seconds == pytest.approx(1.5)
        assert urls.self_seconds == pytest.approx(3.0)
        assert profile.total_seconds == pytest.approx(4.5)

    def test_stages_aggregate_by_name(self):
        now, advance = _fake_clock()
        tracer = Tracer(time_source=now)
        for seconds in (1.0, 2.0, 3.0):
            span = tracer.start("collect/Twitter")
            advance(seconds)
            tracer.end(span)
        profile = build_profile(tracer.spans)
        stage = profile.stages["collect/Twitter"]
        assert stage.count == 3
        assert stage.cum_seconds == pytest.approx(6.0)
        assert stage.durations.p50 == pytest.approx(2.0)

    def test_throughput_off_records_attribute(self):
        now, advance = _fake_clock()
        tracer = Tracer(time_source=now)
        span = tracer.start("curate")
        span.set(records_out=300)
        advance(2.0)
        tracer.end(span)
        profile = build_profile(tracer.spans)
        assert profile.stages["curate"].records_per_sec \
            == pytest.approx(150.0)

    def test_unfinished_span_counted_not_timed(self):
        now, advance = _fake_clock()
        tracer = Tracer(time_source=now)
        parent = tracer.start("pipeline")
        tracer.start("enrich")           # never ended by its owner...
        advance(1.0)
        tracer.end(parent)               # ...pops it without a timestamp
        profile = build_profile(tracer.spans)
        enrich = profile.stages["enrich"]
        assert enrich.unfinished == 1
        assert enrich.cum_seconds == 0.0
        assert enrich.durations.count == 0
        # The unfinished row is visible in the table, not dropped.
        text = profile.table().to_text()
        assert "1 unfinished" in text

    def test_hot_paths_orders_by_self_time(self):
        now, advance = _fake_clock()
        tracer = Tracer(time_source=now)
        for name, seconds in (("fast", 1.0), ("slow", 5.0), ("mid", 2.0)):
            span = tracer.start(name)
            advance(seconds)
            tracer.end(span)
        names = [s.name for s in build_profile(tracer.spans).hot_paths()]
        assert names == ["slow", "mid", "fast"]


class TestChromeTrace:
    def _trace(self):
        now, advance = _fake_clock()
        tracer = Tracer(time_source=now)
        parent = tracer.start("pipeline")
        child = tracer.start("collect", posts_seen=10)
        advance(2.0)
        tracer.end(child)
        tracer.end(parent)
        return chrome_trace(tracer.spans)

    def test_complete_events_have_required_fields(self):
        doc = self._trace()
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(spans) == 2
        for event in spans:
            assert {"name", "cat", "ph", "pid", "tid",
                    "ts", "dur", "args"} <= set(event)

    def test_microsecond_units_and_parent_links(self):
        doc = self._trace()
        collect = next(e for e in doc["traceEvents"]
                       if e["name"] == "collect")
        assert collect["dur"] == pytest.approx(2_000_000.0)
        assert collect["args"]["parent_id"] == 1
        assert collect["args"]["posts_seen"] == 10

    def test_document_is_json_serialisable(self):
        json.dumps(self._trace())

    def test_unfinished_span_becomes_flagged_instant(self):
        now, _ = _fake_clock()
        tracer = Tracer(time_source=now)
        parent = tracer.start("pipeline")
        tracer.start("enrich")
        tracer.end(parent)
        doc = chrome_trace(tracer.spans)
        enrich = next(e for e in doc["traceEvents"]
                      if e["name"] == "enrich")
        assert enrich["dur"] == 0.0
        assert enrich["args"]["unfinished"] is True

