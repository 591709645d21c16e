"""Unit tests for the performance observatory's analysis layer.

Covers the percentile digest, the stage table's per-name count, wall
and self-time attribution, and Chrome trace export.
"""

import json

import pytest

from repro.obs import MetricsRegistry, Telemetry
from repro.obs.profile import PercentileDigest, chrome_trace
from repro.obs.trace import Tracer


def _fake_clock():
    """A controllable time source: returns, then advances."""
    state = {"now": 0.0}

    def advance(seconds):
        state["now"] += seconds

    return (lambda: state["now"]), advance


def _stage_rows(tracer):
    """``Telemetry.span_table`` over ``tracer``'s spans, keyed by Stage."""
    table = Telemetry(tracer=tracer, metrics=MetricsRegistry()).span_table()
    return {row[0]: dict(zip(table.columns, row)) for row in table.rows}


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
    """The per-name profile ``Telemetry.span_table`` builds: one row per
    span name with its count and its summed wall and self seconds."""

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

        rows = _stage_rows(tracer)
        assert list(rows) == ["enrich", "enrich/urls"]
        assert rows["enrich"]["Wall (s)"] == pytest.approx(4.5)
        assert rows["enrich"]["Self (s)"] == pytest.approx(1.5)
        assert rows["enrich/urls"]["Self (s)"] == pytest.approx(3.0)

    def test_stages_aggregate_by_name(self):
        now, advance = _fake_clock()
        tracer = Tracer(time_source=now)
        for seconds in (1.0, 2.0, 3.0):
            span = tracer.start("collect/Twitter", posts_seen=1)
            advance(seconds)
            tracer.end(span)
        rows = _stage_rows(tracer)
        assert list(rows) == ["collect/Twitter"]
        row = rows["collect/Twitter"]
        assert row["Count"] == 3
        assert row["Wall (s)"] == pytest.approx(6.0)
        assert row["Self (s)"] == pytest.approx(6.0)
        # A repeated name shows no attributes; the trace keeps each span's.
        assert row["Detail"] is None

    def test_unfinished_span_counted_not_timed(self):
        now, advance = _fake_clock()
        tracer = Tracer(time_source=now)
        parent = tracer.start("pipeline")
        tracer.start("enrich")           # never ended by its owner...
        advance(1.0)
        tracer.end(parent)               # ...pops it without a timestamp
        rows = _stage_rows(tracer)
        assert rows["enrich"]["Count"] == "1 (1 unfinished)"
        assert rows["enrich"]["Wall (s)"] is None
        assert rows["enrich"]["Self (s)"] is None
        # The unfinished child subtracts nothing from its parent.
        assert rows["pipeline"]["Self (s)"] == pytest.approx(1.0)


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

