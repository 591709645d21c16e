"""Profiling: hot-path attribution, latency digests, trace export.

This is the *analysis* half of the performance observatory. The tracer
(:mod:`repro.obs.trace`) records raw spans; this module turns them into
the numbers an optimisation effort actually needs:

* :class:`PercentileDigest` — a deterministic quantile summary (exact
  linear interpolation over the sorted sample, no sketching) so two
  runs over the same spans always report the same p50/p90/p99.
* :func:`build_profile` — per-stage **self** vs **cumulative** wall-time
  attribution: a stage's self time is its own wall time minus the wall
  time of its direct children, so ``enrich`` no longer absorbs credit
  for ``enrich/urls``. Stages aggregate by span name (the pipeline's
  span names *are* its stage/service taxonomy), carry call counts,
  latency digests over per-span durations, and records/sec throughput
  off the ``records``/``reports`` span attributes.
* :func:`chrome_trace` — the span tree as Chrome trace-event JSON
  (``ph: "X"`` complete events, microsecond timestamps) so any run
  opens directly in Perfetto / ``chrome://tracing``.

Wall-clock numbers are observability output, never model input: nothing
in this module feeds back into the pipeline, so none of it can leak
into a run fingerprint.

Zero-dependency constraint: standard library only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..utils.tables import Table
from .trace import Span

#: Span attributes that count as "records processed" for throughput,
#: first match wins (stages name their unit differently).
THROUGHPUT_ATTRS = ("records", "reports", "records_out", "posts_seen")

#: Chrome trace JSON schema marker written into ``otherData``.
CHROME_TRACE_VERSION = 1


class PercentileDigest:
    """Deterministic quantile summary of a sample.

    Keeps the raw values and answers quantiles by linear interpolation
    over the sorted sample (the classic "type 7" estimator). That makes
    every quantile a pure function of the multiset of values: invariant
    under permutation, monotone in ``q``, and bounded by min/max — the
    properties ``tests/test_properties.py`` pins.
    """

    __slots__ = ("_values", "_dirty")

    def __init__(self, values: Iterable[float] = ()):
        self._values: List[float] = [float(v) for v in values]
        self._dirty = True

    def add(self, value: float) -> None:
        self._values.append(float(value))
        self._dirty = True

    def merge(self, other: "PercentileDigest") -> None:
        self._values.extend(other._values)
        self._dirty = True

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def min(self) -> Optional[float]:
        return min(self._values) if self._values else None

    @property
    def max(self) -> Optional[float]:
        return max(self._values) if self._values else None

    @property
    def mean(self) -> Optional[float]:
        if not self._values:
            return None
        return sum(self._values) / len(self._values)

    def _sorted(self) -> List[float]:
        if self._dirty:
            self._values.sort()
            self._dirty = False
        return self._values

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile (0 <= q <= 1), or None on an empty sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile wants 0 <= q <= 1, got {q}")
        values = self._sorted()
        if not values:
            return None
        position = q * (len(values) - 1)
        lower = int(position)
        upper = min(lower + 1, len(values) - 1)
        fraction = position - lower
        return values[lower] + (values[upper] - values[lower]) * fraction

    @property
    def p50(self) -> Optional[float]:
        return self.quantile(0.50)

    @property
    def p90(self) -> Optional[float]:
        return self.quantile(0.90)

    @property
    def p99(self) -> Optional[float]:
        return self.quantile(0.99)

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "p50": self.p50, "p90": self.p90,
                "p99": self.p99, "min": self.min, "max": self.max,
                "mean": self.mean}


@dataclass
class StageProfile:
    """Aggregated timing for every span sharing one name."""

    name: str
    count: int = 0
    #: Spans that never closed (crashed/abandoned); excluded from the
    #: digests but still visible so a crash is not silently dropped.
    unfinished: int = 0
    cum_seconds: float = 0.0
    self_seconds: float = 0.0
    records: int = 0
    durations: PercentileDigest = field(default_factory=PercentileDigest)

    @property
    def records_per_sec(self) -> Optional[float]:
        """Throughput over cumulative wall time; None when unmeasurable."""
        if self.records <= 0 or self.cum_seconds <= 0.0:
            return None
        return self.records / self.cum_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "unfinished": self.unfinished,
            "cum_seconds": self.cum_seconds,
            "self_seconds": self.self_seconds,
            "records": self.records,
            "records_per_sec": self.records_per_sec,
            "latency": self.durations.to_dict(),
        }


class Profile:
    """Hot-path view of one run: stages keyed by span name."""

    def __init__(self, stages: Dict[str, StageProfile],
                 total_seconds: float):
        self.stages = stages
        #: Wall time of the root spans (spans with no parent).
        self.total_seconds = total_seconds

    def hot_paths(self) -> List[StageProfile]:
        """Stages by self time, heaviest first (name-sorted on ties)."""
        return sorted(self.stages.values(),
                      key=lambda s: (-s.self_seconds, s.name))

    def table(self) -> Table:
        """The `repro stats` "Hot paths" table."""
        table = Table(
            title="Hot paths",
            columns=["Stage", "Count", "Self (s)", "Cum (s)", "Self %",
                     "p50 (ms)", "p90 (ms)", "p99 (ms)", "Rec/s"],
        )
        total = self.total_seconds

        def _ms(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value * 1000.0, 2)

        for stage in self.hot_paths():
            share = (f"{stage.self_seconds / total:.1%}"
                     if total > 0 else None)
            rate = stage.records_per_sec
            table.add_row(
                stage.name,
                stage.count if not stage.unfinished
                else f"{stage.count} ({stage.unfinished} unfinished)",
                round(stage.self_seconds, 4),
                round(stage.cum_seconds, 4),
                share,
                _ms(stage.durations.p50),
                _ms(stage.durations.p90),
                _ms(stage.durations.p99),
                round(rate, 1) if rate is not None else None,
            )
        return table

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_seconds": self.total_seconds,
            "stages": [stage.to_dict() for stage in self.hot_paths()],
        }


def _throughput(span: Span) -> int:
    for attr in THROUGHPUT_ATTRS:
        value = span.attributes.get(attr)
        if isinstance(value, (int, float)):
            return int(value)
    return 0


def build_profile(spans: Iterable[Span]) -> Profile:
    """Aggregate spans into per-stage self/cumulative attribution.

    Self time is a span's wall time minus the wall time of its *direct*
    children; unfinished spans (``end_wall`` is None — a crashed or
    abandoned region) contribute nothing to the timings but are counted,
    so a partial trace still profiles cleanly.
    """
    spans = list(spans)
    children_seconds: Dict[int, float] = {}
    for span in spans:
        wall = span.wall_seconds
        if span.parent_id is not None and wall is not None:
            children_seconds[span.parent_id] = (
                children_seconds.get(span.parent_id, 0.0) + wall)

    stages: Dict[str, StageProfile] = {}
    total = 0.0
    for span in spans:
        stage = stages.get(span.name)
        if stage is None:
            stage = stages[span.name] = StageProfile(span.name)
        stage.count += 1
        stage.records += _throughput(span)
        wall = span.wall_seconds
        if wall is None:
            stage.unfinished += 1
            continue
        stage.cum_seconds += wall
        stage.self_seconds += max(
            0.0, wall - children_seconds.get(span.span_id, 0.0))
        stage.durations.add(wall)
        if span.parent_id is None:
            total += wall
    return Profile(stages, total)


def chrome_trace(spans: Iterable[Span], *,
                 process_name: str = "repro") -> Dict[str, Any]:
    """The span tree as a Chrome trace-event JSON document.

    Every finished span becomes one complete (``ph: "X"``) event with
    microsecond ``ts``/``dur``; unfinished spans become zero-duration
    instants flagged ``unfinished`` so crashes remain visible on the
    timeline. Open the file in Perfetto or ``chrome://tracing``.
    """
    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
        "args": {"name": process_name},
    }]
    for span in spans:
        args = {key: value for key, value in span.attributes.items()
                if isinstance(value, (str, int, float, bool))}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        event = {
            "name": span.name,
            "cat": span.name.split("/", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": round(span.start_wall * 1e6, 3),
            "dur": (round(span.wall_seconds * 1e6, 3)
                    if span.wall_seconds is not None else 0.0),
            "args": args,
        }
        if span.end_wall is None:
            event["args"]["unfinished"] = True
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"format": CHROME_TRACE_VERSION,
                      "producer": "repro.obs.profile"},
    }

