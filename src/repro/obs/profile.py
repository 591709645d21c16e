"""Profiling helpers: latency digests and trace export.

The tracer (:mod:`repro.obs.trace`) records raw spans; the per-name
self/wall attribution over them is
:meth:`repro.obs.Telemetry.span_table`. This module holds the two
helpers around it:

* :class:`PercentileDigest` — a deterministic quantile summary (exact
  linear interpolation over the sorted sample, no sketching) so two
  runs over the same values always report the same p50/p90/p99. The
  serve queue and the investigation fleet summarise with it.
* :func:`chrome_trace` — the span tree as Chrome trace-event JSON
  (``ph: "X"`` complete events, microsecond timestamps) so any run
  opens directly in Perfetto / ``chrome://tracing``.

Wall-clock numbers are observability output, never model input: nothing
in this module feeds back into the pipeline, so none of it can leak
into a run fingerprint.

Zero-dependency constraint: standard library only.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from .trace import Span

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

