"""Observability for the reproduction pipeline (tracing + metrics).

The package is deliberately zero-dependency (standard library only, plus
the in-repo table renderer) and splits into four layers:

* :mod:`repro.obs.trace` — nested spans with wall-clock and simulated
  timestamps, and a no-op tracer for disabled runs.
* :mod:`repro.obs.metrics` — labelled counters.
* :mod:`repro.obs.profile` — deterministic latency percentile digests
  and Chrome trace export.
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade the
  pipeline threads through its stages, meter event hooks, JSON export,
  and the ``repro stats`` summary tables, whose one stage table gives
  each span name its count and wall, self and simulated seconds.
"""

from .metrics import Counter, MetricsRegistry, NullMetrics
from .trace import NULL_SPAN, NullTracer, Span, Tracer
from .profile import PercentileDigest, chrome_trace
from .telemetry import (
    NULL_TELEMETRY,
    TRACE_FORMAT_VERSION,
    Telemetry,
    ensure_telemetry,
    stderr_sink,
)

__all__ = [
    "Counter",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_SPAN",
    "NullTracer",
    "Span",
    "Tracer",
    "PercentileDigest",
    "chrome_trace",
    "NULL_TELEMETRY",
    "TRACE_FORMAT_VERSION",
    "Telemetry",
    "ensure_telemetry",
    "stderr_sink",
]
