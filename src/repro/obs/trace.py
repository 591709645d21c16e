"""Span tracing for pipeline runs.

A :class:`Tracer` produces nested :class:`Span` records — ``pipeline →
collect/<forum> → curate → enrich → enrich/<stage>`` — each stamped
with wall-clock time (``time.perf_counter``) and, when a
:class:`~repro.services.base.SimClock` is bound, simulated time. Spans
carry free-form attributes (counts, drop reasons) and serialise to
plain dicts for JSON export.

When tracing is disabled the pipeline runs against :class:`NullTracer`,
whose ``span()`` hands back one shared, immutable no-op handle — no
``Span`` objects are allocated, so the disabled overhead is a single
method call per instrumentation site.

Zero-dependency constraint: this module may import only the standard
library (``time``) so ``repro.obs`` can be lifted into any service.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional


class Span:
    """One timed, attributed region of a pipeline run."""

    __slots__ = ("name", "span_id", "parent_id", "start_wall", "end_wall",
                 "start_sim", "end_sim", "attributes")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 start_wall: float, start_sim: Optional[float] = None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_wall = start_wall
        self.end_wall: Optional[float] = None
        self.start_sim = start_sim
        self.end_sim: Optional[float] = None
        self.attributes: Dict[str, Any] = {}

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    @property
    def finished(self) -> bool:
        return self.end_wall is not None

    @property
    def wall_seconds(self) -> Optional[float]:
        if self.end_wall is None:
            return None
        return self.end_wall - self.start_wall

    @property
    def sim_seconds(self) -> Optional[float]:
        if self.start_sim is None or self.end_sim is None:
            return None
        return self.end_sim - self.start_sim

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, wall={self.wall_seconds})"


class _SpanContext:
    """Context-manager handle pairing a tracer with an open span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.set(error=f"{exc_type.__name__}: {exc}")
        self._tracer.end(self._span)
        return False


class Tracer:
    """Collects nested spans for one run.

    ``sink``, when given, receives one human-readable progress line per
    span start/finish — the CLI points it at stderr so long runs are not
    mute. ``clock`` (anything with a ``.now`` float attribute, i.e.
    :class:`SimClock`) adds simulated-time stamps.
    """

    enabled = True

    def __init__(
        self,
        *,
        clock: Optional[Any] = None,
        sink: Optional[Callable[[str], None]] = None,
        time_source: Callable[[], float] = time.perf_counter,
    ):
        self._clock = clock
        self._sink = sink
        self._time = time_source
        self._next_id = 1
        self._stack: List[Span] = []
        self.spans: List[Span] = []

    def bind_clock(self, clock: Any) -> None:
        """Attach a simulated clock if none was bound at construction."""
        if self._clock is None:
            self._clock = clock

    def _sim_now(self) -> Optional[float]:
        return None if self._clock is None else float(self._clock.now)

    def _depth_of(self, span: Span) -> int:
        for index, open_span in enumerate(self._stack):
            if open_span.span_id == span.span_id:
                return index
        return len(self._stack)

    # -- span lifecycle -------------------------------------------------------

    def start(self, name: str, **attributes: Any) -> Span:
        """Open a span manually; pair with :meth:`end`."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, self._next_id, parent, self._time(),
                    start_sim=self._sim_now())
        self._next_id += 1
        if attributes:
            span.attributes.update(attributes)
        self._stack.append(span)
        self.spans.append(span)
        if self._sink is not None:
            self._sink(f"{'  ' * (len(self._stack) - 1)}▶ {name}")
        return span

    def end(self, span: Span) -> None:
        """Close a span (and any unclosed children left on the stack)."""
        if span.finished:
            return
        depth = self._depth_of(span)
        while self._stack and self._stack[-1].span_id != span.span_id:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        span.end_wall = self._time()
        span.end_sim = self._sim_now()
        if self._sink is not None:
            detail = f" ({span.wall_seconds:.3f}s"
            if span.sim_seconds:
                detail += f", sim {span.sim_seconds:,.0f}s"
            detail += ")"
            self._sink(f"{'  ' * depth}✓ {span.name}{detail}")

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """``with tracer.span("stage") as sp: ...`` — opens and auto-ends."""
        return _SpanContext(self, self.start(name, **attributes))

    def open_spans(self) -> List[Span]:
        """Spans started but not yet ended, outermost first."""
        return list(self._stack)

    def abandon_open(self, error: Optional[str] = None) -> List[Span]:
        """End every still-open span, flagging it ``abandoned``.

        Called from run teardown (a ``finally``) so a crashed run's
        trace is coherent: every span either finished normally or is
        explicitly marked. Spans that escaped the stack entirely (an
        unclosed child popped by an ancestor's :meth:`end`) keep
        ``end_wall=None`` — serialisation and profiling treat a None
        duration as "unfinished", never as zero.
        """
        abandoned = []
        while self._stack:
            span = self._stack[-1]
            span.set(abandoned=1)
            if error is not None:
                span.set(error=error)
            self.end(span)
            abandoned.append(span)
        return abandoned

    # -- introspection --------------------------------------------------------

    def find(self, name: str) -> List[Span]:
        """All spans with exactly this name, in start order."""
        return [s for s in self.spans if s.name == name]

    def names(self) -> List[str]:
        return [s.name for s in self.spans]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [s.to_dict() for s in self.spans]


class _NullSpan:
    """Shared no-op span handle: context manager and attribute sink."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The single no-op span every NullTracer call returns.
NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every call returns the shared no-op handle."""

    enabled = False
    spans: tuple = ()

    def bind_clock(self, clock: Any) -> None:
        pass

    def open_spans(self) -> List[Span]:
        return []

    def abandon_open(self, error: Optional[str] = None) -> List[Span]:
        return []

    def start(self, name: str, **attributes: Any) -> _NullSpan:
        return NULL_SPAN

    def end(self, span: Any) -> None:
        pass

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return NULL_SPAN

    def find(self, name: str) -> List[Span]:
        return []

    def names(self) -> List[str]:
        return []

    def to_dicts(self) -> List[Dict[str, Any]]:
        return []
