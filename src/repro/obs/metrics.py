"""Counters for pipeline runs.

A :class:`MetricsRegistry` hands out labelled :class:`Counter`
instruments keyed by ``(name, labels)``, so the same metric name can be
split per forum or per service (``service.requests{service=whois}``).
Counters are plain Python objects — no export protocol, no background
thread — and serialise to dicts for the JSON trace dump.

:class:`NullMetrics` is the disabled twin: it returns one shared no-op
counter so instrumentation sites cost one method call and allocate
nothing when observability is off.

Zero-dependency constraint: standard library only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, Any]) -> LabelKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing labelled count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}


class MetricsRegistry:
    """Get-or-create registry of labelled counters."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[LabelKey, Counter] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = Counter(name, {k: str(v) for k, v in labels.items()})
            self._counters[key] = instrument
        return instrument

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter (0.0 when never incremented)."""
        instrument = self._counters.get(_key(name, labels))
        return 0.0 if instrument is None else instrument.value

    def counters(self) -> List[Counter]:
        return list(self._counters.values())

    def to_dict(self) -> Dict[str, Any]:
        return {"counters": [c.to_dict() for c in self._counters.values()]}


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


_NULL_COUNTER = _NullCounter()


class NullMetrics:
    """Metrics disabled: one shared no-op counter, empty export."""

    enabled = False

    def counter(self, name: str, **labels: Any) -> _NullCounter:
        return _NULL_COUNTER

    def value(self, name: str, **labels: Any) -> float:
        return 0.0

    def counters(self) -> List[Counter]:
        return []

    def to_dict(self) -> Dict[str, Any]:
        return {"counters": []}
