"""Per-(service, subject) value memo for the enrichment precompute.

An :class:`EnrichmentCache` remembers the value one pure compute
produced — ``(service, subject)`` → an annotation or a URL scan report —
so duplicate message texts and URLs hit each service's compute path
once per run. Within a run the precompute
(:meth:`~repro.core.enrichment.Enricher._precompute`) is its only
writer: it makes each lookup the serial replay will make with
:meth:`get` and saves the misses with :meth:`store`, so a hit is a
lookup answered without a compute, under any worker count. The replay
then reads the values back with :meth:`peek`, which counts nothing.
Those values are never None, so :meth:`get` answers a miss with None.

Only values are memoised. The computes the precompute runs are pure
and cannot fail; a service call that fails files its gap in the serial
replay, which never writes here. The pool's workers only compute, and
the calling thread stores, so one thread uses the cache.

Counters (hits, misses, stores, seeded) are kept per service and flow
into :class:`~repro.obs.Telemetry` via :meth:`stats`. The cache is
unbounded: a run holds one entry per unique subject it looked up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple


@dataclass
class _ServiceCounters:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries adopted from a committed stream or serve session (see
    #: :meth:`EnrichmentCache.seed`) — reuse, not work, so kept apart
    #: from ``stores``.
    seeded: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "seeded": self.seeded}


class EnrichmentCache:
    """Per-(service, subject) value memo with usage counters."""

    def __init__(self) -> None:
        self._values: Dict[Tuple[str, str], Any] = {}
        self._counters: Dict[str, _ServiceCounters] = {}

    def _counter(self, service: str) -> _ServiceCounters:
        counter = self._counters.get(service)
        if counter is None:
            counter = self._counters[service] = _ServiceCounters()
        return counter

    # -- the memo API ---------------------------------------------------------

    def get(self, service: str, subject: str) -> Optional[Any]:
        """The value for one lookup (None on a miss), counting a hit or
        a miss."""
        value = self._values.get((service, subject))
        counter = self._counter(service)
        if value is None:
            counter.misses += 1
        else:
            counter.hits += 1
        return value

    def peek(self, service: str, subject: str) -> Optional[Any]:
        """The value without touching the hit/miss counters."""
        return self._values.get((service, subject))

    def store(self, service: str, subject: str, value: Any) -> None:
        self._values[(service, subject)] = value
        self._counter(service).stores += 1

    # -- across a durable session (repro.stream, repro.serve) -----------------

    def export_entries(self) -> Tuple[Tuple[str, str, Any], ...]:
        """Every entry as a ``(service, subject, value)`` triple, for a
        stream or serve commit to persist."""
        return tuple((service, subject, value)
                     for (service, subject), value in self._values.items())

    def seed(self, entries: Sequence[Tuple[str, str, Any]]) -> int:
        """Adopt a commit's exported entries into this (fresh) cache,
        counting each on the per-service ``seeded`` counter, not as a
        store. Returns how many entries were adopted."""
        for service, subject, value in entries:
            self._values[(service, subject)] = value
            self._counter(service).seeded += 1
        return len(entries)

    # -- introspection --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Per-service and total counters, for telemetry capture."""
        per_service = {name: counter.to_dict()
                       for name, counter in sorted(self._counters.items())}
        totals = {key: sum(c[key] for c in per_service.values())
                  for key in ("hits", "misses", "stores", "seeded")}
        lookups = totals["hits"] + totals["misses"]
        return {
            "entries": len(self._values),
            "services": per_service,
            "totals": totals,
            "hit_rate": totals["hits"] / lookups if lookups else 0.0,
        }
