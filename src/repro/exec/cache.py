"""Per-(service, subject) memoisation for enrichment lookups.

An :class:`EnrichmentCache` remembers the *pure* outcome of one lookup —
``(service, subject)`` → value — so duplicate senders, URLs, hosts, and
message texts hit each service's compute path once per run. Three entry
kinds cover every terminal outcome a lookup can have:

* ``VALUE``      — a successful answer (a record, a scan report, ...).
* ``NOT_FOUND``  — the service answered "no such record". Negative
  results are answers, not failures; caching them stops duplicate
  subjects from re-asking a question whose answer is known to be empty.
* ``FAILURE``    — a *permanent*, per-subject failure (e.g. the GSB
  transparency report's deterministic anti-automation block). The entry
  stores the failure's gap classification (kind, detail, attempts) and
  the original exception instance, so the engine can re-file an
  identical :class:`~repro.core.enrichment.EnrichmentGap` for every
  duplicate subject without touching the service again — and the run
  journal (:mod:`repro.checkpoint.codec`) can round-trip the failure as
  a structured ``(type, message)`` record. Transient failures are
  **never** cached — a retryable error says nothing about the subject.

The cache owns its lock (services stay lock-free, per the engine's
design rule). Counters (hits, misses, stores) are kept per service and
flow into :class:`~repro.obs.Telemetry` via :meth:`stats`. The cache
is unbounded: a run holds one entry per unique subject it looked up.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import NotFound, ServiceError


class EntryKind(str, enum.Enum):
    """What a cached entry records about its lookup."""

    VALUE = "value"
    NOT_FOUND = "not_found"
    FAILURE = "failure"


@dataclass(frozen=True)
class CacheEntry:
    """One memoised lookup outcome."""

    kind: EntryKind
    value: Any = None
    #: For FAILURE entries: the gap classification to replay.
    failure_kind: str = ""
    failure_detail: str = ""
    failure_attempts: int = 1
    #: For FAILURE entries: the original exception instance, so replays
    #: and the run journal can reconstruct an *equivalent* error (type +
    #: message + flags) instead of only its name. Excluded from equality
    #: — two entries for the same failure compare equal even though
    #: exception objects never do.
    failure_exception: Optional[ServiceError] = field(default=None,
                                                      compare=False)

    @property
    def is_value(self) -> bool:
        return self.kind is EntryKind.VALUE

    @property
    def is_not_found(self) -> bool:
        return self.kind is EntryKind.NOT_FOUND

    @property
    def is_failure(self) -> bool:
        return self.kind is EntryKind.FAILURE


@dataclass
class _ServiceCounters:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries adopted from a prior epoch's persisted cache (see
    #: :meth:`EnrichmentCache.seed`) — reuse, not work, so kept apart
    #: from ``stores``.
    seeded: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "seeded": self.seeded}


class EnrichmentCache:
    """Thread-safe per-(service, subject) memo with usage counters."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str], CacheEntry] = {}
        self._counters: Dict[str, _ServiceCounters] = {}
        self._lock = threading.Lock()

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle support: the lock is process-local, so it stays behind.

        A cache that crosses a ``multiprocessing`` boundary (worker
        startup under ``spawn``) carries its entries and counters; the
        receiving interpreter gets a fresh, unheld lock.
        """
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- internals ------------------------------------------------------------

    def _counter(self, service: str) -> _ServiceCounters:
        counter = self._counters.get(service)
        if counter is None:
            counter = self._counters[service] = _ServiceCounters()
        return counter

    def _store(self, service: str, subject: str, entry: CacheEntry) -> None:
        self._entries[(service, subject)] = entry
        self._counter(service).stores += 1

    # -- the memo API ---------------------------------------------------------

    def get(self, service: str, subject: str) -> Optional[CacheEntry]:
        """The entry for one lookup, counting a hit or a miss."""
        with self._lock:
            entry = self._entries.get((service, subject))
            counter = self._counter(service)
            if entry is None:
                counter.misses += 1
            else:
                counter.hits += 1
            return entry

    def peek(self, service: str, subject: str) -> Optional[CacheEntry]:
        """The entry without touching the hit/miss counters."""
        with self._lock:
            return self._entries.get((service, subject))

    def put_value(self, service: str, subject: str, value: Any) -> CacheEntry:
        entry = CacheEntry(kind=EntryKind.VALUE, value=value)
        with self._lock:
            self._store(service, subject, entry)
        return entry

    def put_not_found(self, service: str, subject: str) -> CacheEntry:
        entry = CacheEntry(kind=EntryKind.NOT_FOUND)
        with self._lock:
            self._store(service, subject, entry)
        return entry

    def put_failure(self, service: str, subject: str, *, kind: str,
                    detail: str, attempts: int = 1,
                    exception: Optional[ServiceError] = None) -> CacheEntry:
        entry = CacheEntry(kind=EntryKind.FAILURE, failure_kind=kind,
                           failure_detail=detail, failure_attempts=attempts,
                           failure_exception=exception)
        with self._lock:
            self._store(service, subject, entry)
        return entry

    def lookup(self, service: str, subject: str,
               compute: Callable[[], Any]) -> CacheEntry:
        """Memoising wrapper: return the entry, computing it on a miss.

        ``compute`` runs *outside* the lock (it may be slow); the first
        completed compute for a subject wins and later duplicates adopt
        it, so concurrent workers racing on the same subject still end
        with one canonical entry. A :class:`~repro.errors.NotFound` from
        ``compute`` becomes a negative entry; a *permanent* (non-
        retryable) :class:`~repro.errors.ServiceError` becomes a failure
        entry and re-raises; transient errors propagate uncached.
        """
        entry = self.get(service, subject)
        if entry is not None:
            return entry
        try:
            value = compute()
        except NotFound:
            return self._adopt(service, subject,
                               CacheEntry(kind=EntryKind.NOT_FOUND))
        except ServiceError as exc:
            if not exc.retryable:
                self._adopt(service, subject, CacheEntry(
                    kind=EntryKind.FAILURE,
                    failure_kind=type(exc).__name__,
                    failure_detail=str(exc),
                    failure_attempts=getattr(exc, "resilience_attempts", 1),
                    failure_exception=exc,
                ))
            raise
        return self._adopt(service, subject,
                           CacheEntry(kind=EntryKind.VALUE, value=value))

    def _adopt(self, service: str, subject: str,
               entry: CacheEntry) -> CacheEntry:
        """Store ``entry`` unless a concurrent compute already won."""
        with self._lock:
            existing = self._entries.get((service, subject))
            if existing is not None:
                return existing
            self._store(service, subject, entry)
            return entry

    # -- cross-run seeding (repro.stream delta enrichment) --------------------

    def export_entries(self) -> Tuple[Tuple[str, str, CacheEntry], ...]:
        """Every persistable entry as ``(service, subject, entry)``.

        Only VALUE and NOT_FOUND entries export: both are durable facts
        about their subject. FAILURE entries never cross a run boundary —
        a failure says what *this* run's faults did, not what the subject
        is, and replaying it would poison a later epoch that could have
        succeeded.
        """
        with self._lock:
            return tuple(
                (service, subject, entry)
                for (service, subject), entry in self._entries.items()
                if entry.kind is not EntryKind.FAILURE
            )

    def seed(self, entries) -> int:
        """Adopt prior-epoch entries without counting them as stores.

        Skips FAILURE entries and subjects already present (the current
        run's own computes win), and counts each adoption on the
        per-service ``seeded`` counter. Returns how many entries were
        adopted.
        """
        adopted = 0
        with self._lock:
            for service, subject, entry in entries:
                if entry.kind is EntryKind.FAILURE:
                    continue
                key = (service, subject)
                if key in self._entries:
                    continue
                self._entries[key] = entry
                self._counter(service).seeded += 1
                adopted += 1
        return adopted

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        with self._lock:
            return sum(c.hits for c in self._counters.values())

    @property
    def misses(self) -> int:
        with self._lock:
            return sum(c.misses for c in self._counters.values())

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        with self._lock:
            hits = sum(c.hits for c in self._counters.values())
            misses = sum(c.misses for c in self._counters.values())
        total = hits + misses
        return hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """Per-service and total counters, for telemetry capture."""
        with self._lock:
            per_service = {name: counter.to_dict()
                           for name, counter in sorted(self._counters.items())}
            entries = len(self._entries)
        totals = {"hits": sum(c["hits"] for c in per_service.values()),
                  "misses": sum(c["misses"] for c in per_service.values()),
                  "stores": sum(c["stores"] for c in per_service.values()),
                  "seeded": sum(c["seeded"] for c in per_service.values())}
        total_lookups = totals["hits"] + totals["misses"]
        return {
            "entries": entries,
            "services": per_service,
            "totals": totals,
            "hit_rate": (totals["hits"] / total_lookups
                         if total_lookups else 0.0),
        }
