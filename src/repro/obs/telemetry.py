"""Telemetry: one tracer + one metrics registry + meter accounting.

:class:`Telemetry` is the single object the pipeline threads through its
stages. It owns a :class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry`, subscribes to
``ServiceMeter``/``ForumMeter`` events (every charge, throttle, and
backoff lands in per-service counters), collects end-of-run meter
snapshots, and exports the whole run as a JSON document or as
human-readable summary tables.

``NULL_TELEMETRY`` is the module-wide disabled instance: a
:class:`~repro.obs.trace.NullTracer` plus :class:`NullMetrics`, so an
uninstrumented ``run_pipeline`` allocates no span or counter objects.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..utils.tables import Table
from .metrics import MetricsRegistry, NullMetrics
from .profile import Profile, build_profile, chrome_trace
from .trace import NullTracer, Tracer

#: Trace JSON schema version, bumped on incompatible layout changes.
TRACE_FORMAT_VERSION = 2


def stderr_sink(line: str) -> None:
    """Progress sink writing one line per span event to stderr."""
    print(line, file=sys.stderr, flush=True)


class Telemetry:
    """Everything observed about one pipeline run."""

    def __init__(self, *, tracer=None, metrics=None, enabled: bool = True):
        self.enabled = enabled
        self.tracer = tracer if tracer is not None else (
            Tracer() if enabled else NullTracer()
        )
        self.metrics = metrics if metrics is not None else (
            MetricsRegistry() if enabled else NullMetrics()
        )
        #: Final ``meter.snapshot()`` per service, captured at run end.
        self.meter_snapshots: Dict[str, Dict[str, Any]] = {}
        #: Final ``breaker.snapshot()`` per service, captured at run end.
        self.breaker_snapshots: Dict[str, Dict[str, Any]] = {}
        #: Final ``cache.stats()`` of the enrichment cache, when one ran.
        self.cache_snapshot: Dict[str, Any] = {}
        #: Final ``session.stats()`` of the checkpoint session, when the
        #: run was checkpointed (record or resume mode).
        self.checkpoint_snapshot: Dict[str, Any] = {}
        #: Final stream-ingestion stats (epochs, ledger, cache reuse),
        #: when the run was a :mod:`repro.stream` session.
        self.stream_snapshot: Dict[str, Any] = {}
        #: Final intake-service stats (queue digests, shed counts, mode
        #: transitions), when the run was a :mod:`repro.serve` session.
        self.serve_snapshot: Dict[str, Any] = {}
        #: Final investigation-fleet stats (funnel outcomes, evidence
        #: volumes, step latency), when the run was a
        #: :mod:`repro.investigate` fleet.
        self.investigate_snapshot: Dict[str, Any] = {}
        #: Final per-pool execution stats (tasks, busy seconds per
        #: worker), captured from the :class:`~repro.exec.ExecutionEngine`.
        self.exec_snapshot: Dict[str, Any] = {}
        #: Every :class:`~repro.core.quarantine.QuarantineRecord` the
        #: sanitizer diverted this run. Empty on clean input — the
        #: Quarantine table and export key render only when non-empty,
        #: keeping ``--hostile none`` output byte-identical.
        self.quarantine_records: List[Any] = []

    # -- constructors ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        *,
        clock: Optional[Any] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> "Telemetry":
        """An enabled telemetry; ``progress`` receives span progress lines."""
        return cls(tracer=Tracer(clock=clock, sink=progress),
                   metrics=MetricsRegistry(), enabled=True)

    # -- meter wiring ---------------------------------------------------------

    def meter_hook(self) -> Callable[[str, str, float], None]:
        """The observer callback meters call on every charge/throttle.

        Events: ``request`` (successful charge), ``throttle`` (rate limit
        raised — i.e. the caller will retry), ``backoff`` (simulated
        seconds slept before a retry), ``quota`` (hard quota rejection).
        """
        metrics = self.metrics

        def hook(service: str, event: str, value: float) -> None:
            if event == "request":
                metrics.counter("service.requests", service=service).inc()
            elif event == "throttle":
                metrics.counter("service.retries", service=service).inc()
            elif event == "backoff":
                metrics.counter(
                    "service.backoff_seconds", service=service
                ).inc(value)
            elif event == "quota":
                metrics.counter("service.quota_rejections",
                                service=service).inc()

        return hook

    def capture_meter(self, meter: Any) -> None:
        """Store a meter's final ``snapshot()`` under its service name."""
        if not self.enabled:
            return
        self.meter_snapshots[meter.service] = meter.snapshot()

    @contextmanager
    def observe_meters(self, meters) -> Iterator[None]:
        """Attach :meth:`meter_hook` to every meter for the duration of a
        run, then detach it and capture final snapshots — the world
        object is left unmodified for other (possibly telemetry-free)
        runs."""
        if not self.enabled:
            yield
            return
        hook = self.meter_hook()
        for meter in meters:
            meter.observer = hook
        try:
            yield
        finally:
            for meter in meters:
                meter.observer = None
                self.capture_meter(meter)

    # -- breaker wiring -------------------------------------------------------

    def breaker_hook(self) -> Callable[[str, str, float], None]:
        """The observer circuit breakers call on every state transition.

        Events: ``open`` (the breaker tripped), ``half_open`` (cool-down
        elapsed, probing), ``close`` (probe succeeded), ``fast_fail``
        (a call rejected while open).
        """
        metrics = self.metrics

        def hook(service: str, event: str, value: float) -> None:
            metrics.counter(f"resilience.breaker_{event}s",
                            service=service).inc(value)

        return hook

    def capture_breaker(self, breaker: Any) -> None:
        """Store a breaker's final ``snapshot()`` under its service name."""
        if not self.enabled:
            return
        self.breaker_snapshots[breaker.service] = breaker.snapshot()

    # -- cache wiring ---------------------------------------------------------

    def _mirror(self, mirrored: Optional[Dict[Tuple, float]], name: str,
                total: float, **labels: Any) -> None:
        """Raise counter ``name`` by what a source's running ``total``
        gained since ``mirrored`` recorded it (None: since zero), keyed by
        name and service: a checkpoint's ``mode`` names its latest session,
        not a total of its own. A session captures its cache, ledger and
        checkpoint totals after every run; each capture adds its gain."""
        key = (name, labels.get("service"))
        gain = total - (mirrored or {}).get(key, 0)
        if mirrored is not None:
            mirrored[key] = total
        if gain:
            self.metrics.counter(name, **labels).inc(gain)

    def capture_cache(self, cache: Any,
                      mirrored: Optional[Dict] = None) -> None:
        """Store the enrichment cache's final ``stats()`` and mirror its
        per-service hit/miss counts into the metrics registry
        (``cache.hits``/``cache.misses``; see :meth:`_mirror`)."""
        if not self.enabled:
            return
        stats = cache.stats()
        self.cache_snapshot = stats
        for service, counters in stats.get("services", {}).items():
            for event in ("hits", "misses"):
                self._mirror(mirrored, f"cache.{event}",
                             counters.get(event, 0), service=service)

    # -- checkpoint wiring ----------------------------------------------------

    def capture_checkpoint(self, stats: Dict[str, Any],
                           mirrored: Optional[Dict] = None) -> None:
        """Store a checkpoint session's final ``stats()`` and mirror the
        write/replay volumes into counters (``checkpoint.barriers`` /
        ``checkpoint.lookups_recorded`` / ``checkpoint.lookups_replayed``,
        labelled with the latest session's mode; see :meth:`_mirror`)."""
        if not self.enabled:
            return
        self.checkpoint_snapshot = dict(stats)
        for event in ("barriers_written", "lookups_recorded",
                      "lookups_replayed"):
            self._mirror(mirrored, f"checkpoint.{event}",
                         stats.get(event, 0), mode=stats["mode"])

    # -- stream wiring --------------------------------------------------------

    def capture_stream(self, stats: Optional[Dict[str, Any]],
                       mirrored: Optional[Dict] = None) -> None:
        """Store a stream session's final stats (see
        :meth:`repro.stream.StreamState.stats`) and mirror the dedup
        ledger's hit/miss volumes into counters
        (``stream.ledger_hits`` / ``stream.ledger_misses``; see
        :meth:`_mirror`). ``stats`` of None (a batch run) is a no-op."""
        if not self.enabled or stats is None:
            return
        self.stream_snapshot = dict(stats)
        ledger = stats.get("ledger", {})
        for event in ("hits", "misses"):
            self._mirror(mirrored, f"stream.ledger_{event}",
                         ledger.get(event, 0))

    # -- serve wiring ---------------------------------------------------------

    def capture_serve(self, stats: Optional[Dict[str, Any]]) -> None:
        """Store an intake service's final ``stats()`` (see
        :meth:`repro.serve.IntakeService.stats`). ``stats`` of None (a
        non-serve run) is a no-op."""
        if not self.enabled or stats is None:
            return
        self.serve_snapshot = dict(stats)

    # -- investigate wiring ---------------------------------------------------

    def capture_investigate(self, stats: Optional[Dict[str, Any]]) -> None:
        """Store an investigation fleet's final ``stats()`` (see
        :meth:`repro.investigate.FleetReport.stats`). ``stats`` of None
        (a non-investigate run) is a no-op."""
        if not self.enabled or stats is None:
            return
        self.investigate_snapshot = dict(stats)

    # -- quarantine wiring ----------------------------------------------------

    def capture_quarantine(self, records) -> None:
        """Accumulate sanitizer quarantine records.

        Additive on purpose: stream epochs and serve batches each run
        their own :class:`~repro.core.curation.Curator`, and each
        contributes only the reports *it* diverted."""
        if not self.enabled or not records:
            return
        self.quarantine_records.extend(records)

    def _quarantine_dict(self) -> Dict[str, Any]:
        if not self.quarantine_records:
            return {}
        by_reason: Dict[str, int] = {}
        by_stage: Dict[str, int] = {}
        for record in self.quarantine_records:
            by_reason[record.reason] = by_reason.get(record.reason, 0) + 1
            by_stage[record.stage] = by_stage.get(record.stage, 0) + 1
        return {
            "total": len(self.quarantine_records),
            "by_reason": by_reason,
            "by_stage": by_stage,
        }

    # -- profiling wiring -----------------------------------------------------

    def capture_exec(self, stats: Optional[Dict[str, Any]]) -> None:
        """Store the execution engine's final per-pool task accounting."""
        if not self.enabled or not stats:
            return
        self.exec_snapshot = dict(stats)

    def profile(self) -> Profile:
        """Hot-path attribution built from this run's spans."""
        return build_profile(self.tracer.spans)

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        # The quarantine block exists only when something was diverted:
        # a clean run's trace export stays byte-identical to pre-hostile
        # behaviour.
        quarantine = self._quarantine_dict()
        extra = {"quarantine": quarantine} if quarantine else {}
        return {
            "format": TRACE_FORMAT_VERSION,
            "spans": self.tracer.to_dicts(),
            "metrics": self.metrics.to_dict(),
            "profile": self.profile().to_dict(),
            "meters": {name: dict(snap)
                       for name, snap in self.meter_snapshots.items()},
            "breakers": {name: dict(snap)
                         for name, snap in self.breaker_snapshots.items()},
            "cache": dict(self.cache_snapshot),
            "checkpoint": dict(self.checkpoint_snapshot),
            "stream": dict(self.stream_snapshot),
            "serve": dict(self.serve_snapshot),
            "investigate": dict(self.investigate_snapshot),
            "exec": dict(self.exec_snapshot),
            **extra,
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The run's spans as a Chrome trace-event document."""
        return chrome_trace(self.tracer.spans)

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=2, default=str)

    # -- human-readable summaries ---------------------------------------------

    def span_table(self) -> Table:
        """Stage timings: wall-clock and simulated seconds per span."""
        table = Table(title="Pipeline stages",
                      columns=["Stage", "Wall (s)", "Sim (s)", "Detail"])
        for span in self.tracer.spans:
            interesting = {
                k: v for k, v in span.attributes.items()
                if isinstance(v, (int, float, str)) and k != "error"
            }
            detail = ", ".join(f"{k}={v}" for k, v in
                               sorted(interesting.items())[:4])
            table.add_row(
                span.name,
                round(span.wall_seconds, 4)
                if span.wall_seconds is not None else None,
                round(span.sim_seconds, 1)
                if span.sim_seconds is not None else None,
                detail or None,
            )
        return table

    def profile_table(self) -> Table:
        """Hot-path attribution: self/cum wall, latency digests, rec/s."""
        return self.profile().table()

    def service_table(self) -> Table:
        """Per-service request/retry/backoff accounting from counters."""
        services: Dict[str, Dict[str, float]] = {}
        for counter in self.metrics.counters():
            service = counter.labels.get("service")
            if service is None or not counter.name.startswith("service."):
                continue
            field = counter.name.split(".", 1)[1]
            services.setdefault(service, {})[field] = counter.value
        table = Table(
            title="Service telemetry",
            columns=["Service", "Requests", "Retries", "Backoff (sim s)",
                     "Quota hits", "Remaining"],
        )
        for service in sorted(services):
            fields = services[service]
            snapshot = self.meter_snapshots.get(service, {})
            remaining = snapshot.get("remaining")
            table.add_row(
                service,
                int(fields.get("requests", 0)),
                int(fields.get("retries", 0)),
                round(fields.get("backoff_seconds", 0.0), 1),
                int(fields.get("quota_rejections", 0)),
                "∞" if remaining is None else int(remaining),
            )
        return table

    def resilience_table(self) -> Table:
        """Per-service retry/breaker accounting from the resilience layer."""
        services: Dict[str, Dict[str, float]] = {}
        for counter in self.metrics.counters():
            service = counter.labels.get("service")
            if service is None or not counter.name.startswith("resilience."):
                continue
            field = counter.name.split(".", 1)[1]
            services.setdefault(service, {})[field] = counter.value
        for service in self.breaker_snapshots:
            services.setdefault(service, {})
        table = Table(
            title="Resilience",
            columns=["Service", "Retries", "Backoff (sim s)", "Breaker",
                     "Opens", "Fast fails"],
        )
        for service in sorted(services):
            fields = services[service]
            snapshot = self.breaker_snapshots.get(service, {})
            table.add_row(
                service,
                int(fields.get("retries", 0)),
                round(fields.get("backoff_seconds", 0.0), 1),
                snapshot.get("state", "-"),
                int(snapshot.get("opens", fields.get("breaker_opens", 0))),
                int(snapshot.get("fast_fails",
                                 fields.get("breaker_fast_fails", 0))),
            )
        return table

    def cache_table(self) -> Table:
        """Per-service enrichment-cache accounting (hits, misses, ...)."""
        table = Table(
            title="Cache",
            columns=["Service", "Hits", "Misses", "Hit rate", "Stores"],
        )
        services = self.cache_snapshot.get("services", {})
        for service in sorted(services):
            counters = services[service]
            lookups = counters["hits"] + counters["misses"]
            rate = counters["hits"] / lookups if lookups else 0.0
            table.add_row(
                service,
                counters["hits"],
                counters["misses"],
                f"{rate:.1%}",
                counters["stores"],
            )
        if len(services) > 1:
            totals = self.cache_snapshot.get("totals", {})
            table.add_row(
                "(total)",
                totals.get("hits", 0),
                totals.get("misses", 0),
                f"{self.cache_snapshot.get('hit_rate', 0.0):.1%}",
                totals.get("stores", 0),
            )
        return table

    def pool_table(self) -> Table:
        """Per-pool task accounting from the execution engine.

        Only deterministic columns are rendered: busy-seconds come from
        the unfrozen ``time.perf_counter`` and would break byte-stable
        stats goldens, so they are exported via :meth:`to_dict` only.
        """
        table = Table(title="Pools",
                      columns=["Pool", "Kind", "Workers", "Tasks"])
        snapshot = self.exec_snapshot
        for pool in snapshot.get("pools", []):
            table.add_row(
                pool.get("label", "-"),
                pool.get("kind", "-"),
                int(pool.get("workers", 1)),
                int(pool.get("tasks", 0)),
            )
        policy = snapshot.get("policy")
        if policy:
            table.add_note(f"policy: {policy}")
        return table

    def checkpoint_table(self) -> Table:
        """Journal accounting: mode, restored stages, replay volumes."""
        table = Table(title="Checkpoint", columns=["Field", "Value"])
        snapshot = self.checkpoint_snapshot
        if not snapshot:
            return table
        restored = snapshot.get("stages_restored") or []
        table.add_row("Mode", snapshot.get("mode", "-"))
        table.add_row("Stages restored", ", ".join(restored) or "none")
        table.add_row("Barriers written",
                      int(snapshot.get("barriers_written", 0)))
        table.add_row("Lookups replayed",
                      int(snapshot.get("lookups_replayed", 0)))
        table.add_row("Lookups recorded",
                      int(snapshot.get("lookups_recorded", 0)))
        table.add_row("Journal writes", int(snapshot.get("journal_writes", 0)))
        table.add_row("Journal recovered",
                      "yes" if snapshot.get("journal_recovered") else "no")
        return table

    def stream_table(self) -> Table:
        """Per-epoch ingestion accounting for stream sessions."""
        table = Table(
            title="Stream",
            columns=["Epoch", "Window", "Posts", "New reports", "Records",
                     "Deduped", "Gaps", "Cache reuse"],
        )
        snapshot = self.stream_snapshot
        for epoch in snapshot.get("epochs", []):
            table.add_row(
                epoch["index"],
                epoch.get("window", "-"),
                epoch.get("posts_seen", 0),
                epoch.get("new_reports", 0),
                epoch.get("records", 0),
                epoch.get("deduped", 0),
                epoch.get("gaps", 0) + epoch.get("limitations", 0),
                epoch.get("cache_reuse", 0),
            )
        ledger = snapshot.get("ledger", {})
        table.add_row(
            "(ledger)",
            f"hit rate {ledger.get('hit_rate', 0.0):.1%}",
            None,
            None,
            ledger.get("entries", 0),
            ledger.get("hits", 0),
            None,
            snapshot.get("cache_reuse", 0),
        )
        return table

    def serve_table(self) -> Table:
        """Intake-service accounting: admission, queue, latency SLOs."""
        table = Table(title="Serve", columns=["Field", "Value"])
        snapshot = self.serve_snapshot
        if not snapshot:
            return table
        load = snapshot.get("load", {})
        table.add_row("Load profile",
                      f"{load.get('profile', '-')} "
                      f"({load.get('requests', 0)} requests, "
                      f"{load.get('reporters', 0)} reporters)")
        table.add_row("Submitted", int(snapshot.get("submitted", 0)))
        table.add_row("Accepted", int(snapshot.get("accepted", 0)))
        shed = snapshot.get("rejected_by_reason", {})
        shed_detail = ", ".join(f"{reason}={count}"
                                for reason, count in sorted(shed.items()))
        table.add_row("Shed", f"{snapshot.get('shed', 0)}"
                              + (f" ({shed_detail})" if shed_detail else ""))
        table.add_row("Processed", int(snapshot.get("processed", 0)))
        table.add_row("Timed out in queue", int(snapshot.get("timed_out", 0)))
        table.add_row("Records (deduped)",
                      f"{snapshot.get('records', 0)} "
                      f"({snapshot.get('deduped', 0)} dupes)")
        table.add_row("Batches (degraded)",
                      f"{snapshot.get('batches', 0)} "
                      f"({snapshot.get('degraded_batches', 0)} annotate-only)")
        queue = snapshot.get("queue", {})
        table.add_row(
            "Queue depth p50/p90/p99/max",
            "/".join(str(int(queue.get(key) or 0))
                     for key in ("p50", "p90", "p99"))
            + f"/{int(queue.get('max_depth', 0))}"
            + f" (cap {int(queue.get('capacity', 0))})",
        )
        latency = snapshot.get("latency", {})
        table.add_row(
            "Intake latency p50/p99 (sim s)",
            f"{(latency.get('p50') or 0.0):.1f}/"
            f"{(latency.get('p99') or 0.0):.1f}",
        )
        table.add_row("Final mode", snapshot.get("mode", "-"))
        return table

    def serve_transition_table(self) -> Table:
        """The degradation controller's mode history."""
        table = Table(title="Serve mode transitions",
                      columns=["Sim t (s)", "From", "To", "Reason"])
        for transition in self.serve_snapshot.get("transitions", []):
            table.add_row(
                transition["at"],
                transition["from_mode"],
                transition["to_mode"],
                transition["reason"],
            )
        return table

    def investigate_table(self) -> Table:
        """Investigation-fleet accounting: funnels, evidence, latency."""
        table = Table(title="Investigations", columns=["Field", "Value"])
        snapshot = self.investigate_snapshot
        if not snapshot:
            return table
        pool = snapshot.get("pool", {})
        table.add_row("Playbook", snapshot.get("playbook", "-"))
        table.add_row("Investigated URLs",
                      int(snapshot.get("investigated", 0)))
        outcomes = snapshot.get("outcomes", {})
        table.add_row(
            "Outcomes",
            ", ".join(f"{kind}={count}"
                      for kind, count in sorted(outcomes.items())) or "none",
        )
        depths = snapshot.get("funnel_depths", {})
        table.add_row(
            "Funnel depth distribution",
            ", ".join(f"{depth}:{count}"
                      for depth, count in sorted(depths.items())) or "none",
        )
        table.add_row(
            "Evidence packages",
            f"{snapshot.get('evidence_packages', 0)} "
            f"({snapshot.get('custody_entries', 0)} custody entries)",
        )
        table.add_row(
            "Payloads",
            f"{snapshot.get('payloads', 0)} "
            f"({snapshot.get('androzoo_hits', 0)} known to AndroZoo)",
        )
        table.add_row(
            "Scans (gaps)",
            f"{snapshot.get('scans_completed', 0)} "
            f"({snapshot.get('scan_gaps', 0)} gaps)",
        )
        families = snapshot.get("families", {})
        table.add_row(
            "Families",
            ", ".join(f"{family}={count}"
                      for family, count in sorted(families.items())) or "none",
        )
        for op, digest in sorted(
                snapshot.get("step_latency_ms", {}).items()):
            table.add_row(
                f"Step {op} p50/p99 (ms)",
                f"{digest.get('p50', 0.0):.1f}/{digest.get('p99', 0.0):.1f}"
                f" (n={int(digest.get('count', 0))})",
            )
        table.add_row("Pool",
                      f"{pool.get('kind', 'serial')} "
                      f"× {int(pool.get('workers', 1))}")
        return table

    def quarantine_table(self) -> Table:
        """Sanitizer accounting: diverted reports by reason and stage."""
        table = Table(title="Quarantine",
                      columns=["Reason", "Stage", "Records"])
        groups: Dict[tuple, int] = {}
        for record in self.quarantine_records:
            key = (record.reason, record.stage)
            groups[key] = groups.get(key, 0) + 1
        for reason, stage in sorted(groups):
            table.add_row(reason, stage, groups[(reason, stage)])
        if len(groups) > 1:
            table.add_row("(total)", None, len(self.quarantine_records))
        return table

    def counter_table(self) -> Table:
        """Every non-service counter (collection, curation, drops...)."""
        table = Table(title="Run counters",
                      columns=["Counter", "Labels", "Value"])
        for counter in sorted(self.metrics.counters(),
                              key=lambda c: (c.name, sorted(c.labels.items()))):
            if counter.name.startswith(("service.", "resilience.", "cache.",
                                        "checkpoint.", "stream.")):
                continue
            labels = ", ".join(f"{k}={v}" for k, v in
                               sorted(counter.labels.items()))
            value = counter.value
            table.add_row(counter.name, labels or None,
                          int(value) if value == int(value) else value)
        return table

    def summary(self) -> str:
        """The full human-readable stats report."""
        parts = [self.span_table().to_text(),
                 self.profile_table().to_text(),
                 self.service_table().to_text()]
        resilience = self.resilience_table()
        if resilience.rows:
            parts.append(resilience.to_text())
        if self.cache_snapshot:
            parts.append(self.cache_table().to_text())
        if self.exec_snapshot:
            parts.append(self.pool_table().to_text())
        if self.checkpoint_snapshot:
            parts.append(self.checkpoint_table().to_text())
        if self.stream_snapshot:
            parts.append(self.stream_table().to_text())
        if self.serve_snapshot:
            parts.append(self.serve_table().to_text())
            transitions = self.serve_transition_table()
            if transitions.rows:
                parts.append(transitions.to_text())
        if self.investigate_snapshot:
            parts.append(self.investigate_table().to_text())
        if self.quarantine_records:
            parts.append(self.quarantine_table().to_text())
        parts.append(self.counter_table().to_text())
        return "\n\n".join(parts)


#: Shared disabled telemetry: no spans, no counters, near-zero overhead.
NULL_TELEMETRY = Telemetry(tracer=NullTracer(), metrics=NullMetrics(),
                           enabled=False)


def ensure_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Normalise an optional telemetry argument to a usable instance."""
    return NULL_TELEMETRY if telemetry is None else telemetry
