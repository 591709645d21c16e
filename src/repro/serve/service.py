"""The intake service: a long-running, request-driven pipeline front end.

:class:`IntakeService` turns the batch/stream machinery into a server
that stays correct when demand exceeds capacity. The request surface is
HTTP-shaped (method + path + JSON body, 202/404/429/503 + Retry-After)
but driven deterministically in-process: the seeded load generator
builds :class:`~repro.serve.load.Arrival` schedules and pushes them
through :meth:`dispatch`, so tens of thousands of bursty reporters cost
no sockets and reproduce byte-for-byte.

The lifecycle of one submission::

    POST /v1/reports ── admission ──> bounded queue ── batch drain ──>
      curate -> dedup ledger -> enrich (deadline-capped, mode-aware)
        -> ServeState (records, annotations, gaps, statuses, digests)

Overload changes behaviour through the
:class:`~repro.serve.degrade.DegradationController`: open breakers or
near-exhausted meter quotas put the service in *degraded* (annotate-only
enrichment); queue watermarks latch *shedding* (reject + retry-after)
until the backlog clears; *draining* finishes queued work and rejects
everything new.

Durability follows the stream layer's commit discipline: every
``commit_every`` arrivals (and at drain), the full service state — the
state, queue, dedup ledger and sanitizer objects themselves, plus the
admission buckets, controller history and the clock/meter/breaker/
fault-proxy registry — is pickled under a sha-bound ``SERVE.json``
manifest. A killed server resumes from the last commit and *replays*
the deterministic schedule from there: in-memory effects past the
commit died with the process, the restored meters re-charge
identically, and the final state is byte-equal to an uninterrupted run
— no accepted report lost, none double-processed, zero duplicate
charges (``tests/test_serve_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..checkpoint.identity import identity_from_dict, identity_to_dict
from ..core.collection import _report_from_post
from ..core.config import PipelineConfig
from ..core.dataset import SmishingDataset
from ..core.quarantine import Sanitizer
from ..core.enrichment import EnrichedDataset
from ..core.pipeline import Stages
from ..errors import ConfigurationError
from ..exec import ExecutionPolicy
from ..faults import CrashPoint, FaultPlan
from ..obs import Telemetry
from ..stream.ledger import DedupLedger, inherit_annotations
from ..stream.persist import SnapshotStore
from ..world.scenario import ScenarioConfig, World, build_world
from .admission import AdmissionController, AdmissionPolicy
from .degrade import DegradationController, ServeMode
from .load import Arrival, LoadSpec, generate_schedule
from .queue import BoundedQueue, QueueItem
from .state import ServeState

#: The serve directory's manifest file name.
SERVE_MANIFEST_NAME = "SERVE.json"
#: Version 5: ``state.pkl`` pickles the state, queue, ledger and
#: sanitizer objects whole, beside the admission and controller state,
#: the next drain instant, the cache's (service, subject, value) triples
#: and the registry state; the manifest records no argv. The state holds
#: the last batch's quarantine rate, which a version-4 state lacks and
#: would silently read as zero. Older versions are refused.
SERVE_FORMAT_VERSION = 5

#: Front-door rejection reasons (vs ``deadline``, which is post-accept).
FRONT_DOOR_REASONS = ("rate_limited", "queue_full", "shedding", "draining")

#: The shed latch engages at this fraction of the queue capacity and
#: releases at the low one.
SHED_HIGH_FRACTION = 0.9
SHED_LOW_FRACTION = 0.5


@dataclass(frozen=True)
class ServeConfig:
    """The service's capacity and cadence knobs."""

    queue_capacity: int = 512
    batch_size: int = 32
    #: Simulated seconds between batch drains.
    drain_interval: float = 20.0
    #: Arrivals between durable commits (with a ``serve_dir``).
    commit_every: int = 500

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError("queue capacity must be at least 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch size must be at least 1")
        if self.drain_interval <= 0:
            raise ConfigurationError("drain interval must be positive")
        if self.commit_every < 1:
            raise ConfigurationError("commit_every must be at least 1")

    @property
    def high_watermark(self) -> int:
        return max(2, int(self.queue_capacity * SHED_HIGH_FRACTION))

    @property
    def low_watermark(self) -> int:
        return max(1, min(self.high_watermark - 1,
                          int(self.queue_capacity * SHED_LOW_FRACTION)))

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ServeConfig":
        return cls(**payload)


@dataclass(frozen=True)
class Request:
    """One HTTP-shaped request (no sockets; the load generator builds
    these in-process)."""

    method: str
    path: str
    body: Optional[Dict[str, Any]] = None


@dataclass
class Response:
    """The service's answer: status code, JSON body, headers."""

    status: int
    body: Dict[str, Any]
    headers: Dict[str, str] = field(default_factory=dict)


class IntakeService:
    """One overload-safe report-intake service over one world."""

    def __init__(self, world: World, *, load: LoadSpec,
                 config: Optional[ServeConfig] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 execution: Optional[ExecutionPolicy] = None,
                 telemetry: Optional[Telemetry] = None,
                 store: Optional[SnapshotStore] = None):
        self.world = world
        self.clock = world.clock
        self.load = load
        self.config = config or ServeConfig()
        self.policy = execution or ExecutionPolicy()
        #: Session-wide resources (one battery, one cache, one breaker
        #: set, one pool). Serve never collects, so it has no forums, and
        #: every image's vision draws are its own (stable).
        self.stages = Stages(world, PipelineConfig(stable_vision=True),
                             self.policy, telemetry, forums={})
        self.telemetry = self.stages.telemetry
        self._store = store
        self._plan = (fault_plan.without_crash_points()
                      if fault_plan is not None else None)
        #: The injected kill, and the arrival index it fires before (-1,
        #: which no arrival has, when there is none): the arrival loop
        #: pays one comparison per arrival for it.
        self._crash = (fault_plan.crash_point("arrival")
                       if fault_plan is not None else None)
        self._kill_at = self._crash.at_call if self._crash else -1

        #: Services are fault-wrapped once for the whole lifetime, so
        #: call-indexed fault rules see a single continuous counter and
        #: proxy call counters are session state (unlike a stream's
        #: per-epoch proxies): they must survive a resume for those rules
        #: to fire at the same calls.
        self.services, forums = self.stages.wrap(self._plan)
        self._registry = self.stages.registry(self.services, forums)

        #: Deterministic submission material: the world's posts in their
        #: canonical order, cycled by the load schedule.
        self._posts = world.reporter_output.all_posts()
        self._schedule: List[Arrival] = generate_schedule(
            load, n_posts=len(self._posts))

        self.state = ServeState()
        self.ledger = DedupLedger()
        self.queue = BoundedQueue(self.config.queue_capacity)
        self.admission = AdmissionController(AdmissionPolicy(), self.clock)
        # Single source of truth for the rejection ledger: the durable
        # state owns the list, the admission controller appends to it.
        self.admission.rejections = self.state.rejections
        #: One session-lifetime sanitizer: its flood/cluster counters
        #: latch *across* batches (a reporter cannot dodge flood
        #: detection by spreading copies over drains) and survive a
        #: resume because every commit pickles the object whole.
        self._sanitizer = Sanitizer(stage="serve")
        self.controller = DegradationController(
            self.clock,
            high_watermark=self.config.high_watermark,
            low_watermark=self.config.low_watermark,
            breakers=self.stages.breakers,
            meters=self.services.meters(),
            quarantine_pressure=self._quarantine_pressure,
        )
        #: Absolute sim time of the next scheduled batch drain (None
        #: while the queue is empty). Part of the committed state.
        self._next_due: Optional[float] = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, scenario: Optional[ScenarioConfig] = None, *,
               load: Optional[LoadSpec] = None,
               config: Optional[ServeConfig] = None,
               fault_plan: Optional[FaultPlan] = None,
               execution: Optional[ExecutionPolicy] = None,
               telemetry_factory=None,
               serve_dir: Optional[Path] = None) -> "IntakeService":
        """Start a fresh service (``repro serve``).

        With a ``serve_dir`` the directory must not already hold a
        session; the manifest is persisted before the first arrival so
        even an immediate crash leaves a resumable directory. A
        ``CrashPoint("arrival", N)`` in ``fault_plan`` kills the service
        before arrival N.
        """
        scenario = scenario or ScenarioConfig()
        world = build_world(scenario)
        spec = load or LoadSpec(seed=scenario.seed)
        telemetry = (telemetry_factory(world) if telemetry_factory is not None
                     else None)
        store = _serve_store(serve_dir) if serve_dir is not None else None
        service = cls(world, load=spec, config=config, fault_plan=fault_plan,
                      execution=execution, telemetry=telemetry,
                      store=store)
        if store is not None:
            store.create(service._manifest())
        return service

    @classmethod
    def load(cls, serve_dir: Path, *, telemetry_factory=None,
             kill_at: Optional[CrashPoint] = None) -> "IntakeService":
        """Reopen a killed (or drained) service from its last commit.

        Rebuilds the world and the deterministic load schedule from the
        manifest, restores the committed state — queue contents,
        admission buckets, controller history, dedup ledger, sanitizer
        counters and the clock/meter/breaker/fault-proxy registry — and
        is then ready to continue from ``arrival_index + 1``. Injected
        kills are never inherited: a resume only crashes again if *this*
        call passes an ``arrival`` crash point as ``kill_at``.
        """
        store = _serve_store(serve_dir)
        manifest, payload = store.load()
        scenario, fault_plan, execution = identity_from_dict(manifest)
        if kill_at is not None:
            fault_plan = (fault_plan or FaultPlan(seed=scenario.seed)
                          ).extended(kill_at)
        world = build_world(scenario)
        telemetry = (telemetry_factory(world) if telemetry_factory is not None
                     else None)
        service = cls(
            world,
            load=LoadSpec.from_dict(manifest["load"]),
            config=ServeConfig.from_dict(manifest["config"]),
            fault_plan=fault_plan,
            execution=execution,
            telemetry=telemetry,
            store=store,
        )
        if payload is not None:
            service.state = payload["state"]
            service.queue = payload["queue"]
            service.ledger = payload["ledger"]
            service._sanitizer = payload["sanitizer"]
            service.admission.rejections = service.state.rejections
            service.admission.restore_state(payload["admission"])
            service.controller.restore_state(payload["controller"])
            service._next_due = payload["next_due"]
            if service.stages.cache is not None:
                service.stages.cache.seed(payload["cache_entries"])
            service._registry.restore(payload["registry_state"])
        return service

    # -- the HTTP-shaped surface ----------------------------------------------

    def dispatch(self, request: Request) -> Response:
        """Route one request. Unknown paths get a 404, like any server."""
        if request.method == "POST" and request.path == "/v1/reports":
            return self._submit(request.body or {})
        if request.method == "GET" and request.path.startswith("/v1/reports/"):
            request_id = request.path[len("/v1/reports/"):]
            status = self.state.statuses.get(request_id)
            if status is None:
                return Response(404, {"error": "unknown request id",
                                      "request_id": request_id})
            return Response(200, {"request_id": request_id,
                                  "status": status})
        if request.method == "GET" and request.path == "/v1/stats":
            return Response(200, self.stats())
        if request.method == "GET" and request.path == "/v1/health":
            degraded = self.controller.mode is not ServeMode.HEALTHY
            return Response(503 if degraded else 200, {
                "mode": self.controller.mode.value,
                "queue_depth": self.queue.depth,
                "queue_capacity": self.queue.capacity,
            })
        return Response(404, {"error": f"no route for "
                                       f"{request.method} {request.path}"})

    def _shed_retry_after(self) -> float:
        """How long until the backlog has drained to the low watermark."""
        drain_rate = self.config.batch_size / self.config.drain_interval
        backlog = max(0, self.queue.depth - self.config.low_watermark)
        return round(max(self.config.drain_interval, backlog / drain_rate), 3)

    def _rejected(self, request_id: str, reporter: str, reason: str,
                  detail: str, *, status: int,
                  retry_after: Optional[float]) -> Response:
        rejection = self.admission.reject(
            request_id, reporter, reason, detail,
            mode=self.controller.mode.value, retry_after=retry_after)
        self.state.statuses[request_id] = "rejected"
        headers = {}
        if rejection.retry_after is not None:
            headers["Retry-After"] = f"{rejection.retry_after:g}"
        return Response(status, {"error": reason, "detail": detail,
                                 "request_id": request_id}, headers)

    def _submit(self, body: Dict[str, Any]) -> Response:
        self.state.submitted += 1
        request_id = str(body["request_id"])
        reporter = str(body["reporter"])
        mode = self.controller.refresh(self.queue.depth)
        if mode is ServeMode.DRAINING:
            return self._rejected(
                request_id, reporter, "draining",
                "service is draining; submissions are closed",
                status=503, retry_after=None)
        if mode is ServeMode.SHEDDING:
            return self._rejected(
                request_id, reporter, "shedding",
                f"backlog at {self.queue.depth}/{self.queue.capacity}; "
                f"shedding until it clears {self.controller.low_watermark}",
                status=503, retry_after=self._shed_retry_after())
        hint = self.admission.admit_reporter(reporter)
        if hint is not None:
            return self._rejected(
                request_id, reporter, "rate_limited",
                f"reporter {reporter} exceeded "
                f"{self.admission.policy.reporter_rate:g}/s "
                f"(burst {self.admission.policy.reporter_burst:g})",
                status=429, retry_after=hint)
        budget = body.get("budget")
        item = QueueItem(
            index=int(body["index"]),
            request_id=request_id,
            reporter=reporter,
            post_index=int(body["post_index"]),
            enqueued_at=self.clock.now,
            deadline=(self.clock.now + float(budget)
                      if budget is not None else None),
        )
        if not self.queue.offer(item):
            return self._rejected(
                request_id, reporter, "queue_full",
                f"queue at capacity {self.queue.capacity}",
                status=503, retry_after=self._shed_retry_after())
        self.admission.record_accept()
        self.state.statuses[request_id] = "queued"
        if self._next_due is None:
            self._next_due = self.clock.now + self.config.drain_interval
        # The enqueue itself may breach the high watermark.
        self.controller.refresh(self.queue.depth)
        return Response(202, {"request_id": request_id, "status": "queued"},
                        {"Location": f"/v1/reports/{request_id}"})

    # -- the run loop ---------------------------------------------------------

    def run(self) -> ServeState:
        """Play the load schedule, then drain gracefully."""
        try:
            with self.stages.running():
                with self.telemetry.tracer.span(
                    "serve", requests=self.load.requests,
                    profile=self.load.profile,
                ):
                    self._play_schedule()
                    self._drain()
        finally:
            self.telemetry.capture_serve(self.stats())
        return self.state

    def _play_schedule(self) -> None:
        for arrival in self._schedule:
            if arrival.index <= self.state.arrival_index:
                continue  # committed by a previous life of this service
            if arrival.index == self._kill_at:
                self._crash.check(self._plan, arrival.index, self.clock)
            if arrival.at > self.clock.now:
                self.clock.advance(arrival.at - self.clock.now)
            self._drain_due()
            self.dispatch(Request("POST", "/v1/reports", {
                "index": arrival.index,
                "request_id": arrival.request_id,
                "reporter": arrival.reporter,
                "post_index": arrival.post_index,
                "budget": arrival.budget,
            }))
            self.state.arrival_index = arrival.index
            self.state.queue_depths.add(self.queue.depth)
            if (self._store is not None
                    and (arrival.index + 1) % self.config.commit_every == 0):
                self._commit()
        if self._store is not None:
            self._commit()

    def _drain_due(self) -> None:
        """Catch-up batch processing on an absolute drain schedule.

        The next-due instant advances by fixed intervals rather than
        resetting from "now", so a long quiet gap drains as many batches
        as the elapsed time owes — the queue empties during lulls
        instead of leaking one batch per arrival.
        """
        if self.queue.depth == 0:
            self._next_due = None
            return
        while (self.queue.depth and self._next_due is not None
               and self._next_due <= self.clock.now):
            self._process_batch()
            self._next_due += self.config.drain_interval
        if self.queue.depth == 0:
            self._next_due = None

    def _drain(self) -> None:
        """Graceful shutdown: reject new work, finish everything queued."""
        self.controller.begin_drain(self.queue.depth)
        while self.queue.depth:
            self.clock.advance(self.config.drain_interval)
            self._process_batch()
        self.controller.end_drain()
        self._next_due = None
        if self._store is not None:
            self._commit()

    # -- batch processing -----------------------------------------------------

    def _process_batch(self) -> None:
        items = self.queue.take(self.config.batch_size)
        batch: List[QueueItem] = []
        for item in items:
            if item.deadline is not None and self.clock.now > item.deadline:
                waited = self.clock.now - item.enqueued_at
                self.admission.reject(
                    item.request_id, item.reporter, "deadline",
                    f"expired in queue after {waited:.0f}s (budget "
                    f"{item.deadline - item.enqueued_at:.0f}s)",
                    mode=self.controller.mode.value, retry_after=None)
                self.state.statuses[item.request_id] = "timed_out"
                self.state.timed_out += 1
                continue
            batch.append(item)
        self.controller.refresh(self.queue.depth)
        if not batch:
            return
        mode = self.controller.mode
        annotate_only = mode in (ServeMode.DEGRADED, ServeMode.SHEDDING)
        with self.telemetry.tracer.span(
            "serve/batch", items=len(batch), mode=mode.value,
        ):
            reports = [
                _report_from_post(self._posts[item.post_index], None)
                for item in batch
            ]
            dataset, stats, self.state.next_record_index = self.stages.curate(
                reports, record_id_start=self.state.next_record_index,
                sanitizer=self._sanitizer)
            self.state.quarantined += stats.quarantined
            self.state.last_batch_quarantine_rate = (
                stats.quarantined / len(reports) if reports else 0.0)
            division = self.ledger.divide(dataset)
            delta = SmishingDataset(division.delta)
            deadlines = [item.deadline for item in batch
                         if item.deadline is not None]
            enriched = self.stages.enrich(
                delta, self.services,
                known_senders=self.state.senders,
                known_urls=self.state.urls,
                # The oldest queued request's patience caps every retry
                # in the batch: backlogged work must not back off past
                # the deadline of the caller still waiting on it.
                deadline=min(deadlines) if deadlines else None,
                annotate_only=annotate_only)
        self.ledger.commit(division.new_hashes)
        self._merge_batch(dataset, division, enriched)
        for item in batch:
            self.state.statuses[item.request_id] = "done"
            self.state.latencies.add(
                round(self.clock.now - item.enqueued_at, 6))
        self.state.processed += len(batch)
        self.state.batches += 1
        if annotate_only:
            self.state.degraded_batches += 1

    #: A batch more than half-diverted reads as an active poisoning
    #: attempt, not background noise.
    QUARANTINE_PRESSURE_THRESHOLD = 0.5

    def _quarantine_pressure(self) -> Optional[str]:
        """Degradation-controller signal: hostile-input spike in the
        most recent batch. Returns None while the intake runs clean."""
        rate = self.state.last_batch_quarantine_rate
        if rate >= self.QUARANTINE_PRESSURE_THRESHOLD:
            return (f"sanitizer quarantined {rate:.0%} of the last "
                    f"batch (hostile-input spike)")
        return None

    def _merge_batch(self, dataset: SmishingDataset, division,
                     enriched: EnrichedDataset) -> None:
        state = self.state
        state.records.extend(dataset)
        state.urls.update(enriched.urls)
        state.senders.update(enriched.senders)
        annotations, raw = inherit_annotations(division, enriched,
                                               state.raw_annotations)
        state.annotations.update(annotations)
        state.raw_annotations.update(raw)
        state.duplicate_of.update(division.duplicate_of)
        state.gaps.extend(enriched.gaps)

    # -- durability -----------------------------------------------------------

    def _commit(self) -> None:
        """Make everything up to the last handled arrival durable."""
        self.state.commits += 1
        self._store.commit({
            "state": self.state,
            "queue": self.queue,
            "ledger": self.ledger,
            "sanitizer": self._sanitizer,
            "admission": self.admission.state_dict(),
            "controller": self.controller.state_dict(),
            "next_due": self._next_due,
            "cache_entries": (self.stages.cache.export_entries()
                              if self.stages.cache is not None else ()),
            "registry_state": self._registry.capture(),
        }, self._manifest())

    def _manifest(self) -> Dict[str, Any]:
        return {
            **identity_to_dict(self.world.config, self._plan, self.policy),
            "load": self.load.to_dict(),
            "config": self.config.to_dict(),
            "committed_arrival": self.state.arrival_index,
            "commits": self.state.commits,
        }

    # -- reporting ------------------------------------------------------------

    @property
    def fault_profile(self) -> str:
        if self._plan is None or self._plan.is_empty:
            return "none"
        return self._plan.profile or "custom"

    def shed_total(self) -> int:
        """Front-door rejections (excludes post-accept deadline drops)."""
        return sum(self.admission.rejected_by_reason.get(reason, 0)
                   for reason in FRONT_DOOR_REASONS)

    def stats(self) -> Dict[str, Any]:
        state = self.state
        return {
            "load": self.load.to_dict(),
            "fault_profile": self.fault_profile,
            "mode": self.controller.mode.value,
            "submitted": state.submitted,
            "accepted": self.admission.accepted,
            "shed": self.shed_total(),
            "rejected_by_reason": dict(sorted(
                self.admission.rejected_by_reason.items())),
            "processed": state.processed,
            "timed_out": state.timed_out,
            "quarantined": state.quarantined,
            "records": len(state.records),
            "deduped": len(state.duplicate_of),
            "gaps": len(state.gaps),
            "batches": state.batches,
            "degraded_batches": state.degraded_batches,
            "commits": state.commits,
            "queue": {
                "capacity": self.queue.capacity,
                "max_depth": self.queue.max_depth,
                **state.queue_depths.to_dict(),
            },
            "latency": state.latencies.to_dict(),
            "transitions": [t.to_dict()
                            for t in self.controller.transitions],
        }


def _serve_store(serve_dir) -> SnapshotStore:
    return SnapshotStore(serve_dir, SERVE_MANIFEST_NAME, SERVE_FORMAT_VERSION)
