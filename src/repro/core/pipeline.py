"""End-to-end pipeline: collect → curate → enrich a synthetic world.

This is the programmatic equivalent of everything §3 describes, wired
against a :class:`~repro.world.scenario.World`. The result object carries
every intermediate product so analyses, tests, and benches can introspect
any stage — including, when observability is enabled, the full
:class:`~repro.obs.Telemetry` (spans, counters, meter snapshots) of the
run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Tuple

from ..checkpoint.session import NULL_CHECKPOINT
from ..checkpoint.state import StateRegistry, build_state_registry
from ..exec import ExecutionEngine, ExecutionPolicy
from ..faults import FaultPlan, inject_faults
from ..imaging.vision_openai import OpenAiVisionExtractor
from ..nlp.annotator import MessageAnnotator
from ..nlp.openai_api import OpenAiEndpoint
from ..obs import NULL_TELEMETRY, Telemetry, ensure_telemetry
from ..resilience import CircuitBreaker, RetryPolicy
from ..utils.rng import derive
from ..world.scenario import World
from .collection import CollectionResult, collect_all
from .config import PipelineConfig
from .curation import CurationStats, Curator
from .dataset import SmishingDataset
from .enrichment import EnrichedDataset, Enricher, EnrichmentServices


@dataclass
class PipelineRun:
    """Everything one pipeline execution produced."""

    world: World
    config: PipelineConfig
    collection: CollectionResult
    curation_stats: CurationStats
    dataset: SmishingDataset
    enriched: EnrichedDataset
    #: Observability for the run; NULL_TELEMETRY when tracing was off.
    telemetry: Telemetry = field(default_factory=lambda: NULL_TELEMETRY)

    @property
    def annotated_dataset(self) -> SmishingDataset:
        return self.enriched.annotated_dataset()


def build_enrichment_services(
    world: World, *, endpoint: Optional[OpenAiEndpoint] = None
) -> EnrichmentServices:
    """Wire the world's service simulators into an enrichment battery."""
    if endpoint is None:
        endpoint = OpenAiEndpoint(
            clock=world.clock,
            annotator=MessageAnnotator(
                brands=world.brands, templates=world.templates
            ),
        )
    return EnrichmentServices(
        hlr=world.hlr,
        whois=world.whois,
        crtsh=world.crtsh,
        passivedns=world.passivedns,
        ipinfo=world.ipinfo,
        virustotal=world.virustotal,
        gsb=world.gsb,
        openai=endpoint,
    )


class Stages:
    """The collect → curate → enrich plumbing of one run, built once:
    per run by ``run_pipeline``, for their whole life by a
    :class:`~repro.stream.StreamSession` and an
    :class:`~repro.serve.IntakeService`.

    It owns what every step shares — the service battery, the engine
    with its one pool, the memo cache, the breakers, the retry policy,
    the vision extractor — plus the meter observation and the one
    teardown. A step takes only what differs between its callers; what
    is a driver's own (batch's ``collect`` span and curation barrier, a
    stream's watermarks and dedup ledger, serve's admission, deadlines
    and degraded mode) stays with the driver.
    """

    def __init__(self, world: World, config: PipelineConfig,
                 policy: ExecutionPolicy, telemetry: Optional[Telemetry],
                 *, forums: Optional[Dict[Any, Any]] = None):
        seed = world.config.seed
        self._clock = world.clock
        self.telemetry = ensure_telemetry(telemetry)
        self.telemetry.tracer.bind_clock(world.clock)
        self.services = build_enrichment_services(world)
        #: The world's forums; serve, which never collects, passes none.
        self._forums = world.forums if forums is None else forums
        self._engine = ExecutionEngine(policy)
        self.cache = self._engine.build_cache()
        self.breakers: Dict[str, CircuitBreaker] = {}
        self._retry = RetryPolicy(seed=seed)
        self._vision = OpenAiVisionExtractor(
            derive(seed, "pipeline-vision"),
            miss_rate=config.vision_miss_rate,
            stable_seed=seed if config.stable_vision else None,
        )
        #: Stats of every checkpoint session closed here, summed.
        self._checkpoint: Dict[str, Any] = {}

    # -- wiring ---------------------------------------------------------------

    def wrap(self, plan: Optional[FaultPlan]):
        """``(services, forums)`` to call through under ``plan``: a fault
        proxy over every targeted one. The world is never mutated."""
        return inject_faults(self.services, self._forums, plan,
                             clock=self._clock)

    def registry(self, services, forums) -> StateRegistry:
        """The restorable state of whatever calls through ``services``
        and ``forums`` (their fault proxies included) plus the breakers."""
        return build_state_registry(self._clock, services, forums,
                                    self.breakers, self.telemetry)

    @contextmanager
    def running(self) -> Iterator[None]:
        """Enter the engine and observe every meter; on any exit, tear
        down: close any span a crash left open (so the trace always
        serialises), then capture the breakers, the cache, the
        checkpoint totals and the pools — a crashed run's state is worth
        recording too."""
        meters = ([forum.meter for forum in self._forums.values()]
                  + list(self.services.meters().values()))
        telemetry = self.telemetry
        try:
            with self._engine, telemetry.observe_meters(meters):
                yield
        finally:
            telemetry.tracer.abandon_open()
            for breaker in self.breakers.values():
                telemetry.capture_breaker(breaker)
            if self.cache is not None:
                telemetry.capture_cache(self.cache)
            if self._checkpoint:
                telemetry.capture_checkpoint(dict(self._checkpoint))
            telemetry.capture_exec(self._engine.stats())

    def close_checkpoint(self, checkpoint) -> None:
        """Add a checkpoint session's stats to the run's totals, then
        close the session."""
        if checkpoint.active:
            totals = self._checkpoint
            for key, value in checkpoint.stats().items():
                if key == "mode":
                    totals[key] = value
                elif key == "stages_restored":
                    totals[key] = totals.get(key, []) + value
                elif isinstance(value, bool):
                    totals[key] = totals.get(key, False) or value
                else:
                    totals[key] = totals.get(key, 0) + value
        checkpoint.close()

    # -- the three steps ------------------------------------------------------

    def collect(self, forums, config: PipelineConfig,
                checkpoint) -> Tuple[CollectionResult, bool]:
        """Collect from ``forums`` within ``config``'s windows behind the
        collection barrier, whose snapshot a resumed run gets back
        instead. Returns the collection and whether it was restored."""
        collection = checkpoint.restore_stage("collection")
        if collection is not None:
            return collection, True
        collection = collect_all(forums, config, self.telemetry)
        checkpoint.stage_barrier("collection", collection)
        return collection, False

    def curate(self, reports, *, record_id_start: int = 0, sanitizer=None
               ) -> Tuple[SmishingDataset, CurationStats, int]:
        """Curate ``reports`` into records numbered after
        ``record_id_start``: the dataset, its stats and the next index."""
        curator = Curator(self._vision, self.telemetry,
                          record_id_start=record_id_start,
                          sanitizer=sanitizer)
        dataset = curator.curate(reports)
        return dataset, curator.stats, curator.record_counter

    def enrich(self, dataset: SmishingDataset, services, *, journal=None,
               known_senders=(), known_urls=(),
               deadline: Optional[float] = None,
               annotate_only: bool = False) -> EnrichedDataset:
        """Enrich ``dataset`` through ``services``, skipping the known
        senders and URLs (see :class:`~repro.core.enrichment.Enricher`)."""
        return Enricher(
            services, self.telemetry,
            retry_policy=self._retry,
            breakers=self.breakers,
            cache=self.cache,
            pool=self._engine.enrichment_pool(),
            journal=journal,
            known_senders=known_senders,
            known_urls=known_urls,
            deadline=deadline,
        ).run(dataset, annotate_only=annotate_only)


def run_pipeline(
    world: World,
    config: Optional[PipelineConfig] = None,
    telemetry: Optional[Telemetry] = None,
    fault_plan: Optional[FaultPlan] = None,
    execution: Optional[ExecutionPolicy] = None,
    checkpoint=None,
) -> PipelineRun:
    """Collect from all five forums, curate, and enrich.

    ``telemetry`` of None (the default) runs against the shared no-op
    telemetry: no span objects are allocated and every instrumentation
    site costs a single dispatch. Pass ``Telemetry.create(...)`` to get
    nested spans (wall + simulated time), per-service counters, and
    end-of-run meter snapshots on ``PipelineRun.telemetry``.

    ``fault_plan`` of None (or an empty plan) runs against the world's
    services directly. A non-empty plan wraps every targeted forum and
    enrichment service in a :class:`~repro.faults.FaultProxy` for this
    run only — the world object is never mutated — and the run completes
    anyway: collection failures become ``CollectionLimitation`` records,
    enrichment failures become ``EnrichmentGap`` records.

    ``execution`` of None runs the default
    :class:`~repro.exec.ExecutionPolicy` (one worker, enrichment cache
    on). Any policy — any worker count, cache on or off — produces a
    byte-identical ``PipelineRun``; see :mod:`repro.exec.engine` for the
    argument and ``tests/test_exec_equivalence.py`` for the proof.

    ``checkpoint`` of None runs without durability. Pass a
    :class:`~repro.checkpoint.CheckpointSession` to journal the run
    (record mode) or to finish a crashed one (resume mode): completed
    stages are restored from their barrier snapshots instead of
    re-running, journaled enrichment lookups are replayed without
    touching any service, and the run continues live from exactly where
    the crash landed — byte-identical to a never-crashed run (proven by
    ``tests/test_checkpoint_equivalence.py``).
    """
    config = config or PipelineConfig()
    policy = execution or ExecutionPolicy()
    checkpoint = checkpoint if checkpoint is not None else NULL_CHECKPOINT
    stages = Stages(world, config, policy, telemetry)
    telemetry = stages.telemetry
    services, forums = stages.wrap(fault_plan)
    if checkpoint.active:
        checkpoint.bind(registry=stages.registry(services, forums),
                        scenario=world.config, config=config,
                        fault_plan=fault_plan, policy=policy)
    with stages.running():
        try:
            with telemetry.tracer.span(
                "pipeline", seed=world.config.seed,
                n_campaigns=world.config.n_campaigns,
                faults=(fault_plan.describe() if fault_plan is not None
                        else "none"),
                workers=policy.workers,
                cache="on" if policy.cache else "off",
            ) as root:
                with telemetry.tracer.span("collect") as collect_span:
                    collection, resumed = stages.collect(forums, config,
                                                         checkpoint)
                    if resumed:
                        collect_span.set(resumed=1)
                    collect_span.set(posts_seen=collection.posts_seen,
                                     reports=len(collection.reports),
                                     limitations=len(collection.limitations))
                restored = checkpoint.restore_stage("curation")
                if restored is None:
                    dataset, curation_stats, _ = stages.curate(
                        collection.reports)
                    checkpoint.stage_barrier("curation",
                                             (dataset, curation_stats))
                else:
                    dataset, curation_stats = restored
                    with telemetry.tracer.span("curate") as curate_span:
                        curate_span.set(resumed=1, records=len(dataset))
                checkpoint.begin_enrichment()
                enriched = stages.enrich(
                    dataset, services,
                    journal=checkpoint.enrichment_journal())
                root.set(records=len(dataset), gaps=len(enriched.gaps))
            checkpoint.complete()
        finally:
            stages.close_checkpoint(checkpoint)
    return PipelineRun(
        world=world,
        config=config,
        collection=collection,
        curation_stats=curation_stats,
        dataset=dataset,
        enriched=enriched,
        telemetry=telemetry,
    )
