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
from typing import Optional

from ..checkpoint.session import NULL_CHECKPOINT
from ..checkpoint.state import build_state_registry
from ..exec import ExecutionEngine, ExecutionPolicy
from ..faults import FaultPlan, inject_faults
from ..imaging.vision_openai import OpenAiVisionExtractor
from ..nlp.annotator import MessageAnnotator
from ..nlp.openai_api import OpenAiEndpoint
from ..obs import NULL_TELEMETRY, Telemetry, ensure_telemetry
from ..resilience import RetryPolicy
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


@contextmanager
def _observed_meters(telemetry: Telemetry, meters):
    """Attach the telemetry hook to every meter for the duration of a
    run, then detach and capture final snapshots — the world object is
    left unmodified for other (possibly telemetry-free) runs."""
    if not telemetry.enabled:
        yield
        return
    hook = telemetry.meter_hook()
    for meter in meters:
        meter.observer = hook
    try:
        yield
    finally:
        for meter in meters:
            meter.observer = None
            telemetry.capture_meter(meter)


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
    telemetry = ensure_telemetry(telemetry)
    telemetry.tracer.bind_clock(world.clock)
    policy = execution or ExecutionPolicy()
    checkpoint = checkpoint if checkpoint is not None else NULL_CHECKPOINT

    services = build_enrichment_services(world)
    forums = world.forums
    if fault_plan is not None and not fault_plan.is_empty:
        services, forums = inject_faults(services, forums, fault_plan,
                                         clock=world.clock)
    forum_meters = [forum.meter for forum in forums.values()]
    service_meters = list(services.meters().values())

    engine = ExecutionEngine(policy)
    cache = engine.build_cache()
    enricher = Enricher(
        services, telemetry,
        retry_policy=RetryPolicy(seed=world.config.seed),
        cache=cache,
        pool=engine.enrichment_pool(),
        journal=checkpoint.enrichment_journal(),
    )
    if checkpoint.active:
        checkpoint.bind(
            registry=build_state_registry(world.clock, services, forums,
                                          enricher.breakers, telemetry),
            scenario=world.config, config=config, fault_plan=fault_plan,
            policy=policy,
        )
    try:
        with engine, _observed_meters(telemetry,
                                      forum_meters + service_meters):
            with telemetry.tracer.span(
                "pipeline", seed=world.config.seed,
                n_campaigns=world.config.n_campaigns,
                faults=(fault_plan.describe() if fault_plan is not None
                        else "none"),
                workers=policy.workers,
                cache="on" if policy.cache else "off",
            ) as root:
                with telemetry.tracer.span("collect") as collect_span:
                    collection = checkpoint.restore_stage("collection")
                    if collection is None:
                        collection = collect_all(forums, config, telemetry)
                        checkpoint.stage_barrier("collection", collection)
                    else:
                        collect_span.set(resumed=1)
                    collect_span.set(posts_seen=collection.posts_seen,
                                     reports=len(collection.reports),
                                     limitations=len(collection.limitations))
                restored = checkpoint.restore_stage("curation")
                if restored is None:
                    vision = OpenAiVisionExtractor(
                        derive(world.config.seed, "pipeline-vision"),
                        miss_rate=config.vision_miss_rate,
                        stable_seed=(world.config.seed
                                     if config.stable_vision else None),
                    )
                    curator = Curator(vision, telemetry)
                    dataset = curator.curate(collection.reports)
                    curation_stats = curator.stats
                    checkpoint.stage_barrier("curation",
                                             (dataset, curation_stats))
                else:
                    dataset, curation_stats = restored
                    with telemetry.tracer.span("curate") as curate_span:
                        curate_span.set(resumed=1, records=len(dataset))
                checkpoint.begin_enrichment()
                enriched = enricher.run(dataset)
                root.set(records=len(dataset), gaps=len(enriched.gaps))
        checkpoint.complete()
    finally:
        # Snapshots must survive partially-failed runs too: a crashed
        # enrichment stage still leaves breaker state worth recording
        # (meters are captured by _observed_meters' own finally). Any
        # span still open here (a crash escaped the context managers)
        # is closed and flagged, so the trace always serialises.
        telemetry.tracer.abandon_open()
        for breaker in enricher.breakers.values():
            telemetry.capture_breaker(breaker)
        if cache is not None:
            telemetry.capture_cache(cache)
        telemetry.capture_checkpoint(checkpoint.stats())
        telemetry.capture_exec(engine.stats())
        checkpoint.close()
    return PipelineRun(
        world=world,
        config=config,
        collection=collection,
        curation_stats=curation_stats,
        dataset=dataset,
        enriched=enriched,
        telemetry=telemetry,
    )
