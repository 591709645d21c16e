"""The stream session: multi-epoch ingestion over one simulated world.

A :class:`StreamSession` turns the batch pipeline into a resumable
incremental ingester. One session owns one world, one enrichment-service
battery, one memo cache, one breaker set, and one telemetry sink; each
*epoch* then runs the familiar collect → curate → enrich sequence over a
clamped slice of the collection timeline and folds its products into the
growing :class:`~repro.stream.state.StreamState`:

* the **epoch plan** (:mod:`repro.stream.epochs`) partitions the global
  window, so windowed forums contribute each post to exactly one epoch;
* the **watermark store** (:mod:`repro.stream.watermarks`) drops
  re-sightings from the cumulative sources and defers future-dated
  posts to the epoch that owns them;
* the **dedup ledger** (:mod:`repro.stream.ledger`) removes records
  whose content a prior epoch already enriched — the duplicate record
  stays in the dataset but inherits its canonical twin's annotation
  (rebound to its own record id, exactly the service's echo semantics);
* **delta enrichment** passes the merged state's url/sender subjects to
  the :class:`~repro.core.enrichment.Enricher` as known sets and keeps
  the session-wide cache warm, so epoch N+1 charges only for what epoch
  N has never answered.

With a ``stream_dir``, every epoch runs under its own
:class:`~repro.checkpoint.CheckpointSession` (journal + barriers under
``<stream_dir>/epochs/epoch-NNNN/``) and each commit durably rewrites
``state.pkl`` + ``STREAM.json``. A crash mid-epoch resumes *that* epoch
from its journal without disturbing committed ones; a crash between
epochs resumes from the committed state alone.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from ..checkpoint import MANIFEST_NAME, CheckpointSession
from ..checkpoint.identity import identity_from_dict, identity_to_dict
from ..checkpoint.session import NULL_CHECKPOINT
from ..checkpoint.state import build_state_registry
from ..core.collection import collect_all
from ..core.config import PipelineConfig
from ..core.curation import Curator
from ..core.quarantine import stamp_epoch
from ..core.enrichment import Enricher
from ..core.dataset import SmishingDataset
from ..core.pipeline import _observed_meters, build_enrichment_services
from ..errors import ConfigurationError
from ..exec import ExecutionEngine, ExecutionPolicy
from ..faults import FaultPlan, inject_faults
from ..imaging.vision_openai import OpenAiVisionExtractor
from ..obs import Telemetry, ensure_telemetry
from ..resilience import CircuitBreaker, RetryPolicy
from ..utils.rng import derive
from ..world.scenario import ScenarioConfig, World, build_world
from .epochs import EpochScheduler, EpochWindow, clamp_windows, plan_epochs
from .ledger import DedupLedger
from .persist import STATE_NAME, SnapshotStore
from .state import EpochStats, StreamState
from .watermarks import WatermarkStore

#: The stream directory's manifest file name.
STREAM_MANIFEST_NAME = "STREAM.json"
STREAM_STATE_NAME = STATE_NAME
#: Version 2: the policy lost its cache bound; version 1 is refused.
STREAM_FORMAT_VERSION = 2


class StreamSession:
    """One continuous-ingestion run: a world plus its growing state."""

    def __init__(self, world: World, *, scheduler: EpochScheduler,
                 config: Optional[PipelineConfig] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 execution: Optional[ExecutionPolicy] = None,
                 telemetry: Optional[Telemetry] = None,
                 store: Optional[SnapshotStore] = None,
                 cli: Optional[Dict[str, Any]] = None):
        self.world = world
        self.scheduler = scheduler
        base = config or PipelineConfig()
        #: Epoch-sliced curation requires per-image vision draws — the
        #: positional RNG would make an image's extraction depend on how
        #: many images preceded it across *all* epochs.
        self.config = replace(base, stable_vision=True)
        self._survivable = (fault_plan.without_crash_points()
                            if fault_plan is not None else None)
        self._crash_points = (fault_plan.crash_points()
                              if fault_plan is not None else ())
        self.policy = execution or ExecutionPolicy()
        self.telemetry = ensure_telemetry(telemetry)
        self.telemetry.tracer.bind_clock(world.clock)
        self._store = store
        self._cli = dict(cli) if cli else {}

        if (store is not None and self._survivable is not None
                and not self._survivable.is_empty
                and self._survivable.profile is None):
            raise ConfigurationError(
                "a durable stream session needs a *named* fault profile "
                "(hand-built plans cannot be rebuilt at resume time)"
            )

        #: Session-wide resources: one service battery (one OpenAI
        #: endpoint, so annotation memoisation spans epochs), one cache,
        #: one breaker set. Fault proxies are rebuilt per epoch.
        self.services = build_enrichment_services(world)
        self._engine = ExecutionEngine(self.policy)
        self.cache = self._engine.build_cache()
        self.breakers: Dict[str, CircuitBreaker] = {}
        #: The committed clock/meter/breaker state. It registers no
        #: fault proxy: proxies are rebuilt for every epoch, so their
        #: call counters are epoch state (journaled per epoch), not
        #: session state.
        self._registry = build_state_registry(
            world.clock, self.services, world.forums, self.breakers,
            self.telemetry)

        self.state = StreamState()
        self.watermarks = WatermarkStore()
        self.ledger = DedupLedger()
        self._cache_seeded = 0
        self._checkpoint_totals: Dict[str, Any] = {}

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, scenario: Optional[ScenarioConfig] = None, *,
               epochs: Optional[int] = None,
               epoch_hours: Optional[float] = None,
               config: Optional[PipelineConfig] = None,
               fault_plan: Optional[FaultPlan] = None,
               execution: Optional[ExecutionPolicy] = None,
               telemetry_factory: Optional[Callable[[World], Telemetry]] = None,
               stream_dir: Optional[Path] = None,
               idle_seconds: float = 0.0,
               cli: Optional[Dict[str, Any]] = None) -> "StreamSession":
        """Start a fresh session (``repro watch``).

        With a ``stream_dir``, the directory must not already hold a
        stream; the session manifest is persisted immediately so even a
        crash inside epoch 0 leaves a resumable directory behind. A
        crash point in ``fault_plan`` must name one of the planned
        epochs: one past them would never fire.
        """
        scenario = scenario or ScenarioConfig()
        base = config or PipelineConfig()
        plan = plan_epochs(base.windows, epochs=epochs,
                           epoch_hours=epoch_hours)
        target = epochs if epochs is not None else len(plan)
        for crash in (fault_plan.crash_points()
                      if fault_plan is not None else ()):
            if not 0 <= crash.epoch < target:
                raise ConfigurationError(
                    f"crash point {crash.service}:{crash.at_call} names "
                    f"epoch {crash.epoch}, but the session plans epochs "
                    f"0..{target - 1}"
                )
        world = build_world(scenario)
        scheduler = EpochScheduler(plan, target=target,
                                   idle_seconds=idle_seconds)
        telemetry = (telemetry_factory(world) if telemetry_factory is not None
                     else None)
        store = _stream_store(stream_dir) if stream_dir is not None else None
        session = cls(world, scheduler=scheduler, config=base,
                      fault_plan=fault_plan, execution=execution,
                      telemetry=telemetry, store=store, cli=cli)
        if store is not None:
            store.create(session._manifest())
        return session

    @classmethod
    def load(cls, stream_dir: Path, *,
             telemetry_factory: Optional[Callable[[World], Telemetry]] = None,
             ) -> "StreamSession":
        """Reopen a durable session (``repro resume`` / ``repro ingest``).

        Rebuilds the world from the persisted scenario, reloads the
        merged state, watermarks, and ledger, seeds the enrichment cache
        from the prior epochs' exported entries, and restores the
        registry state (clock, meters, breakers) captured at the last
        commit.
        """
        store = _stream_store(stream_dir)
        manifest, payload = store.load()
        scenario, fault_plan, execution = identity_from_dict(manifest)
        world = build_world(scenario)
        plan = [EpochWindow(index=i,
                            start=dt.datetime.fromisoformat(start),
                            end=dt.datetime.fromisoformat(end))
                for i, (start, end) in enumerate(manifest["plan"])]
        scheduler = EpochScheduler(plan, target=int(manifest["target_epochs"]),
                                   idle_seconds=float(
                                       manifest.get("idle_seconds", 0.0)))
        telemetry = (telemetry_factory(world) if telemetry_factory is not None
                     else None)
        session = cls(world, scheduler=scheduler,
                      fault_plan=fault_plan, execution=execution,
                      telemetry=telemetry, store=store,
                      cli=manifest.get("cli") or {})
        if payload is not None:
            session.state = StreamState.from_payload(payload)
            if session.cache is not None:
                session._cache_seeded = session.cache.seed(
                    payload.get("cache_entries", ()))
            session._registry.restore(payload.get("registry_state", {}))
        session.watermarks = WatermarkStore.from_dict(
            manifest.get("watermarks", {}))
        session.ledger = DedupLedger.from_dict(manifest.get("ledger", {}))
        return session

    # -- the epoch loop -------------------------------------------------------

    def run(self) -> StreamState:
        """Run every pending epoch up to the scheduler's target."""
        meters = ([f.meter for f in self.world.forums.values()]
                  + list(self.services.meters().values()))
        try:
            with self._engine, _observed_meters(self.telemetry, meters):
                for epoch in self.scheduler.pending(
                        self.state.committed_epochs):
                    if epoch.index > 0 and self.scheduler.idle_seconds:
                        self.world.clock.advance(self.scheduler.idle_seconds)
                    self._run_epoch(epoch)
        finally:
            self._finalise_telemetry()
        return self.state

    def ingest(self, epochs: int = 1) -> StreamState:
        """Run ``epochs`` additional epochs beyond the current target.

        The raised target is persisted *before* the new epoch starts, so
        a crash mid-ingest resumes into the new epoch rather than
        concluding there is nothing left to do.
        """
        if self.state.committed_epochs < self.scheduler.target:
            raise ConfigurationError(
                f"cannot ingest: {self.scheduler.target - self.state.committed_epochs} "
                f"planned epoch(s) still pending — run `repro resume` first"
            )
        self.scheduler.extend(epochs)
        if self._store is not None:
            self._store.write_manifest(self._manifest())
        return self.run()

    def _run_epoch(self, epoch: EpochWindow) -> None:
        config = self._epoch_config(epoch)
        plan = self._plan_for_epoch(epoch)
        services, forums = self.services, self.world.forums
        if plan is not None and not plan.is_empty:
            services, forums = inject_faults(self.services, self.world.forums,
                                             plan, clock=self.world.clock)
        checkpoint = self._open_epoch_checkpoint(epoch)
        enricher = Enricher(
            services, self.telemetry,
            retry_policy=RetryPolicy(seed=self.world.config.seed),
            breakers=self.breakers,
            cache=self.cache,
            pool=self._engine.enrichment_pool(),
            journal=checkpoint.enrichment_journal(),
            known_senders=set(self.state.senders),
            known_urls=set(self.state.urls),
        )
        registry = build_state_registry(self.world.clock, services, forums,
                                        self.breakers, self.telemetry)
        charged_before = self._charged_now()
        try:
            if checkpoint.active:
                checkpoint.bind(registry=registry, scenario=self.world.config,
                                config=config, fault_plan=plan,
                                policy=self.policy)
                # The epoch-start barrier pins the pre-epoch cumulative
                # state (clock, meters, breakers); resuming this epoch
                # restores it before replaying anything.
                if checkpoint.restore_stage("epoch-start") is None:
                    checkpoint.stage_barrier("epoch-start",
                                             {"epoch": epoch.index})
            with self.telemetry.tracer.span(
                "stream/epoch", epoch=epoch.index, window=epoch.label,
            ) as span:
                collection = checkpoint.restore_stage("collection")
                if collection is None:
                    collection = collect_all(forums, config, self.telemetry)
                    checkpoint.stage_barrier("collection", collection)
                filtered = self.watermarks.filter_epoch(collection, epoch)
                restored = checkpoint.restore_stage("curation")
                if restored is None:
                    vision = OpenAiVisionExtractor(
                        derive(self.world.config.seed, "pipeline-vision"),
                        miss_rate=config.vision_miss_rate,
                        stable_seed=self.world.config.seed,
                    )
                    curator = Curator(
                        vision, self.telemetry,
                        record_id_start=self.state.next_record_index)
                    dataset = curator.curate(filtered.result.reports)
                    curation_stats = curator.stats
                    next_index = curator.record_counter
                    checkpoint.stage_barrier(
                        "curation", (dataset, curation_stats, next_index))
                else:
                    dataset, curation_stats, next_index = restored
                division = self.ledger.divide(dataset)
                delta = SmishingDataset(division.delta)
                cache_reuse = self._cache_reuse(delta)
                checkpoint.begin_enrichment()
                enriched = enricher.run(delta)
                span.set(reports=len(filtered.result.reports),
                         records=len(dataset), deduped=len(division.duplicate_of),
                         gaps=len(enriched.gaps))
            checkpoint.complete()
            self._commit_epoch(
                epoch=epoch, collection=collection, filtered=filtered,
                dataset=dataset, curation_stats=curation_stats,
                next_index=next_index, division=division, enriched=enriched,
                cache_reuse=cache_reuse, charged_before=charged_before,
            )
        finally:
            if checkpoint.active:
                self._accumulate_checkpoint(checkpoint.stats())
            checkpoint.close()

    def _commit_epoch(self, *, epoch, collection, filtered, dataset,
                      curation_stats, next_index, division, enriched,
                      cache_reuse, charged_before) -> None:
        """Fold one finished epoch into the state and make it durable."""
        kept = filtered.result
        kept.limitations = [replace(l, epoch=epoch.index)
                            for l in kept.limitations]
        enriched.gaps = [replace(g, epoch=epoch.index)
                         for g in enriched.gaps]
        curation_stats.quarantines = stamp_epoch(
            curation_stats.quarantines, epoch.index)
        annotations = dict(enriched.annotations)
        raw = dict(enriched.raw_annotations)
        # Duplicates inherit their canonical twin's annotation, rebound
        # to their own record id — byte-for-byte what the annotation
        # service itself does for a repeated text (it echoes the id and
        # is otherwise pure in the text).
        lookup = {**self.state.raw_annotations, **raw}
        for dup_id, canon_id in division.duplicate_of.items():
            canonical = lookup.get(canon_id)
            if canonical is None:  # canonical's annotation gapped
                continue
            rebound = dataclasses.replace(canonical, message_id=dup_id)
            raw[dup_id] = rebound
            annotations[dup_id] = rebound.labels
        charged_after = self._charged_now()
        stats = EpochStats(
            index=epoch.index,
            window=epoch.label,
            start=epoch.start.isoformat(),
            end=epoch.end.isoformat(),
            posts_seen=collection.posts_seen,
            collected=len(collection.reports),
            new_reports=len(kept.reports),
            seen_dropped=filtered.seen_dropped,
            deferred=filtered.deferred,
            records=len(dataset),
            quarantined=curation_stats.quarantined,
            deduped=len(division.duplicate_of),
            delta_records=len(division.delta),
            gaps=len(enriched.gaps),
            limitations=len(kept.limitations),
            cache_reuse=cache_reuse,
            ledger_hits=len(division.duplicate_of),
            ledger_misses=len(division.delta),
            charged={name: charged_after[name] - charged_before.get(name, 0)
                     for name in charged_after},
        )
        self.state.merge_epoch(
            stats=stats, collection=kept, dataset=dataset,
            curation_stats=curation_stats, enriched=enriched,
            annotations=annotations, raw_annotations=raw,
            next_record_index=next_index,
        )
        self.watermarks.commit(filtered, epoch)
        self.ledger.commit(division.new_hashes)
        if self._store is not None:
            payload = self.state.to_payload()
            payload["cache_entries"] = (self.cache.export_entries()
                                        if self.cache is not None else ())
            payload["registry_state"] = self._registry.capture()
            self._store.commit(payload, self._manifest())

    # -- per-epoch helpers ----------------------------------------------------

    def _epoch_config(self, epoch: EpochWindow) -> PipelineConfig:
        return replace(self.config,
                       windows=clamp_windows(self.config.windows,
                                             epoch.start, epoch.end))

    def _plan_for_epoch(self, epoch: EpochWindow) -> Optional[FaultPlan]:
        crashes = [crash for crash in self._crash_points
                   if crash.epoch == epoch.index]
        if not crashes:
            return self._survivable
        base = self._survivable or FaultPlan(seed=self.world.config.seed)
        return base.extended(*crashes)

    def _open_epoch_checkpoint(self, epoch: EpochWindow):
        if self._store is None:
            return NULL_CHECKPOINT
        epoch_dir = (self._store.directory / "epochs"
                     / f"epoch-{epoch.index:04d}")
        if (epoch_dir / MANIFEST_NAME).is_file():
            return CheckpointSession.resume(epoch_dir)
        if epoch_dir.exists():
            # A directory without a manifest died before its first
            # barrier; nothing in it is durable, so start clean.
            shutil.rmtree(epoch_dir)
        epoch_dir.mkdir(parents=True, exist_ok=True)
        return CheckpointSession.record(epoch_dir)

    def _charged_now(self) -> Dict[str, int]:
        return {name: int(meter.snapshot()["used"])
                for name, meter in self.services.meters().items()}

    def _cache_reuse(self, delta: SmishingDataset) -> int:
        """Delta subjects already answered by a prior epoch's entries."""
        if self.cache is None:
            return 0
        texts = {record.text for record in delta}
        urls = {str(record.url) for record in delta if record.url}
        return (
            sum(1 for text in texts
                if self.cache.peek("openai", text) is not None)
            + sum(1 for url in urls
                  if self.cache.peek("virustotal", url) is not None)
        )

    def _accumulate_checkpoint(self, stats: Dict[str, Any]) -> None:
        totals = self._checkpoint_totals
        if not totals:
            totals.update({"mode": stats["mode"], "stages_restored": [],
                           "barriers_written": 0, "lookups_replayed": 0,
                           "lookups_recorded": 0, "journal_writes": 0,
                           "journal_recovered": False})
        totals["mode"] = stats["mode"]
        totals["stages_restored"].extend(stats["stages_restored"])
        for key in ("barriers_written", "lookups_replayed",
                    "lookups_recorded", "journal_writes"):
            totals[key] += stats[key]
        totals["journal_recovered"] = (totals["journal_recovered"]
                                       or stats["journal_recovered"])

    # -- persistence ----------------------------------------------------------

    def _manifest(self) -> Dict[str, Any]:
        return {
            **identity_to_dict(self.world.config, self._survivable,
                               self.policy),
            "plan": [[w.start.isoformat(), w.end.isoformat()]
                     for w in self.scheduler.plan],
            "idle_seconds": self.scheduler.idle_seconds,
            "target_epochs": self.scheduler.target,
            "committed": self.state.committed_epochs,
            "next_record_index": self.state.next_record_index,
            "watermarks": self.watermarks.to_dict(),
            "ledger": self.ledger.to_dict(),
            "epoch_stats": [stats.to_dict()
                            for stats in self.state.epoch_stats],
            "cli": self._cli,
        }

    # -- reporting ------------------------------------------------------------

    @property
    def fault_profile(self) -> str:
        """The named chaos profile this session runs under."""
        if self._survivable is None or self._survivable.is_empty:
            return "none"
        return self._survivable.profile or "custom"

    def stats(self) -> Dict[str, Any]:
        return self.state.stats(
            target_epochs=self.scheduler.target,
            ledger_stats=self.ledger.stats(),
            watermark_stats=self.watermarks.stats(),
            cache_seeded=self._cache_seeded,
        )

    def _finalise_telemetry(self) -> None:
        self.telemetry.tracer.abandon_open()
        for breaker in self.breakers.values():
            self.telemetry.capture_breaker(breaker)
        if self.cache is not None:
            self.telemetry.capture_cache(self.cache)
        if self._checkpoint_totals:
            self.telemetry.capture_checkpoint(dict(self._checkpoint_totals))
        self.telemetry.capture_exec(self._engine.stats())
        self.telemetry.capture_stream(self.stats())

    def as_pipeline_run(self):
        """The merged state viewed as a batch-style run (for reports)."""
        return self.state.as_pipeline_run(self.world, self.config,
                                          self.telemetry)


def _stream_store(stream_dir) -> SnapshotStore:
    return SnapshotStore(stream_dir, STREAM_MANIFEST_NAME,
                         STREAM_FORMAT_VERSION)
