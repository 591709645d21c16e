"""The stream session: multi-epoch ingestion over one simulated world.

A :class:`StreamSession` turns the batch pipeline into a resumable
incremental ingester. One session owns one world and one
:class:`~repro.core.pipeline.Stages` (one enrichment-service battery,
memo cache, breaker set, pool and telemetry sink); each *epoch* then
calls its collect → curate → enrich steps over a clamped slice of the
collection timeline and folds their products into the growing
:class:`~repro.stream.state.StreamState`:

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

import datetime as dt
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from ..checkpoint import MANIFEST_NAME, CheckpointSession
from ..checkpoint.identity import identity_from_dict, identity_to_dict
from ..checkpoint.session import NULL_CHECKPOINT
from ..core.config import PipelineConfig
from ..core.quarantine import stamp_epoch
from ..core.dataset import SmishingDataset
from ..core.pipeline import Stages
from ..errors import ConfigurationError
from ..exec import ExecutionPolicy
from ..faults import FaultPlan
from ..obs import Telemetry
from ..world.scenario import ScenarioConfig, World, build_world
from .epochs import EpochScheduler, EpochWindow, clamp_windows, plan_epochs
from .ledger import DedupLedger, inherit_annotations
from .persist import STATE_NAME, SnapshotStore
from .state import EpochStats, StreamState
from .watermarks import WatermarkStore

#: The stream directory's manifest file name.
STREAM_MANIFEST_NAME = "STREAM.json"
STREAM_STATE_NAME = STATE_NAME
#: Version 4: ``state.pkl`` pickles the state, watermarks and ledger
#: objects whole, beside the cache's (service, subject, value) triples
#: and the registry state; the manifest keeps only the run identity, the
#: epoch plan and the epoch counts. Older versions are refused.
STREAM_FORMAT_VERSION = 4


class StreamSession:
    """One continuous-ingestion run: a world plus its growing state."""

    def __init__(self, world: World, *, scheduler: EpochScheduler,
                 config: Optional[PipelineConfig] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 execution: Optional[ExecutionPolicy] = None,
                 telemetry: Optional[Telemetry] = None,
                 store: Optional[SnapshotStore] = None):
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
        #: Session-wide resources: one service battery (one OpenAI
        #: endpoint, so annotation memoisation spans epochs), one cache,
        #: one breaker set, one pool. Fault proxies are rebuilt per epoch.
        self.stages = Stages(world, self.config, self.policy, telemetry)
        self.telemetry = self.stages.telemetry
        self.services = self.stages.services
        self._store = store

        #: The committed clock/meter/breaker state. It registers no
        #: fault proxy: proxies are rebuilt for every epoch, so their
        #: call counters are epoch state (journaled per epoch), not
        #: session state.
        self._registry = self.stages.registry(self.services, world.forums)

        self.state = StreamState()
        self.watermarks = WatermarkStore()
        self.ledger = DedupLedger()
        self._cache_seeded = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, scenario: Optional[ScenarioConfig] = None, *,
               epochs: Optional[int] = None,
               epoch_hours: Optional[float] = None,
               config: Optional[PipelineConfig] = None,
               fault_plan: Optional[FaultPlan] = None,
               execution: Optional[ExecutionPolicy] = None,
               telemetry_factory: Optional[Callable[[World], Telemetry]] = None,
               stream_dir: Optional[Path] = None) -> "StreamSession":
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
        scheduler = EpochScheduler(plan, target=target)
        telemetry = (telemetry_factory(world) if telemetry_factory is not None
                     else None)
        store = _stream_store(stream_dir) if stream_dir is not None else None
        session = cls(world, scheduler=scheduler, config=base,
                      fault_plan=fault_plan, execution=execution,
                      telemetry=telemetry, store=store)
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
        scheduler = EpochScheduler(plan, target=int(manifest["target_epochs"]))
        telemetry = (telemetry_factory(world) if telemetry_factory is not None
                     else None)
        session = cls(world, scheduler=scheduler,
                      fault_plan=fault_plan, execution=execution,
                      telemetry=telemetry, store=store)
        if payload is not None:
            session.state = payload["state"]
            session.watermarks = payload["watermarks"]
            session.ledger = payload["ledger"]
            cache = session.stages.cache
            if cache is not None:
                session._cache_seeded = cache.seed(payload["cache_entries"])
            session._registry.restore(payload["registry_state"])
        return session

    # -- the epoch loop -------------------------------------------------------

    def run(self) -> StreamState:
        """Run every pending epoch up to the scheduler's target."""
        try:
            with self.stages.running():
                for epoch in self.scheduler.pending(
                        self.state.committed_epochs):
                    self._run_epoch(epoch)
        finally:
            self.telemetry.capture_stream(self.stats())
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
        stages = self.stages
        config = self._epoch_config(epoch)
        plan = self._plan_for_epoch(epoch)
        services, forums = stages.wrap(plan)
        checkpoint = self._open_epoch_checkpoint(epoch)
        charged_before = self._charged_now()
        try:
            if checkpoint.active:
                checkpoint.bind(registry=stages.registry(services, forums),
                                scenario=self.world.config, config=config,
                                fault_plan=plan, policy=self.policy)
                # The epoch-start barrier pins the pre-epoch cumulative
                # state (clock, meters, breakers); resuming this epoch
                # restores it before replaying anything.
                if checkpoint.restore_stage("epoch-start") is None:
                    checkpoint.stage_barrier("epoch-start",
                                             {"epoch": epoch.index})
            with self.telemetry.tracer.span(
                "stream/epoch", epoch=epoch.index, window=epoch.label,
            ) as span:
                collection, _ = stages.collect(forums, config, checkpoint)
                filtered = self.watermarks.filter_epoch(collection, epoch)
                curated = checkpoint.restore_stage("curation")
                if curated is None:
                    curated = stages.curate(
                        filtered.result.reports,
                        record_id_start=self.state.next_record_index)
                    checkpoint.stage_barrier("curation", curated)
                dataset, curation_stats, next_index = curated
                division = self.ledger.divide(dataset)
                delta = SmishingDataset(division.delta)
                cache_reuse = self._cache_reuse(delta)
                checkpoint.begin_enrichment()
                enriched = stages.enrich(
                    delta, services,
                    journal=checkpoint.enrichment_journal(),
                    known_senders=self.state.senders,
                    known_urls=self.state.urls)
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
            stages.close_checkpoint(checkpoint)

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
        annotations, raw = inherit_annotations(
            division, enriched, self.state.raw_annotations)
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
            cache = self.stages.cache
            self._store.commit({
                "state": self.state,
                "watermarks": self.watermarks,
                "ledger": self.ledger,
                "cache_entries": (cache.export_entries()
                                  if cache is not None else ()),
                "registry_state": self._registry.capture(),
            }, self._manifest())

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
        cache = self.stages.cache
        if cache is None:
            return 0
        texts = {record.text for record in delta}
        urls = {str(record.url) for record in delta if record.url}
        return (
            sum(1 for text in texts
                if cache.peek("openai", text) is not None)
            + sum(1 for url in urls
                  if cache.peek("virustotal", url) is not None)
        )

    # -- persistence ----------------------------------------------------------

    def _manifest(self) -> Dict[str, Any]:
        return {
            **identity_to_dict(self.world.config, self._survivable,
                               self.policy),
            "plan": [[w.start.isoformat(), w.end.isoformat()]
                     for w in self.scheduler.plan],
            "target_epochs": self.scheduler.target,
            "committed": self.state.committed_epochs,
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

    def as_pipeline_run(self):
        """The merged state viewed as a batch-style run (for reports)."""
        return self.state.as_pipeline_run(self.world, self.config,
                                          self.telemetry)


def _stream_store(stream_dir) -> SnapshotStore:
    return SnapshotStore(stream_dir, STREAM_MANIFEST_NAME,
                         STREAM_FORMAT_VERSION)
