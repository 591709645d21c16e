"""The growing product of a stream session: merged epochs + accounting.

A :class:`StreamState` is what N committed epochs add up to — the merged
collection, the merged curated dataset (duplicates included, pointing at
their canonical twins' annotations), the merged enrichment maps, and one
:class:`EpochStats` per committed epoch. A durable session commits the
object itself: ``state.pkl`` pickles it whole beside the watermarks and
the ledger, so a field added here survives a resume with no codec to
edit. It is also the thing the analysis surfaces consume:
:meth:`as_pipeline_run` wraps it in an ordinary
:class:`~repro.core.pipeline.PipelineRun` so every table, report, and
stats view works on a stream exactly as it does on a batch run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..core.collection import CollectionResult
from ..core.config import PipelineConfig
from ..core.curation import CurationStats
from ..core.dataset import SmishingDataset
from ..core.enrichment import EnrichedDataset
from ..core.pipeline import PipelineRun
from ..obs import NULL_TELEMETRY, Telemetry
from ..world.scenario import World


@dataclass
class EpochStats:
    """What one committed epoch contributed, and what it cost."""

    index: int
    window: str
    start: str
    end: str
    #: Raw collection volume (pages walked), before any filtering.
    posts_seen: int = 0
    collected: int = 0
    #: Reports surviving the watermark filter (first sightings).
    new_reports: int = 0
    seen_dropped: int = 0
    deferred: int = 0
    #: Curated records, including content duplicates.
    records: int = 0
    #: Reports the sanitizer diverted this epoch (hostile input).
    quarantined: int = 0
    #: Records dropped from the enrichment delta by the dedup ledger.
    deduped: int = 0
    delta_records: int = 0
    gaps: int = 0
    limitations: int = 0
    #: Delta-enrichment reuse: curation-stage subjects already answered
    #: by a prior epoch's cache entries.
    cache_reuse: int = 0
    ledger_hits: int = 0
    ledger_misses: int = 0
    #: Per-service charged calls this epoch (meter deltas).
    charged: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class StreamState:
    """Everything N committed epochs produced, merged."""

    collection: CollectionResult = field(default_factory=CollectionResult)
    dataset: SmishingDataset = field(default_factory=SmishingDataset)
    urls: Dict[str, Any] = field(default_factory=dict)
    senders: Dict[str, Any] = field(default_factory=dict)
    annotations: Dict[str, Any] = field(default_factory=dict)
    raw_annotations: Dict[str, Any] = field(default_factory=dict)
    gaps: List[Any] = field(default_factory=list)
    curation_stats: CurationStats = field(default_factory=CurationStats)
    #: Next free curation record index — epoch N+1's ``Curator`` starts
    #: numbering here so record ids stay unique across epochs.
    next_record_index: int = 0
    epoch_stats: List[EpochStats] = field(default_factory=list)

    @property
    def committed_epochs(self) -> int:
        return len(self.epoch_stats)

    def merge_epoch(
        self,
        *,
        stats: EpochStats,
        collection: CollectionResult,
        dataset: SmishingDataset,
        curation_stats: CurationStats,
        enriched: EnrichedDataset,
        annotations: Dict[str, Any],
        raw_annotations: Dict[str, Any],
        next_record_index: int,
    ) -> None:
        """Fold one completed epoch into the growing state.

        ``annotations``/``raw_annotations`` are the *full* epoch maps —
        delta records' fresh annotations plus duplicates' rebound copies
        — while ``enriched`` carries the delta's url/sender maps and
        gaps (already epoch-stamped by the runner). Every merge is
        additive: nothing committed by an earlier epoch is revisited.
        """
        self.collection.extend(collection)
        self.dataset.extend(dataset)
        self.urls.update(enriched.urls)
        self.senders.update(enriched.senders)
        self.annotations.update(annotations)
        self.raw_annotations.update(raw_annotations)
        self.gaps.extend(enriched.gaps)
        self.curation_stats.merge(curation_stats)
        self.next_record_index = next_record_index
        self.epoch_stats.append(stats)

    # -- analysis surfaces ----------------------------------------------------

    def as_enriched(self) -> EnrichedDataset:
        return EnrichedDataset(
            dataset=self.dataset,
            urls=dict(self.urls),
            senders=dict(self.senders),
            annotations=dict(self.annotations),
            raw_annotations=dict(self.raw_annotations),
            gaps=list(self.gaps),
        )

    def as_pipeline_run(self, world: World, config: PipelineConfig,
                        telemetry: Optional[Telemetry] = None) -> PipelineRun:
        """The merged state viewed as an ordinary pipeline run.

        This is the bridge to every batch-era surface: ``repro stats``
        tables, the paper report, dataset export — all take a
        :class:`PipelineRun` and none of them can tell (nor should they)
        that this one grew epoch by epoch.
        """
        return PipelineRun(
            world=world,
            config=config,
            collection=self.collection,
            curation_stats=self.curation_stats,
            dataset=self.dataset,
            enriched=self.as_enriched(),
            telemetry=telemetry if telemetry is not None else NULL_TELEMETRY,
        )

    def fingerprint(self) -> str:
        """SHA-256 of the merged, annotated dataset plus gap accounting.

        Stable across crash/resume of the same session (record ids and
        epoch stamps are deterministic), so two stream runs over the
        same plan can be compared by one hex line — which is exactly
        what the CI crash-drill does with ``repro watch`` output.
        """
        annotated = self.dataset.with_annotations(self.annotations)
        payload = {
            "rows": sorted(
                json.dumps(record.to_json_dict(), sort_keys=True,
                           default=str)
                for record in annotated
            ),
            "gaps": sorted(
                json.dumps(asdict(gap), sort_keys=True, default=str)
                for gap in self.gaps
            ),
            "limitations": sorted(
                json.dumps(asdict(lim), sort_keys=True, default=str)
                for lim in self.collection.limitations
            ),
        }
        rendered = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(rendered.encode("utf-8")).hexdigest()

    # -- telemetry ------------------------------------------------------------

    def stats(self, *, target_epochs: int, ledger_stats: Dict[str, Any],
              watermark_stats: Dict[str, Any],
              cache_seeded: int) -> Dict[str, Any]:
        """The dict :meth:`repro.obs.Telemetry.capture_stream` consumes."""
        return {
            "epochs_run": self.committed_epochs,
            "target_epochs": target_epochs,
            "records": len(self.dataset),
            "quarantined": self.curation_stats.quarantined,
            "epochs": [stats.to_dict() for stats in self.epoch_stats],
            "ledger": dict(ledger_stats),
            "watermarks": dict(watermark_stats),
            "cache_reuse": sum(s.cache_reuse for s in self.epoch_stats),
            "cache_seeded": cache_seeded,
        }
