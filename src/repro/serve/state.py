"""The intake service's durable state: everything a resume needs.

One :class:`ServeState` accumulates the products of every processed
batch — the growing dataset, enrichment maps, structured gap/rejection
ledgers, per-request statuses, latency/queue-depth digests — plus the
progress cursor (``arrival_index``) a resume continues from. The commit
protocol in :mod:`repro.serve.service` pickles the object whole (with
the queue, ledger and sanitizer objects and the admission, controller
and registry state alongside) under a sha-bound manifest, exactly the
discipline :mod:`repro.stream` uses: a crash at any instant leaves
either the previous commit or the new one, never a torn mixture, and a
field added here survives a resume with no codec to edit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List

from ..core.enrichment import (
    EnrichmentGap,
    SenderEnrichment,
    UrlEnrichment,
)
from ..core.dataset import SmishingRecord
from ..nlp.annotator import Annotation
from ..obs.profile import PercentileDigest
from ..sms.message import AnnotationLabels
from .admission import AdmissionRejection


@dataclass
class ServeState:
    """Accumulated products + progress cursor of one intake service."""

    records: List[SmishingRecord] = field(default_factory=list)
    urls: Dict[str, UrlEnrichment] = field(default_factory=dict)
    senders: Dict[str, SenderEnrichment] = field(default_factory=dict)
    annotations: Dict[str, AnnotationLabels] = field(default_factory=dict)
    raw_annotations: Dict[str, Annotation] = field(default_factory=dict)
    gaps: List[EnrichmentGap] = field(default_factory=list)
    rejections: List[AdmissionRejection] = field(default_factory=list)
    #: request id -> "queued" | "done" | "rejected" | "timed_out"
    statuses: Dict[str, str] = field(default_factory=dict)
    #: duplicate record id -> canonical record id (dedup inheritance)
    duplicate_of: Dict[str, str] = field(default_factory=dict)

    #: Progress cursor: the highest arrival index fully handled. A
    #: resume continues from ``arrival_index + 1``.
    arrival_index: int = -1
    next_record_index: int = 0

    submitted: int = 0
    processed: int = 0
    timed_out: int = 0
    #: Accepted reports the sanitizer diverted at curation time.
    quarantined: int = 0
    batches: int = 0
    degraded_batches: int = 0
    commits: int = 0

    #: Queue depth sampled after every handled arrival.
    queue_depths: PercentileDigest = field(default_factory=PercentileDigest)
    #: Submit-to-processed simulated seconds, one sample per report.
    latencies: PercentileDigest = field(default_factory=PercentileDigest)

    # -- reporting ------------------------------------------------------------

    def rejection_rows(self) -> List[Dict[str, Any]]:
        return [asdict(rejection) for rejection in self.rejections]
