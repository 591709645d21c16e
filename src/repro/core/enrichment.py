"""Enrichment: the measurement methods of §3.3 over a curated dataset.

Runs, in the paper's order: sender-ID classification + HLR lookups
(§3.3.1), URL trend analysis — shorteners, TLDs, registrars, TLS
certificates, passive DNS + ASNs (§3.3.3), antivirus detection (§3.3.4),
and GPT-4o-style text annotation (§3.3.6). Results land in an
:class:`EnrichedDataset` the analysis builders consume.

Every external-service call runs under a
:class:`~repro.resilience.RetryPolicy` and a per-service
:class:`~repro.resilience.CircuitBreaker`, and *degrades per field*
instead of crashing the run: a service failure that survives its retries
becomes a structured :class:`EnrichmentGap` on the result (mirroring
:class:`~repro.core.collection.CollectionLimitation` on the collection
side) while every other field of every other record keeps its data.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import asdict, dataclass, field
from typing import Container, Dict, List, Optional, Tuple

from ..errors import (
    CircuitOpen,
    DeadlineExceeded,
    NotFound,
    QuotaExhausted,
    RateLimitExceeded,
    ServiceError,
    ServiceUnavailable,
    ValidationError,
)
from ..exec.cache import EnrichmentCache
from ..exec.pool import WorkerPool, shard
from ..net.tld import default_registry
from ..obs import Telemetry
from ..net.url import Url
from ..resilience import CircuitBreaker, RetryPolicy, call_with_policy
from ..services.crtsh import CertSummary, CrtShService
from ..services.gsb import GoogleSafeBrowsingService, GsbApiResult
from ..services.hlr import HlrLookupService, HlrRecord
from ..services.passivedns import IpInfoService, IpInfoRecord, PassiveDnsService
from ..services.shorteners import (
    WHATSAPP_HOST,
    shortener_for_url,
)
from ..services.virustotal import UrlScanReport, VirusTotalService
from ..services.whois import WhoisRecord, WhoisService
from ..sms.message import AnnotationLabels
from ..nlp.annotator import Annotation
from ..nlp.openai_api import ANNOTATION_PROMPT, OpenAiEndpoint
from ..types import GsbStatus, SenderIdKind, TldClass
from .dataset import SmishingDataset, SmishingRecord


@dataclass
class UrlEnrichment:
    """Everything learned about one unique URL."""

    url: Url
    shortener: Optional[str] = None
    is_whatsapp: bool = False
    registered_domain: Optional[str] = None
    effective_tld: Optional[str] = None
    tld_class: Optional[TldClass] = None
    whois: Optional[WhoisRecord] = None
    certificates: Optional[CertSummary] = None
    pdns_addresses: Tuple = ()
    ip_info: List[IpInfoRecord] = field(default_factory=list)
    vt_report: Optional[UrlScanReport] = None
    gsb_api: Optional[GsbApiResult] = None
    gsb_transparency: GsbStatus = GsbStatus.NOT_QUERIED
    gsb_on_vt: Optional[bool] = None


@dataclass
class SenderEnrichment:
    """Everything learned about one unique sender ID."""

    normalized: str
    kind: SenderIdKind
    hlr: Optional[HlrRecord] = None


@dataclass(frozen=True)
class EnrichmentGap:
    """One enrichment field a service failure left empty.

    The enrichment analogue of
    :class:`~repro.core.collection.CollectionLimitation`: instead of
    crashing the run (and discarding every record already enriched), a
    service call that exhausts its retries files one of these. ``kind``
    classifies the terminal failure: ``unavailable`` / ``quota`` /
    ``rate_limit`` / ``circuit_open`` / ``error``.
    """

    service: str
    field: str  # which UrlEnrichment/SenderEnrichment field went unfilled
    subject: str  # the URL, sender, or record id that missed out
    kind: str
    detail: str
    attempts: int = 1
    simulated_at: float = 0.0
    #: Which ingestion epoch filed this gap. ``None`` for batch runs;
    #: :mod:`repro.stream` stamps the epoch index before merging so
    #: cross-epoch merges stay additive and attributable.
    epoch: Optional[int] = None


def _gap_kind(exc: ServiceError) -> str:
    if isinstance(exc, CircuitOpen):
        return "circuit_open"
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    if isinstance(exc, QuotaExhausted):
        return "quota"
    if isinstance(exc, RateLimitExceeded):
        return "rate_limit"
    if isinstance(exc, ServiceUnavailable):
        return "unavailable"
    return "error"


@dataclass
class EnrichedDataset:
    """The curated dataset plus all measurement results."""

    dataset: SmishingDataset
    urls: Dict[str, UrlEnrichment] = field(default_factory=dict)
    senders: Dict[str, SenderEnrichment] = field(default_factory=dict)
    annotations: Dict[str, AnnotationLabels] = field(default_factory=dict)
    raw_annotations: Dict[str, Annotation] = field(default_factory=dict)
    #: Structured record of every field a service failure left empty.
    gaps: List[EnrichmentGap] = field(default_factory=list)

    def url_enrichment_for(self, record: SmishingRecord) -> Optional[UrlEnrichment]:
        if record.url is None:
            return None
        return self.urls.get(str(record.url))

    def sender_enrichment_for(
        self, record: SmishingRecord
    ) -> Optional[SenderEnrichment]:
        if record.sender is None:
            return None
        return self.senders.get(record.sender.normalized)

    def labels_for(self, record: SmishingRecord) -> Optional[AnnotationLabels]:
        return self.annotations.get(record.record_id)

    def annotated_dataset(self) -> SmishingDataset:
        """The dataset with annotation labels attached to records."""
        return self.dataset.with_annotations(self.annotations)

    def gaps_by_service(self) -> Dict[str, List[EnrichmentGap]]:
        grouped: Dict[str, List[EnrichmentGap]] = {}
        for gap in self.gaps:
            grouped.setdefault(gap.service, []).append(gap)
        return grouped


@dataclass
class EnrichmentServices:
    """The external services an enrichment run needs."""

    hlr: HlrLookupService
    whois: WhoisService
    crtsh: CrtShService
    passivedns: PassiveDnsService
    ipinfo: IpInfoService
    virustotal: VirusTotalService
    gsb: GoogleSafeBrowsingService
    openai: OpenAiEndpoint

    def meters(self) -> Dict[str, object]:
        """Every service's meter, keyed by its wire-level service name."""
        members = (self.hlr, self.whois, self.crtsh, self.passivedns,
                   self.ipinfo, self.virustotal, self.gsb, self.openai)
        return {m.meter.service: m.meter for m in members}


class AnnotateShardTask:
    """Picklable precompute task: annotate one shard of unique texts.

    Carries only the :class:`~repro.nlp.annotator.MessageAnnotator`
    (pure registries + compiled regexes — no meters, no locks) across
    the process boundary and ships back ``(text, annotation)`` pairs in
    shard order; the parent merges them into the cache canonically.
    """

    def __init__(self, annotator) -> None:
        self._annotator = annotator

    def __call__(self, chunk) -> List[Tuple[str, Annotation]]:
        return [(text, self._annotator.annotate("", text))
                for text in chunk]


class ScanShardTask:
    """Picklable precompute task: VT-scan one shard of unique URLs.

    Carries the known-bad-host set (the only instance state the pure
    scan reads) instead of the service itself — the service's meter
    holds telemetry hooks and the shared clock, which must never cross
    a process boundary.
    """

    def __init__(self, known_bad_hosts: frozenset) -> None:
        self._known_bad_hosts = known_bad_hosts

    def __call__(self, chunk) -> List[Tuple[str, UrlScanReport]]:
        from ..services.virustotal import scan_url_uncharged
        return [(url, scan_url_uncharged(url, self._known_bad_hosts))
                for url in chunk]


class Enricher:
    """Runs the full §3.3 measurement battery with per-field degradation.

    Built per enrichment step by :class:`~repro.core.pipeline.Stages`,
    which owns the breakers (created here lazily, per service), the memo
    cache (None: uncached) and the pool the precompute fans out on.
    """

    def __init__(self, services: EnrichmentServices, telemetry: Telemetry,
                 *, retry_policy: RetryPolicy,
                 breakers: Dict[str, CircuitBreaker],
                 cache: Optional[EnrichmentCache], pool: WorkerPool,
                 journal=None, known_senders: Container[str] = (),
                 known_urls: Container[str] = (),
                 deadline: Optional[float] = None):
        self._services = services
        self._telemetry = telemetry
        self._tlds = default_registry()
        self._policy = retry_policy
        # Retries and breakers advance/read the shared simulated clock —
        # the same one every service meter charges against.
        self._clock = services.hlr.meter.clock
        self.breakers = breakers
        self._cache = cache
        self._pool = pool
        # Optional checkpoint journal (see repro.checkpoint.session):
        # duck-typed replay_lookup/record_lookup. None (every
        # un-checkpointed run) keeps _guarded's hot path intact.
        self._journal = journal
        # Subjects already fully enriched by earlier stream epochs or
        # serve batches: never looked up again (the caller merges their
        # prior enrichment into its growing state), so never re-charged.
        self._known_senders = known_senders
        self._known_urls = known_urls
        # Optional absolute sim-time deadline propagated into every
        # guarded call (see repro.resilience.call_with_policy): the
        # serve layer sets it from the oldest queued request's budget so
        # a backlogged batch cannot retry past its callers' patience.
        self.deadline = deadline

    # -- resilience plumbing --------------------------------------------------

    def _breaker(self, service: str) -> CircuitBreaker:
        breaker = self.breakers.get(service)
        if breaker is None:
            breaker = CircuitBreaker(
                service, self._clock,
                observer=self._telemetry.breaker_hook(),
            )
            self.breakers[service] = breaker
        return breaker

    def _on_retry(self, service: str, attempt: int, delay: float,
                  exc: ServiceError) -> None:
        metrics = self._telemetry.metrics
        metrics.counter("resilience.retries", service=service).inc()
        metrics.counter("resilience.backoff_seconds",
                        service=service).inc(delay)

    def _guarded(self, sink: EnrichedDataset, service: str, field_name: str,
                 subject: str, fn, default=None):
        """Run one service call under policy + breaker; failure ⇒ gap.

        Returns the call's result, or ``default`` after filing an
        :class:`EnrichmentGap` when the call's retries are exhausted (or
        its breaker is open). The rest of the record keeps enriching.

        Under a checkpoint journal, every guarded call is one replay
        unit: a journaled outcome (value or gap) is returned without
        touching the service — the effects the original call had on
        meters/clock/breakers were already restored wholesale — and a
        live outcome is journaled with its state delta before returning.
        """
        journal = self._journal
        if journal is not None:
            replayed = journal.replay_lookup(service, field_name, subject)
            if replayed is not None:
                if replayed.outcome == "gap":
                    gap = EnrichmentGap(**replayed.gap)
                    sink.gaps.append(gap)
                    self._telemetry.metrics.counter(
                        "enrichment.gaps", service=service, kind=gap.kind
                    ).inc()
                    return default
                return replayed.value
        try:
            result = call_with_policy(
                fn,
                policy=self._policy,
                clock=self._clock,
                service=service,
                key=f"{service}:{subject}",
                breaker=self._breaker(service),
                on_retry=self._on_retry,
                deadline=self.deadline,
            )
        except ServiceError as exc:
            kind = _gap_kind(exc)
            gap = EnrichmentGap(
                service=service,
                field=field_name,
                subject=subject,
                kind=kind,
                detail=str(exc),
                attempts=getattr(exc, "resilience_attempts", 1),
                simulated_at=self._clock.now,
            )
            sink.gaps.append(gap)
            self._telemetry.metrics.counter(
                "enrichment.gaps", service=service, kind=kind
            ).inc()
            if journal is not None:
                journal.record_lookup(service, field_name, subject,
                                      gap=asdict(gap))
            return default
        if journal is not None:
            journal.record_lookup(service, field_name, subject, value=result)
        return result

    # -- precompute (the engine's pure, parallel phase) -----------------------

    def _cached_value(self, service: str, subject: str):
        """A memoised value for one lookup, or None (miss / non-value)."""
        if self._cache is None:
            return None
        entry = self._cache.get(service, subject)
        if entry is not None and entry.is_value:
            return entry.value
        return None

    def _precompute(self, dataset: SmishingDataset) -> None:
        """Fill the cache with every expensive pure compute, sharded
        per-unique-subject over the worker pool.

        Only side-effect-free paths run here: the annotator directly
        (reached via ``_annotator``, below the fault proxy and the
        meter) and VirusTotal's uncharged scan. No meter is charged, no
        fault rule consulted, no clock advanced — so any worker
        schedule fills the cache with identical values, and the serial
        effects replay that follows is byte-identical to an uncached
        run. Annotations are keyed by message *text* (they are pure in
        it); the replay rebinds each record's id.

        One path serves both pools. Per service, :meth:`peek` (which
        counts nothing) finds the unique subjects the cache lacks; only
        those ship, as picklable tasks (:class:`AnnotateShardTask`,
        :class:`ScanShardTask`) carrying pure inputs and returning
        ``(subject, value)`` pairs; then every unique subject is looked
        up in canonical order — one hit, or one miss and one store —
        the counter trajectory of a serial fill, with no subject
        computed twice.
        """
        if self._cache is None:
            return
        cache, services, pool = self._cache, self._services, self._pool
        texts = list(dict.fromkeys(r.text for r in dataset))
        urls = list(dict.fromkeys(
            str(r.url) for r in dataset if r.url is not None
        ))
        with self._telemetry.tracer.span(
            "enrich/precompute", unique_texts=len(texts),
            unique_urls=len(urls), workers=pool.workers,
        ):
            for service, subjects, task in (
                    ("openai", texts,
                     AnnotateShardTask(services.openai._annotator)),
                    ("virustotal", urls,
                     ScanShardTask(services.virustotal._known_bad_hosts))):
                missing = [subject for subject in subjects
                           if cache.peek(service, subject) is None]
                computed: Dict[str, object] = {}
                if missing:
                    # One chunk per worker, not one future per subject:
                    # the tasks are sub-millisecond and executor
                    # overhead would otherwise eat the dedup savings.
                    for chunk in pool.map(task, shard(missing,
                                                      pool.workers)):
                        computed.update(chunk)
                for subject in subjects:
                    cache.lookup(service, subject,
                                 lambda s=subject: computed[s])

    # -- senders (§3.3.1) -----------------------------------------------------

    def enrich_senders(self, result: EnrichedDataset) -> None:
        unique: Dict[str, SenderEnrichment] = {}
        for record in result.dataset:
            if record.sender is None:
                continue
            key = record.sender.normalized
            if key in unique or key in self._known_senders:
                continue
            enrichment = SenderEnrichment(normalized=key,
                                          kind=record.sender.kind)
            if record.sender.kind is SenderIdKind.PHONE_NUMBER:
                digits = record.sender.digits
                enrichment.hlr = self._guarded(
                    result, "hlr", "hlr", key,
                    lambda: self._services.hlr.lookup(digits),
                )
            unique[key] = enrichment
        result.senders = unique

    # -- URLs (§3.3.3 + §3.3.4) --------------------------------------------------

    def enrich_urls(self, result: EnrichedDataset) -> None:
        unique: Dict[str, UrlEnrichment] = {}
        for record in result.dataset:
            if record.url is None:
                continue
            key = str(record.url)
            if key in unique or key in self._known_urls:
                continue
            unique[key] = self._enrich_one_url(record.url, result)
        result.urls = unique

    def _enrich_one_url(self, url: Url, sink: EnrichedDataset) -> UrlEnrichment:
        services = self._services
        subject = str(url)
        enrichment = UrlEnrichment(url=url)
        enrichment.shortener = shortener_for_url(url)
        enrichment.is_whatsapp = url.host == WHATSAPP_HOST
        try:
            domain, tld = self._tlds.split_host(url.host)
            enrichment.registered_domain = domain
            enrichment.effective_tld = tld
            base_tld = tld.rsplit(".", 1)[-1]
            enrichment.tld_class = self._tlds.classify(base_tld)
        except ValidationError:
            pass
        # The paper skips WHOIS / TLS / pDNS for shortener hosts: the
        # shortener's own infrastructure is not the scammer's.
        if enrichment.shortener is None and not enrichment.is_whatsapp:
            whois_name = enrichment.registered_domain or url.host

            def _whois() -> Optional[WhoisRecord]:
                # "No record" is an answer, not a failure.
                try:
                    return services.whois.query(whois_name)
                except NotFound:
                    return None

            enrichment.whois = self._guarded(
                sink, "whois", "whois", subject, _whois)
            enrichment.certificates = self._guarded(
                sink, "crtsh", "certificates", subject,
                lambda: services.crtsh.summary_for(url.host))
            answer = self._guarded(
                sink, services.passivedns.meter.service, "pdns_addresses",
                subject, lambda: services.passivedns.query(url.host))
            if answer is not None:
                enrichment.pdns_addresses = answer.addresses
                if answer.resolved:
                    enrichment.ip_info = self._guarded(
                        sink, "ipinfo", "ip_info", subject,
                        lambda: services.ipinfo.lookup_batch(answer.addresses),
                        default=[])
        vt_memo = self._cached_value("virustotal", subject)
        enrichment.vt_report = self._guarded(
            sink, "virustotal", "vt_report", subject,
            lambda: services.virustotal.scan_url(subject,
                                                 precomputed=vt_memo))
        enrichment.gsb_api = self._guarded(
            sink, "gsb", "gsb_api", subject,
            lambda: services.gsb.query_api(subject))
        enrichment.gsb_on_vt = self._guarded(
            sink, "gsb", "gsb_on_vt", subject,
            lambda: services.gsb.verdict_on_virustotal(subject))
        # The transparency report blocks ~half of automated queries
        # (deterministically per URL). The block is permanent and
        # non-retryable, so it files a gap and leaves NOT_QUERIED —
        # never a silent swallow, never a wasted retry.
        status = self._guarded(
            sink, "gsb-transparency", "gsb_transparency", subject,
            lambda: services.gsb.query_transparency(subject))
        if status is not None:
            enrichment.gsb_transparency = status
        return enrichment

    # -- annotations (§3.3.6) ----------------------------------------------------------

    def annotate(self, result: EnrichedDataset) -> None:
        annotations: Dict[str, AnnotationLabels] = {}
        raw: Dict[str, Annotation] = {}
        for record in result.dataset:
            payload = {"id": record.record_id, "message": record.text}
            memo = self._cached_value("openai", record.text)
            response = self._guarded(
                result, "openai", "annotation", record.record_id,
                lambda: self._services.openai.annotate_message(
                    ANNOTATION_PROMPT, payload, precomputed=memo),
            )
            if response is None:
                continue
            annotation = Annotation.from_json(response.content)
            annotations[record.record_id] = annotation.labels
            raw[record.record_id] = annotation
        result.annotations = annotations
        result.raw_annotations = raw

    # -- the full battery ---------------------------------------------------------------

    def _metered_stage(self, name: str, meters, stage, result) -> None:
        """Run one stage under a span, with one ``enrich/<service>`` child
        span per meter carrying the request/retry/backoff delta the stage
        caused (the services themselves stay telemetry-unaware)."""
        tracer = self._telemetry.tracer
        metrics = self._telemetry.metrics
        with tracer.span(name):
            accounting = []
            for meter in meters:
                span = tracer.start(f"enrich/{meter.service}")
                accounting.append((span, meter, meter.snapshot()))
            try:
                stage(result)
            finally:
                # Close the accounting spans even when the stage dies
                # (a SimulatedCrash mid-enrichment): a crashed run's
                # trace still attributes whatever the stage charged
                # before it went down, and no span is left open on the
                # tracer stack to corrupt later nesting.
                for span, meter, before in reversed(accounting):
                    after = meter.snapshot()
                    requests = after["used"] - before["used"]
                    retries = (after["throttle_events"]
                               - before["throttle_events"])
                    backoff = (after.get("backoff_seconds", 0.0)
                               - before.get("backoff_seconds", 0.0))
                    span.set(requests=requests, retries=retries,
                             backoff_seconds=round(backoff, 3))
                    tracer.end(span)
                    metrics.counter("enrichment.requests",
                                    service=meter.service).inc(requests)
                    metrics.counter("enrichment.retries",
                                    service=meter.service).inc(retries)
                    metrics.counter("enrichment.backoff_seconds",
                                    service=meter.service).inc(backoff)

    def run(self, dataset: SmishingDataset, *,
            annotate_only: bool = False) -> EnrichedDataset:
        """Run the measurement battery over ``dataset``.

        ``annotate_only`` is the degraded-mode contract the serve layer
        relies on when the enrichment tier is under pressure (open
        breakers, near-exhausted quotas): skip the expensive per-sender
        and per-URL lookups entirely and keep only the cheap,
        cache-friendly annotation pass, so accepted reports still gain
        labels without burning a failing tier's budget.
        """
        result = EnrichedDataset(dataset=dataset)
        services = self._services
        with self._telemetry.tracer.span("enrich", records=len(dataset)) as sp:
            self._precompute(dataset)
            if not annotate_only:
                self._metered_stage(
                    "enrich/senders", [services.hlr.meter],
                    self.enrich_senders, result,
                )
                self._metered_stage(
                    "enrich/urls",
                    [services.whois.meter, services.crtsh.meter,
                     services.passivedns.meter, services.ipinfo.meter,
                     services.virustotal.meter, services.gsb.meter],
                    self.enrich_urls, result,
                )
            self._metered_stage(
                "enrich/annotate", [services.openai.meter],
                self.annotate, result,
            )
            sp.set(unique_urls=len(result.urls),
                   unique_senders=len(result.senders),
                   annotations=len(result.annotations),
                   gaps=len(result.gaps))
        return result
