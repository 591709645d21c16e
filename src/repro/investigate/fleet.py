"""Fleet-scale investigation: every URL-bearing record, any worker count.

The fleet runs in two phases with the same split the execution engine
uses everywhere else:

1. **Pure probe phase** (parallelisable): every record's URL is navigated
   by an :class:`~repro.investigate.investigator.Investigator` holding
   only picklable, uncharged substrates. Shards go through the standard
   :mod:`repro.exec` pool (serial at one worker, processes above);
   results are re-merged into canonical record order, so the probe list
   is byte-identical for any ``--workers`` count.
2. **Serial charged phase**: evidence packages are assembled in record
   order, then each unique payload hash is submitted to VirusTotal —
   the fleet's only meter charges — in sorted-hash order, under a retry
   policy, a circuit breaker, and whatever ``--faults`` proxies the plan
   demands. A durable session commits after each scan so a killed fleet
   resumes at the cursor with zero duplicate charges; a
   ``CrashPoint("scan", N)`` in the plan kills the fleet before scan N.

The §6 case study is the degenerate fleet: the ``case-study`` playbook
over the §6 Twitter sample; :func:`run_case_study_playbook` reproduces
:func:`repro.core.active.run_case_study` byte-identically.
"""

from __future__ import annotations

import datetime as dt
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..checkpoint.state import (
    BREAKER_PREFIX,
    CLOCK_KEY,
    METER_PREFIX,
    PROXY_PREFIX,
    StateRegistry,
)
from ..core.active import CaseStudyReport
from ..core.dataset import SmishingDataset, SmishingRecord
from ..errors import ServiceError
from ..exec import WorkerPool, make_pool, shard
from ..faults import FaultPlan
from ..faults.proxy import FaultProxy, wrap_if_planned
from ..net.url import Url
from ..obs import NULL_TELEMETRY, PercentileDigest, Telemetry
from ..resilience import CircuitBreaker, RetryPolicy, call_with_policy
from ..services.euphony import EuphonyUnifier, FamilyVerdict
from ..services.webhost import ApkPayload
from ..types import Forum
from ..world.scenario import World
from .evidence import UNATTRIBUTED, EvidencePackage
from .investigator import FunnelProbe, Investigator, to_url_investigation
from .playbook import Playbook, get_playbook
from .session import InvestigationSession

#: Retry discipline for the charged scan phase (same shape the
#: enrichment engine uses; seeded so backoff jitter is reproducible).
DEFAULT_RETRY_POLICY = RetryPolicy(max_attempts=4, base_delay=0.5,
                                   multiplier=2.0, max_delay=60.0,
                                   jitter=0.1, seed=0)


@dataclass(frozen=True)
class FleetItem:
    """One URL-bearing record queued for investigation."""

    index: int
    record_id: str
    url: Url
    on: dt.date


@dataclass(frozen=True)
class ProbeShardTask:
    """Module-level picklable task: probe one shard of fleet items.

    Carries the investigator whole — it holds only plain-data substrates
    — so process-pool workers rebuild it from the pickle and compute the
    exact bytes a serial run would.
    """

    investigator: Investigator

    def __call__(self, items: List[FleetItem]) -> List[FunnelProbe]:
        return [
            self.investigator.probe(item.index, item.record_id,
                                    item.url, item.on)
            for item in items
        ]


def fleet_items(dataset: SmishingDataset,
                sample: Optional[int] = None) -> List[FleetItem]:
    """Every URL-bearing record with a usable investigation date.

    Order is the dataset's canonical record order; ``sample`` keeps the
    first N (the fleet analogue of the §6 sample size).
    """
    eligible: List[Tuple[str, Url, dt.date]] = []
    for record in dataset.records:
        if record.url is None:
            continue
        on = _investigation_date(record)
        if on is None:
            continue
        eligible.append((record.record_id, record.url, on))
    if sample is not None:
        eligible = eligible[:sample]
    return [
        FleetItem(index=index, record_id=record_id, url=url, on=on)
        for index, (record_id, url, on) in enumerate(eligible)
    ]


def _investigation_date(record: SmishingRecord) -> Optional[dt.date]:
    """When the (simulated) analyst opens the URL: at collection time,
    falling back to the reported timestamp's date."""
    if record.collected_at is not None:
        return record.collected_at.date()
    if record.timestamp is not None and record.timestamp.has_date:
        return record.timestamp.value.date()
    return None


@dataclass
class FleetReport:
    """Everything one investigation fleet produced."""

    playbook: str
    investigated: int
    outcomes: Dict[str, int]
    funnel_depths: Dict[int, int]
    payloads: Dict[str, ApkPayload]
    androzoo_hits: int
    verdicts: List[FamilyVerdict]
    scan_gaps: int
    packages: List[EvidencePackage] = field(default_factory=list)
    probes: List[FunnelProbe] = field(default_factory=list)
    step_latency: Dict[str, PercentileDigest] = field(default_factory=dict)
    #: The pool class the probe phase ran on, and its width.
    pool: str = "SerialPool"
    workers: int = 1

    def family_distribution(self) -> Dict[str, int]:
        counts: Counter = Counter()
        for verdict in self.verdicts:
            counts[verdict.family or "(unlabelled)"] += 1
        return dict(counts)

    def stats(self) -> Dict[str, Any]:
        """Snapshot for telemetry's Investigations table and history."""
        custody = sum(len(p.custody) for p in self.packages)
        return {
            "playbook": self.playbook,
            "investigated": self.investigated,
            "outcomes": {k: self.outcomes[k]
                         for k in sorted(self.outcomes)},
            "funnel_depths": {str(k): self.funnel_depths[k]
                              for k in sorted(self.funnel_depths)},
            "evidence_packages": len(self.packages),
            "custody_entries": custody,
            "payloads": len(self.payloads),
            "androzoo_hits": self.androzoo_hits,
            "scans_completed": len(self.verdicts),
            "scan_gaps": self.scan_gaps,
            "families": {k: v for k, v
                         in sorted(self.family_distribution().items())},
            "step_latency_ms": {
                op: {
                    "count": digest.count,
                    "p50": round(digest.quantile(0.5), 3),
                    "p99": round(digest.quantile(0.99), 3),
                }
                for op, digest in sorted(self.step_latency.items())
            },
            "pool": {"kind": self.pool, "workers": self.workers},
        }


class InvestigationFleet:
    """Run one playbook over a dataset's URL-bearing records."""

    def __init__(
        self,
        world: World,
        dataset: SmishingDataset,
        *,
        playbook: Playbook,
        sample: Optional[int] = None,
        workers: int = 1,
        fault_plan: Optional[FaultPlan] = None,
        telemetry: Optional[Telemetry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        unifier: Optional[EuphonyUnifier] = None,
    ):
        self.world = world
        self.dataset = dataset
        self.playbook = playbook
        self.sample = sample
        self.workers = max(1, int(workers))
        plan = fault_plan or FaultPlan()
        self._plan = plan.without_crash_points()
        #: The injected kill, and the scan index it fires before (-1,
        #: which no scan has, when there is none).
        self._crash = plan.crash_point("scan")
        self._kill_at = self._crash.at_call if self._crash else -1
        self.telemetry = telemetry or NULL_TELEMETRY
        self._retry = retry_policy or DEFAULT_RETRY_POLICY
        self._unifier = unifier or EuphonyUnifier()

    # -- phase 1: pure probes -------------------------------------------------

    def _investigator(self) -> Investigator:
        return Investigator(
            self.playbook,
            resolver=self.world.shortener_resolver,
            webhost=self.world.webhost,
            zones=self.world.dns.zones if self.world.dns else None,
        )

    def run_probes(self, items: List[FleetItem],
                   pool: WorkerPool) -> List[FunnelProbe]:
        """Navigate every item's funnel on ``pool`` (pure, uncharged)."""
        if not items:
            return []
        task = ProbeShardTask(self._investigator())
        with self.telemetry.tracer.span(
            "investigate.probe", sim_clock=self.world.clock,
            pool=type(pool).__name__, workers=pool.workers,
        ):
            chunks = pool.map(task, shard(items, pool.workers))
        probes = [probe for chunk in chunks for probe in chunk]
        # Round-robin sharding interleaves records across chunks;
        # re-sorting by the item index restores canonical order.
        probes.sort(key=lambda probe: probe.index)
        return probes

    # -- phase 2: serial charged effects --------------------------------------

    def run(
        self,
        *,
        session: Optional[InvestigationSession] = None,
    ) -> FleetReport:
        items = fleet_items(self.dataset, self.sample)
        with make_pool(self.workers) as pool:
            probes = self.run_probes(items, pool)
        clock = self.world.clock

        # Evidence assembly happens before any session restore, so the
        # probe-step custody timestamps a resumed run writes match the
        # uninterrupted run's (the clock has not jumped yet).
        packages, sha_owner, payloads = self._assemble(probes, clock.now)

        virustotal = wrap_if_planned(
            self.world.virustotal, self._plan,
            name="virustotal", clock=clock,
        )
        breaker = CircuitBreaker(
            "virustotal", clock,
            observer=self.telemetry.breaker_hook(),
        )
        registry = StateRegistry()
        registry.register(CLOCK_KEY, clock)
        registry.register(METER_PREFIX + "virustotal",
                          self.world.virustotal.meter)
        registry.register(BREAKER_PREFIX + "virustotal", breaker)
        if isinstance(virustotal, FaultProxy):
            registry.register(PROXY_PREFIX + "virustotal", virustotal)

        scan_results: List[Tuple[str, Optional[FamilyVerdict], float]] = []
        if session is not None and session.resuming:
            session.restore(registry)
            scan_results = list(session.scan_results)

        androzoo_hits = sum(
            1 for sha in payloads
            if self.world.androzoo.lookup(sha) is not None
        )

        shas = sorted(payloads)
        try:
            with self.telemetry.tracer.span(
                "investigate.scan", sim_clock=clock, payloads=len(shas),
            ):
                with self.telemetry.observe_meters(
                        [self.world.virustotal.meter]):
                    for index, sha in enumerate(shas):
                        if index < len(scan_results):
                            continue  # committed by the crashed run
                        if index == self._kill_at:
                            self._crash.check(self._plan, index, clock)
                        verdict = self._scan_one(virustotal, breaker, sha)
                        scan_results.append((sha, verdict, clock.now))
                        if session is not None:
                            session.maybe_commit(scan_results, registry)
            if session is not None:
                session.commit(scan_results, registry)
        finally:
            self.telemetry.capture_breaker(breaker)

        return self._finish(probes, packages, sha_owner, payloads,
                            androzoo_hits, scan_results, pool)

    def _scan_one(self, virustotal, breaker,
                  sha: str) -> Optional[FamilyVerdict]:
        try:
            report = call_with_policy(
                lambda: virustotal.scan_file(sha),
                policy=self._retry,
                clock=self.world.clock,
                service="virustotal",
                key=f"scan:{sha}",
                breaker=breaker,
            )
        except ServiceError:
            return None  # a scan gap, recorded in the evidence custody
        return self._unifier.unify(report)

    # -- evidence assembly ----------------------------------------------------

    def _campaign_for(self, probe: FunnelProbe) -> str:
        target = probe.resolved if probe.resolved else probe.original
        asset = self.world.webhost.asset(target.host)
        return asset.campaign_id if asset is not None else UNATTRIBUTED

    def _assemble(
        self, probes: List[FunnelProbe], sim_time: float,
    ) -> Tuple[Dict[str, EvidencePackage], Dict[str, str],
               Dict[str, ApkPayload]]:
        packages: Dict[str, EvidencePackage] = {}
        sha_owner: Dict[str, str] = {}
        payloads: Dict[str, ApkPayload] = {}
        for probe in probes:
            campaign = self._campaign_for(probe)
            package = packages.get(campaign)
            if package is None:
                package = EvidencePackage(campaign_id=campaign)
                packages[campaign] = package
            package.add_finding({
                "type": "investigation",
                "record_id": probe.record_id,
                "url": str(probe.original),
                "resolved": str(probe.resolved) if probe.resolved else None,
                "shortener": probe.shortener,
                "outcome": probe.outcome,
                "funnel_depth": probe.funnel_depth,
                "device_gate": probe.device_gate,
                "pages_visited": list(probe.pages_visited),
                "forms_submitted": list(probe.forms_submitted),
                "apk_sha256": probe.apk.sha256 if probe.apk else None,
            })
            for step in probe.steps:
                package.add_custody(
                    record_id=probe.record_id,
                    step=step.op,
                    detail=step.detail,
                    sim_time=sim_time,
                )
            if probe.apk is not None and probe.wants_scan:
                if probe.apk.sha256 not in payloads:
                    payloads[probe.apk.sha256] = probe.apk
                    sha_owner[probe.apk.sha256] = campaign
        return packages, sha_owner, payloads

    def _finish(
        self,
        probes: List[FunnelProbe],
        packages: Dict[str, EvidencePackage],
        sha_owner: Dict[str, str],
        payloads: Dict[str, ApkPayload],
        androzoo_hits: int,
        scan_results: List[Tuple[str, Optional[FamilyVerdict], float]],
        pool: WorkerPool,
    ) -> FleetReport:
        verdicts: List[FamilyVerdict] = []
        scan_gaps = 0
        for sha, verdict, sim_time in scan_results:
            campaign = sha_owner.get(sha, UNATTRIBUTED)
            package = packages.get(campaign)
            if package is None:  # pragma: no cover - defensive
                package = EvidencePackage(campaign_id=campaign)
                packages[campaign] = package
            if verdict is None:
                scan_gaps += 1
                package.add_finding({
                    "type": "scan_gap",
                    "sha256": sha,
                })
                package.add_custody(
                    record_id=sha[:12],
                    step="hash_and_scan",
                    detail=f"virustotal gave no answer for {sha[:12]}…",
                    sim_time=sim_time,
                    charged_service="",
                )
                continue
            verdicts.append(verdict)
            package.add_finding({
                "type": "scan",
                "sha256": sha,
                "family": verdict.family,
                "support": verdict.support,
                "total_labels": verdict.total_labels,
            })
            package.add_custody(
                record_id=sha[:12],
                step="hash_and_scan",
                detail=(f"virustotal verdict "
                        f"{verdict.family or '(unlabelled)'}"),
                sim_time=sim_time,
                charged_service="virustotal",
            )

        outcomes = Counter(probe.outcome for probe in probes)
        depths = Counter(probe.funnel_depth for probe in probes)
        latency: Dict[str, PercentileDigest] = {}
        for probe in probes:
            for step in probe.steps:
                latency.setdefault(step.op, PercentileDigest()).add(
                    step.latency_ms
                )

        report = FleetReport(
            playbook=self.playbook.name,
            investigated=len(probes),
            outcomes=dict(outcomes),
            funnel_depths=dict(depths),
            payloads=payloads,
            androzoo_hits=androzoo_hits,
            verdicts=verdicts,
            scan_gaps=scan_gaps,
            packages=list(packages.values()),
            probes=probes,
            step_latency=latency,
            pool=type(pool).__name__,
            workers=self.workers,
        )
        self.telemetry.capture_investigate(report.stats())
        return report


def run_fleet(
    world: World,
    dataset: SmishingDataset,
    *,
    playbook: str = "full-funnel",
    sample: Optional[int] = None,
    workers: int = 1,
    fault_plan: Optional[FaultPlan] = None,
    telemetry: Optional[Telemetry] = None,
    session: Optional[InvestigationSession] = None,
) -> FleetReport:
    """Convenience wrapper: build a fleet and run it end to end."""
    fleet = InvestigationFleet(
        world, dataset,
        playbook=get_playbook(playbook),
        sample=sample,
        workers=workers,
        fault_plan=fault_plan,
        telemetry=telemetry,
    )
    return fleet.run(session=session)


# ---------------------------------------------------------------------------
# §6 as a thin playbook preset.
# ---------------------------------------------------------------------------


def case_study_sample(dataset: SmishingDataset, *, sample_posts: int = 200,
                      seed: int = 6) -> List[SmishingRecord]:
    """The exact §6 sampling protocol (shared with ``ActiveCaseStudy``)."""
    rng = random.Random(seed)
    twitter_records = [
        record for record in dataset.by_forum(Forum.TWITTER)
        if record.collected_at is not None
    ]
    return (
        twitter_records if len(twitter_records) <= sample_posts
        else rng.sample(twitter_records, sample_posts)
    )


def run_case_study_playbook(
    world: World,
    dataset: SmishingDataset,
    *,
    sample_posts: int = 200,
    seed: int = 6,
) -> CaseStudyReport:
    """§6 reimplemented as the ``case-study`` playbook.

    Byte-identical to :func:`repro.core.active.run_case_study`: same
    sampling, same per-URL step order, same payload bookkeeping, same
    sorted-hash VirusTotal submissions, same Euphony unification.
    """
    playbook = get_playbook("case-study")
    investigator = Investigator(
        playbook,
        resolver=world.shortener_resolver,
        webhost=world.webhost,
        zones=world.dns.zones if world.dns else None,
    )
    sample = case_study_sample(dataset, sample_posts=sample_posts,
                               seed=seed)
    investigations = []
    payloads: Dict[str, ApkPayload] = {}
    dead_links = 0
    for index, record in enumerate(sample):
        if record.url is None:
            continue
        on = record.collected_at.date()
        probe = investigator.probe(index, record.record_id, record.url, on)
        investigation = to_url_investigation(probe)
        investigations.append(investigation)
        if investigation.shortener_dead:
            dead_links += 1
        if investigation.apk is not None:
            payloads[investigation.apk.sha256] = investigation.apk

    androzoo_hits = sum(
        1 for sha in payloads if world.androzoo.lookup(sha) is not None
    )
    unifier = EuphonyUnifier()
    verdicts: List[FamilyVerdict] = []
    for sha in sorted(payloads):
        report = world.virustotal.scan_file(sha)
        verdicts.append(unifier.unify(report))
    return CaseStudyReport(
        sampled_reports=len(sample),
        investigated_urls=len(investigations),
        dead_short_links=dead_links,
        apk_downloads=len(payloads),
        androzoo_hits=androzoo_hits,
        family_verdicts=verdicts,
        investigations=investigations,
    )
