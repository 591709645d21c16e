"""Scenario assembly: build a complete synthetic smishing world.

:func:`build_world` wires every substrate together: it draws campaigns,
generates ground-truth events, has the reporter population post them to
the five forums, and initialises every measurement service against the
world's ground truth. The result is a :class:`World` the pipeline
(:mod:`repro.core`) measures exactly as the paper measured the internet.
"""

from __future__ import annotations

import datetime as dt
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..forums.base import ForumService
from ..forums.pastebin import PastebinService
from ..forums.reddit import RedditService
from ..forums.smishingeu import SmishingEuService
from ..forums.smishtank import SmishtankService
from ..forums.twitter import TwitterService
from ..imaging.renderer import ScreenshotRenderer
from ..net.asn import AsRegistry
from ..net.dns import DnsZoneDatabase
from ..net.tld import TldRegistry, default_registry
from ..services.androzoo import AndroZooService
from ..services.base import SimClock
from ..services.crtsh import CrtShService
from ..services.gsb import GoogleSafeBrowsingService
from ..services.hlr import HlrLookupService
from ..services.passivedns import IpInfoService, PassiveDnsService
from ..services.shorteners import ShortenerResolver
from ..services.virustotal import VirusTotalService
from ..services.webhost import WebHostService
from ..services.whois import WhoisService
from ..sms.message import SmishingEvent
from ..types import Forum
from ..utils.rng import derive
from .adversarial import generate_hostile_posts
from .brands import BrandRegistry, default_brands
from .campaigns import Campaign, CampaignFactory
from .geography import CountryRegistry, default_countries
from .infrastructure import InfrastructureBuilder
from .mno import OperatorRegistry, default_operators
from .numbering import NumberFactory, NumberLedger
from .reporters import ReporterOutput, ReporterPopulation
from .templates import TemplateLibrary, default_templates


@dataclass
class ScenarioConfig:
    """Knobs controlling world size and timeline.

    The default scale produces a world a laptop builds in seconds; the
    benchmark harness scales it up. ``include_sbi_burst`` injects the 2021
    Indian flash campaign §5.1 singles out.
    """

    seed: int = 7726  # the UK scam-reporting shortcode, naturally
    n_campaigns: int = 120
    mean_campaign_volume: float = 28.0
    timeline_start: dt.date = dt.date(2017, 1, 1)
    timeline_end: dt.date = dt.date(2023, 9, 30)
    include_sbi_burst: bool = True
    sbi_burst_volume: int = 120
    apk_campaign_fraction: float = 0.06
    androzoo_corpus_size: int = 2_000
    #: Adversarial reporter profile (:mod:`repro.world.adversarial`):
    #: "none" (default), "noisy", or "poison".
    hostile: str = "none"

    def scaled(self, factor: float) -> "ScenarioConfig":
        """A copy scaled up/down for benchmarking."""
        return ScenarioConfig(
            seed=self.seed,
            n_campaigns=max(1, int(self.n_campaigns * factor)),
            mean_campaign_volume=self.mean_campaign_volume,
            timeline_start=self.timeline_start,
            timeline_end=self.timeline_end,
            include_sbi_burst=self.include_sbi_burst,
            sbi_burst_volume=max(10, int(self.sbi_burst_volume * factor)),
            apk_campaign_fraction=self.apk_campaign_fraction,
            androzoo_corpus_size=self.androzoo_corpus_size,
            hostile=self.hostile,
        )


@dataclass
class World:
    """A fully built synthetic smishing ecosystem."""

    config: ScenarioConfig
    clock: SimClock
    countries: CountryRegistry
    operators: OperatorRegistry
    brands: BrandRegistry
    templates: TemplateLibrary
    tlds: TldRegistry
    as_registry: AsRegistry
    ledger: NumberLedger
    infrastructure: InfrastructureBuilder
    campaigns: List[Campaign]
    events: List[SmishingEvent]
    reporter_output: ReporterOutput
    forums: Dict[Forum, ForumService]
    hlr: HlrLookupService
    whois: WhoisService
    crtsh: CrtShService
    passivedns: PassiveDnsService
    ipinfo: IpInfoService
    virustotal: VirusTotalService
    gsb: GoogleSafeBrowsingService
    shortener_resolver: ShortenerResolver
    webhost: WebHostService
    androzoo: AndroZooService
    dns: DnsZoneDatabase
    _events_by_id: Dict[str, SmishingEvent] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._events_by_id:
            self._events_by_id = {e.event_id: e for e in self.events}

    def event(self, event_id: str) -> Optional[SmishingEvent]:
        """Ground-truth lookup (evaluation only)."""
        return self._events_by_id.get(event_id)

    @property
    def twitter(self) -> TwitterService:
        return self.forums[Forum.TWITTER]  # type: ignore[return-value]

    @property
    def reddit(self) -> RedditService:
        return self.forums[Forum.REDDIT]  # type: ignore[return-value]

    @property
    def smishtank(self) -> SmishtankService:
        return self.forums[Forum.SMISHTANK]  # type: ignore[return-value]

    @property
    def smishing_eu(self) -> SmishingEuService:
        return self.forums[Forum.SMISHING_EU]  # type: ignore[return-value]

    @property
    def pastebin(self) -> PastebinService:
        return self.forums[Forum.PASTEBIN]  # type: ignore[return-value]


def build_world(config: Optional[ScenarioConfig] = None) -> World:
    """Assemble the full synthetic ecosystem from a config."""
    config = config or ScenarioConfig()
    clock = SimClock()
    countries = default_countries()
    operators = default_operators()
    brands = default_brands()
    templates = default_templates()
    tlds = default_registry()
    as_registry = AsRegistry()

    ledger = NumberLedger()
    number_factory = NumberFactory(
        derive(config.seed, "numbers"), countries=countries, ledger=ledger
    )
    infrastructure = InfrastructureBuilder(
        derive(config.seed, "infra"),
        as_registry=as_registry,
        tld_registry=tlds,
        apk_fraction=config.apk_campaign_fraction,
    )
    factory = CampaignFactory(
        derive(config.seed, "campaigns"),
        infrastructure=infrastructure,
        number_factory=number_factory,
        brands=brands,
        operators=operators,
        countries=countries,
        templates=templates,
        timeline=(config.timeline_start, config.timeline_end),
    )

    campaigns: List[Campaign] = []
    events: List[SmishingEvent] = []
    event_rng = derive(config.seed, "events")
    volume_rng = derive(config.seed, "volumes")
    # Guarantee coverage: the first few campaigns walk through every scam
    # type once, so small worlds still exhibit all eight categories.
    from ..types import ScamType

    forced_types = list(ScamType)
    for index in range(config.n_campaigns):
        volume = max(3, int(volume_rng.expovariate(1 / config.mean_campaign_volume)))
        forced = forced_types[index] if index < len(forced_types) else None
        if forced is not None:
            volume = max(volume, 15)
        campaign = factory.create_campaign(scam_type=forced, volume=volume)
        campaigns.append(campaign)
        events.extend(campaign.generate_events(event_rng))
    if config.include_sbi_burst:
        burst = factory.create_sbi_burst_campaign(volume=config.sbi_burst_volume)
        campaigns.append(burst)
        events.extend(burst.generate_events(event_rng))

    renderer = ScreenshotRenderer(derive(config.seed, "renderer"))
    population = ReporterPopulation(derive(config.seed, "reporters"), renderer)
    reporter_output = population.generate(events)
    # Hostile posts draw from their own RNG stream, after the clean
    # population is complete — the clean posts are byte-identical with
    # and without hostility (the differential harness's foundation).
    hostile_posts = generate_hostile_posts(
        config.seed, reporter_output.report_count, config.hostile
    )
    for post in hostile_posts:
        reporter_output.add(post)
    reporter_output.hostile_count = len(hostile_posts)

    forums: Dict[Forum, ForumService] = {
        Forum.TWITTER: TwitterService(),
        Forum.REDDIT: RedditService(),
        Forum.SMISHTANK: SmishtankService(),
        Forum.SMISHING_EU: SmishingEuService(),
        Forum.PASTEBIN: PastebinService(),
    }
    for forum, posts in reporter_output.posts_by_forum.items():
        forums[forum].add_posts(posts)

    webhost = WebHostService(infrastructure.assets)
    virustotal = VirusTotalService(
        clock=clock,
        apk_ground_truth=webhost.apk_ground_truth(),
        known_bad_hosts=[a.fqdn for a in infrastructure.assets if a.serves_apk],
    )
    world = World(
        config=config,
        clock=clock,
        countries=countries,
        operators=operators,
        brands=brands,
        templates=templates,
        tlds=tlds,
        as_registry=as_registry,
        ledger=ledger,
        infrastructure=infrastructure,
        campaigns=campaigns,
        events=events,
        reporter_output=reporter_output,
        forums=forums,
        hlr=HlrLookupService(ledger, clock=clock, countries=countries),
        whois=WhoisService(infrastructure.assets, clock=clock),
        crtsh=CrtShService(infrastructure.assets, clock=clock),
        passivedns=PassiveDnsService(infrastructure.assets, clock=clock),
        ipinfo=IpInfoService(as_registry, clock=clock),
        virustotal=virustotal,
        gsb=GoogleSafeBrowsingService(clock=clock),
        shortener_resolver=ShortenerResolver(
            [link for campaign in campaigns for link in campaign.links]
        ),
        webhost=webhost,
        androzoo=AndroZooService(config.androzoo_corpus_size),
        dns=DnsZoneDatabase.from_assets(infrastructure.assets),
    )
    return world
