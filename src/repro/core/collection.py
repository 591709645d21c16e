"""Report collection from the five forums (§3.1).

Each collector speaks its forum's API dialect — keyword search with
pagination on Twitter/Reddit, weekly scrapes on Smishing.eu, per-user
paste listing on Pastebin, bulk report listing on Smishtank — and emits
uniform :class:`RawReport` records for curation.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import QuotaExhausted, ServiceError, ServiceUnavailable
from ..forums.base import Post
from ..forums.pastebin import ANALYST_USER, PastebinService
from ..forums.reddit import RedditService
from ..forums.smishingeu import SmishingEuService
from ..forums.smishtank import SmishtankService
from ..forums.twitter import ACADEMIC_API_SHUTDOWN, TwitterService
from ..imaging.screenshot import Screenshot
from ..obs import Telemetry, ensure_telemetry
from ..types import Forum
from .config import PipelineConfig


@dataclass
class RawReport:
    """One collected forum item, pre-curation."""

    forum: Forum
    post_id: str
    author: str
    posted_at: dt.datetime
    body: str
    screenshots: List[Screenshot] = field(default_factory=list)
    structured: Optional[Dict[str, str]] = None
    matched_keyword: Optional[str] = None
    via_reply: bool = False
    truth_event_id: Optional[str] = None

    @property
    def has_image(self) -> bool:
        return bool(self.screenshots)


@dataclass(frozen=True)
class CollectionLimitation:
    """One structured coverage loss: a cap, quota, or outage hit mid-run.

    The paper treats collection-coverage accounting (caps hit, posts
    forgone, API shutdowns) as a research result in itself, so each
    swallowed ``QuotaExhausted``/``ServiceUnavailable`` becomes one of
    these instead of only a log string. ``posts_forgone`` is the
    remaining-post estimate at the moment the limit hit (posts the forum
    held that this run had not yet seen) — an upper bound, since later
    keywords could have re-found already-seen posts.
    """

    forum: Forum
    service: str
    kind: str  # "quota" | "unavailable"
    detail: str
    simulated_at: Optional[dt.datetime] = None
    posts_forgone: int = 0
    #: Which ingestion epoch filed this entry. ``None`` for batch runs;
    #: :mod:`repro.stream` stamps the epoch index before merging so
    #: cross-epoch merges stay additive and attributable.
    epoch: Optional[int] = None


@dataclass
class CollectionResult:
    """Everything a collection run produced, with bookkeeping."""

    reports: List[RawReport] = field(default_factory=list)
    posts_seen: int = 0
    api_errors: List[str] = field(default_factory=list)
    limitations: List[CollectionLimitation] = field(default_factory=list)

    def extend(self, other: "CollectionResult") -> None:
        self.reports.extend(other.reports)
        self.posts_seen += other.posts_seen
        self.api_errors.extend(other.api_errors)
        self.limitations.extend(other.limitations)

    def record_limitation(
        self,
        forum: Forum,
        exc: ServiceError,
        *,
        simulated_at: Optional[dt.datetime] = None,
        posts_forgone: int = 0,
    ) -> None:
        """File one limitation both as a string (legacy) and structured."""
        self.api_errors.append(str(exc))
        self.limitations.append(CollectionLimitation(
            forum=forum,
            service=exc.service or forum.value,
            kind="quota" if isinstance(exc, QuotaExhausted) else "unavailable",
            detail=str(exc),
            simulated_at=simulated_at,
            posts_forgone=posts_forgone,
        ))

    def by_forum(self) -> Dict[Forum, List[RawReport]]:
        grouped: Dict[Forum, List[RawReport]] = {}
        for report in self.reports:
            grouped.setdefault(report.forum, []).append(report)
        return grouped

    @property
    def image_count(self) -> int:
        return sum(len(r.screenshots) for r in self.reports)


def _report_from_post(post: Post, keyword: Optional[str],
                      via_reply: bool = False) -> RawReport:
    return RawReport(
        forum=post.forum,
        post_id=post.post_id,
        author=post.author,
        posted_at=post.created_at,
        body=post.body,
        screenshots=list(post.attachments),
        structured=dict(post.structured) if post.structured else None,
        matched_keyword=keyword,
        via_reply=via_reply,
        truth_event_id=post.truth_event_id,
    )


class TwitterCollector:
    """Historical + real-time tweet collection (§3.1.1)."""

    def __init__(self, service: TwitterService, config: PipelineConfig):
        self._service = service
        self._config = config

    def collect(self) -> CollectionResult:
        result = CollectionResult()
        windows = self._config.windows
        seen: set = set()
        # Historical sweep runs while the academic API is still alive.
        # Empty windows (possible when the stream layer clamps the
        # timeline to an epoch that misses a phase) skip the sweep
        # entirely: issuing a zero-width search would still move
        # query_time and could file a shutdown limitation that a
        # full-window run never sees.
        if windows.twitter_historical_start < windows.twitter_realtime_start:
            self._service.query_time = windows.twitter_realtime_start
            for keyword in self._config.keywords:
                posts = self._drain(keyword,
                                    windows.twitter_historical_start,
                                    windows.twitter_realtime_start,
                                    realtime=False, result=result)
                self._ingest(posts, keyword, seen, result)
        # Real-time collection until the shutdown moment (or the
        # configured end of the Twitter window, whichever comes first).
        realtime_until = min(ACADEMIC_API_SHUTDOWN, windows.twitter_end)
        if windows.twitter_realtime_start < realtime_until:
            self._service.query_time = windows.twitter_realtime_start
            for keyword in self._config.keywords:
                posts = self._drain(keyword, windows.twitter_realtime_start,
                                    realtime_until,
                                    realtime=True, result=result)
                self._ingest(posts, keyword, seen, result)
        return result

    def _drain(self, keyword: str, since: dt.datetime, until: dt.datetime,
               *, realtime: bool, result: CollectionResult) -> List[Post]:
        """Drain every page, keeping partial results across API failures.

        An API shutdown or an exhausted request quota mid-sweep loses the
        remaining pages but never the pages already fetched — the real
        pipeline survived exactly this when the academic API died. Each
        failure is filed as a structured limitation, not just a string.
        """
        posts: List[Post] = []
        cursor: Optional[str] = None
        while True:
            try:
                if realtime:
                    page = self._service.realtime_search(
                        keyword, since=since, until=until, cursor=cursor
                    )
                else:
                    page = self._service.full_archive_search(
                        keyword, since=since, until=until, cursor=cursor
                    )
            except (ServiceUnavailable, QuotaExhausted) as exc:
                result.record_limitation(
                    Forum.TWITTER, exc,
                    simulated_at=getattr(self._service, "query_time", None),
                    posts_forgone=max(
                        0, len(self._service) - result.posts_seen - len(posts)
                    ),
                )
                return posts
            posts.extend(page.posts)
            if page.exhausted:
                return posts
            cursor = page.next_cursor

    def _ingest(self, posts: Sequence[Post], keyword: str, seen: set,
                result: CollectionResult) -> None:
        for post in posts:
            result.posts_seen += 1
            if post.post_id in seen:
                continue
            seen.add(post.post_id)
            result.reports.append(_report_from_post(post, keyword))
            # Where the keyword sat in a reply, also fetch the original
            # tweet and its image attachment (§3.1.1).
            try:
                original = self._service.fetch_original(post)
            except (ServiceUnavailable, QuotaExhausted) as exc:
                result.record_limitation(
                    Forum.TWITTER, exc,
                    simulated_at=getattr(self._service, "query_time", None),
                )
                original = None
            if original is not None and original.post_id not in seen:
                seen.add(original.post_id)
                result.posts_seen += 1
                result.reports.append(
                    _report_from_post(original, keyword, via_reply=True)
                )


class RedditCollector:
    """Keyword search over submissions (§3.1.2)."""

    def __init__(self, service: RedditService, config: PipelineConfig):
        self._service = service
        self._config = config

    def collect(self) -> CollectionResult:
        result = CollectionResult()
        windows = self._config.windows
        if windows.reddit_start >= windows.reddit_end:
            return result
        seen: set = set()
        for keyword in self._config.keywords:
            try:
                posts = self._service.search_all(
                    keyword, since=windows.reddit_start,
                    until=windows.reddit_end,
                )
            except (ServiceUnavailable, QuotaExhausted) as exc:
                result.record_limitation(
                    Forum.REDDIT, exc,
                    simulated_at=windows.reddit_end,
                    posts_forgone=max(
                        0, len(self._service) - result.posts_seen
                    ),
                )
                break
            for post in posts:
                result.posts_seen += 1
                if post.post_id in seen:
                    continue
                seen.add(post.post_id)
                result.reports.append(_report_from_post(post, keyword))
        return result


class SmishingEuCollector:
    """Weekly Monday scrapes plus the backlog (§3.1.3)."""

    def __init__(self, service: SmishingEuService, config: PipelineConfig):
        self._service = service
        self._config = config

    def collect(self) -> CollectionResult:
        result = CollectionResult()
        windows = self._config.windows
        seen: set = set()
        scrape_dates = self._service.weekly_scrape_dates(
            windows.smishing_eu_scrape_start.date(),
            windows.smishing_eu_end.date(),
        )
        # The first visit also captures the backlog of old reports.
        for scrape_date in scrape_dates:
            try:
                posts = self._service.scrape(scrape_date)
            except (ServiceUnavailable, QuotaExhausted) as exc:
                result.record_limitation(
                    Forum.SMISHING_EU, exc,
                    simulated_at=dt.datetime.combine(scrape_date, dt.time()),
                    posts_forgone=max(
                        0, len(self._service) - result.posts_seen
                    ),
                )
                break
            for post in posts:
                result.posts_seen += 1
                if post.post_id in seen:
                    continue
                seen.add(post.post_id)
                result.reports.append(_report_from_post(post, None))
        return result


class PastebinCollector:
    """The analyst's paste stream (§3.1.4)."""

    def __init__(self, service: PastebinService, config: PipelineConfig):
        self._service = service
        self._config = config

    def collect(self) -> CollectionResult:
        result = CollectionResult()
        try:
            pastes = self._service.pastes_by_user(ANALYST_USER)
        except (ServiceUnavailable, QuotaExhausted) as exc:
            result.record_limitation(
                Forum.PASTEBIN, exc,
                posts_forgone=len(self._service),
            )
            return result
        for post in pastes:
            result.posts_seen += 1
            result.reports.append(_report_from_post(post, None))
        return result


class SmishtankCollector:
    """Bulk structured report listing (§3.1.5)."""

    def __init__(self, service: SmishtankService, config: PipelineConfig):
        self._service = service
        self._config = config

    def collect(self) -> CollectionResult:
        result = CollectionResult()
        windows = self._config.windows
        if windows.smishtank_start >= windows.smishtank_end:
            return result
        try:
            posts = self._service.list_reports(
                since=windows.smishtank_start, until=windows.smishtank_end
            )
        except (ServiceUnavailable, QuotaExhausted) as exc:
            result.record_limitation(
                Forum.SMISHTANK, exc,
                simulated_at=windows.smishtank_end,
                posts_forgone=len(self._service),
            )
            return result
        for post in posts:
            result.posts_seen += 1
            result.reports.append(_report_from_post(post, None))
        return result


#: Collector class per forum, in the paper's §3.1 presentation order.
_COLLECTORS = (
    (Forum.TWITTER, TwitterCollector),
    (Forum.REDDIT, RedditCollector),
    (Forum.SMISHING_EU, SmishingEuCollector),
    (Forum.PASTEBIN, PastebinCollector),
    (Forum.SMISHTANK, SmishtankCollector),
)


def collect_all(
    forums: Dict[Forum, object],
    config: Optional[PipelineConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> CollectionResult:
    """Run every collector against a world's forums.

    Collection runs forum by forum, in the canonical ``_COLLECTORS``
    order, on the calling thread. With telemetry enabled, each forum
    gets one ``collect/<forum>`` span wrapping its work, plus per-forum
    counters (posts seen, reports kept, limitations hit).
    """
    config = config or PipelineConfig()
    telemetry = ensure_telemetry(telemetry)
    tracer, metrics = telemetry.tracer, telemetry.metrics
    result = CollectionResult()
    for forum, collector_cls in _COLLECTORS:
        with tracer.span(f"collect/{forum.value}") as span:
            sub = collector_cls(forums[forum], config).collect()
            span.set(posts_seen=sub.posts_seen, reports=len(sub.reports),
                     images=sub.image_count, limitations=len(sub.limitations))
        metrics.counter("collection.posts_seen",
                        forum=forum.value).inc(sub.posts_seen)
        metrics.counter("collection.reports",
                        forum=forum.value).inc(len(sub.reports))
        for limitation in sub.limitations:
            metrics.counter("collection.limitations", forum=forum.value,
                            kind=limitation.kind).inc()
            metrics.counter("collection.posts_forgone",
                            forum=forum.value).inc(limitation.posts_forgone)
        result.extend(sub)
    return result
