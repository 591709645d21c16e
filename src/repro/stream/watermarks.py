"""Per-forum ingest watermarks: how epoch N pages forward from N−1.

Each forum keeps a :class:`ForumCursor` — the highest ``posted_at`` it
has durably ingested, the post id that carried it, and a running ingest
count — plus the set of post ids already consumed. Most forums never
need the seen sets (their searches are half-open in ``posted_at``, so
the epoch plan's window clamp already partitions them exactly), but two
sources re-surface old material every visit: Smishing.eu scrapes are
cumulative (every Monday returns *all* posts to date) and the Pastebin
listing is unwindowed. For those, the watermark is what turns a
re-sighting into a no-op instead of a duplicate record.

The store follows the same two-phase discipline as the dedup ledger:
:meth:`filter_epoch` is a pure query that partitions a collection into
fresh/seen/deferred, and :meth:`commit` adopts the fresh posts only once
their epoch is durable. Deferral handles the unwindowed sources' *other*
direction: a paste dated after the epoch's end is left for the epoch
whose window actually covers it, so per-epoch merges remain exactly the
batch multiset.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..core.collection import CollectionResult, RawReport
from ..types import Forum
from .epochs import EpochWindow


@dataclass
class ForumCursor:
    """One forum's high-water mark."""

    last_post_at: Optional[dt.datetime] = None
    last_post_id: str = ""
    ingested: int = 0

    def advance(self, report: RawReport) -> None:
        self.ingested += 1
        if self.last_post_at is None or report.posted_at >= self.last_post_at:
            self.last_post_at = report.posted_at
            self.last_post_id = report.post_id

    def to_dict(self) -> Dict[str, object]:
        return {
            "last_post_at": (self.last_post_at.isoformat()
                             if self.last_post_at else None),
            "last_post_id": self.last_post_id,
            "ingested": self.ingested,
        }


@dataclass
class EpochFilter:
    """The outcome of one epoch's pure watermark query."""

    #: The epoch's fresh reports, in collection order, ready to curate.
    result: CollectionResult
    #: Post ids per forum to mark seen at commit time.
    fresh_ids: Dict[Forum, List[str]]
    #: Re-sightings of already-ingested posts (dropped).
    seen_dropped: int = 0
    #: Posts dated at/after the epoch's end (left for a later epoch).
    deferred: int = 0


class WatermarkStore:
    """Durable per-forum cursors + seen-id sets + the global frontier."""

    def __init__(self):
        self.cursors: Dict[Forum, ForumCursor] = {
            forum: ForumCursor() for forum in Forum
        }
        self._seen: Dict[Forum, Set[str]] = {forum: set() for forum in Forum}
        #: End of the last committed epoch (None before the first).
        self.frontier: Optional[dt.datetime] = None

    def seen(self, forum: Forum, post_id: str) -> bool:
        return post_id in self._seen[forum]

    def seen_count(self, forum: Forum) -> int:
        return len(self._seen[forum])

    # -- the two-phase protocol -----------------------------------------------

    def filter_epoch(self, collection: CollectionResult,
                     epoch: EpochWindow) -> EpochFilter:
        """Partition a collection into fresh / already-seen / deferred.

        Pure: the store is not mutated. A report survives when its post
        id is unseen *and* it is dated before the epoch's end. Posts
        dated before the epoch's *start* are kept — the cumulative
        sources legitimately deliver backlog material there, and windowed
        sources never produce any. Bookkeeping fields (``posts_seen``,
        ``api_errors``, ``limitations``) pass through untouched; they
        describe what collection *did*, not what curation keeps.
        """
        kept = CollectionResult(
            posts_seen=collection.posts_seen,
            api_errors=list(collection.api_errors),
            limitations=list(collection.limitations),
        )
        fresh_ids: Dict[Forum, List[str]] = {forum: [] for forum in Forum}
        filtered = EpochFilter(result=kept, fresh_ids=fresh_ids)
        pending: Dict[Forum, Set[str]] = {forum: set() for forum in Forum}
        for report in collection.reports:
            if (report.post_id in self._seen[report.forum]
                    or report.post_id in pending[report.forum]):
                filtered.seen_dropped += 1
                continue
            if report.posted_at >= epoch.end:
                filtered.deferred += 1
                continue
            pending[report.forum].add(report.post_id)
            fresh_ids[report.forum].append(report.post_id)
            kept.reports.append(report)
        return filtered

    def commit(self, filtered: EpochFilter, epoch: EpochWindow) -> None:
        """Adopt an epoch's fresh posts and advance the frontier."""
        by_forum: Dict[Forum, List[RawReport]] = {}
        for report in filtered.result.reports:
            by_forum.setdefault(report.forum, []).append(report)
        for forum, reports in by_forum.items():
            cursor = self.cursors[forum]
            seen = self._seen[forum]
            for report in reports:
                seen.add(report.post_id)
                cursor.advance(report)
        if self.frontier is None or epoch.end > self.frontier:
            self.frontier = epoch.end

    def stats(self) -> Dict[str, object]:
        return {
            "frontier": self.frontier.isoformat() if self.frontier else None,
            "forums": {forum.value: self.cursors[forum].to_dict()
                       for forum in Forum},
        }
