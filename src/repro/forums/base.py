"""Forum substrate: posts, search, pagination, and rate limits.

Each of the five collection sources (§3.1) is a :class:`ForumService`
holding user posts. Collection code searches them by keyword with cursor
pagination under a rate limit, exactly the shape of the real APIs — so
the pipeline's collector logic (retry, windowing, dedup) is genuinely
exercised.
"""

from __future__ import annotations

import bisect
import datetime as dt
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ValidationError
from ..imaging.screenshot import Screenshot
from ..types import Forum
from .base_meter import ForumMeter

#: The four collection keywords (§3.1.1).
COLLECTION_KEYWORDS: Tuple[str, ...] = (
    "smishing", "phishing sms", "sms scam", "sms fraud"
)


@dataclass
class Post:
    """One user post on a forum."""

    post_id: str
    forum: Forum
    author: str
    created_at: dt.datetime
    body: str
    attachments: List[Screenshot] = field(default_factory=list)
    language: str = "en"
    truth_event_id: Optional[str] = None
    in_reply_to: Optional[str] = None
    subreddit: Optional[str] = None
    structured: Optional[Dict[str, str]] = None
    deleted: bool = False

    def matches_keyword(self, keyword: str) -> bool:
        return keyword.lower() in self.body.lower()

    @property
    def has_attachment(self) -> bool:
        return bool(self.attachments)


@dataclass
class SearchPage:
    """One page of search results with an opaque continuation cursor."""

    posts: List[Post]
    next_cursor: Optional[str]

    @property
    def exhausted(self) -> bool:
        return self.next_cursor is None


class ForumService:
    """Base forum with keyword search over a time window."""

    forum: Forum = Forum.TWITTER  # overridden by subclasses
    page_size: int = 100

    def __init__(self, *, meter: Optional[ForumMeter] = None):
        self._posts: List[Post] = []
        #: ``created_at`` of each entry of ``_posts``, for bisecting a
        #: search window; rebuilt by :meth:`_ensure_sorted`.
        self._times: List[dt.datetime] = []
        self._by_id: Dict[str, Post] = {}
        self._sorted = True
        self.meter = meter or ForumMeter(service=self.forum.value)

    # -- ingestion (world-side) --------------------------------------------------

    def add_post(self, post: Post) -> None:
        if post.forum is not self.forum:
            raise ValidationError(
                f"post for {post.forum} added to {self.forum} service"
            )
        if post.post_id in self._by_id:
            raise ValidationError(f"duplicate post id: {post.post_id}")
        self._posts.append(post)
        self._by_id[post.post_id] = post
        self._sorted = False

    def add_posts(self, posts: Iterable[Post]) -> None:
        for post in posts:
            self.add_post(post)

    def delete_post(self, post_id: str) -> None:
        """User deletes content (historical collection misses it, §7.1)."""
        post = self._by_id.get(post_id)
        if post is not None:
            post.deleted = True

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._posts.sort(key=lambda p: (p.created_at, p.post_id))
            self._times = [post.created_at for post in self._posts]
            self._sorted = True

    # -- read API -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._posts)

    def get(self, post_id: str) -> Optional[Post]:
        return self._by_id.get(post_id)

    def all_posts(self) -> List[Post]:
        """World-side enumeration (not part of the public API surface)."""
        self._ensure_sorted()
        return list(self._posts)

    def search(
        self,
        keyword: str,
        *,
        since: Optional[dt.datetime] = None,
        until: Optional[dt.datetime] = None,
        cursor: Optional[str] = None,
        include_deleted: bool = False,
    ) -> SearchPage:
        """Keyword search with cursor pagination (charges one request).

        The cursor is the integer offset into the chronological match
        list, stringified — opaque to callers, stable across pages.
        Posts are sorted by ``created_at``, so ``[since, until)`` is one
        index range: the page walks only that range from the cursor on.
        """
        self.meter.charge()
        self._ensure_sorted()
        posts, times = self._posts, self._times
        low = 0 if since is None else bisect.bisect_left(times, since)
        high = len(posts) if until is None else bisect.bisect_left(times, until)
        start_index = max(int(cursor) if cursor else 0, low)
        matches: List[Post] = []
        next_cursor: Optional[str] = None
        for index in range(start_index, high):
            post = posts[index]
            if post.deleted and not include_deleted:
                continue
            if not post.matches_keyword(keyword):
                continue
            matches.append(post)
            if len(matches) >= self.page_size:
                next_cursor = str(index + 1)
                break
        return SearchPage(posts=matches, next_cursor=next_cursor)

    def search_all(
        self,
        keyword: str,
        *,
        since: Optional[dt.datetime] = None,
        until: Optional[dt.datetime] = None,
    ) -> List[Post]:
        """Drain every page for a keyword (well-behaved client loop)."""
        results: List[Post] = []
        cursor: Optional[str] = None
        while True:
            page = self.search(keyword, since=since, until=until, cursor=cursor)
            results.extend(page.posts)
            if page.exhausted:
                return results
            cursor = page.next_cursor
