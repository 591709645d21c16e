"""Pipeline configuration: collection windows and keywords (§3.1)."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Tuple

from ..forums.base import COLLECTION_KEYWORDS


@dataclass(frozen=True)
class CollectionWindows:
    """The per-forum collection timelines of Table 1 / §3.1."""

    twitter_historical_start: dt.datetime = dt.datetime(2017, 1, 1)
    twitter_realtime_start: dt.datetime = dt.datetime(2022, 11, 30)
    twitter_end: dt.datetime = dt.datetime(2023, 6, 23)
    reddit_start: dt.datetime = dt.datetime(2017, 1, 1)
    reddit_end: dt.datetime = dt.datetime(2023, 9, 30)
    smishing_eu_backlog_start: dt.datetime = dt.datetime(2021, 11, 21)
    smishing_eu_scrape_start: dt.datetime = dt.datetime(2022, 11, 28)
    smishing_eu_end: dt.datetime = dt.datetime(2023, 10, 16)
    smishtank_start: dt.datetime = dt.datetime(2022, 3, 31)
    smishtank_end: dt.datetime = dt.datetime(2024, 4, 8)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the measurement pipeline needs to know."""

    keywords: Tuple[str, ...] = COLLECTION_KEYWORDS
    windows: CollectionWindows = field(default_factory=CollectionWindows)
    #: Residual field-miss rate of the vision extractor.
    vision_miss_rate: float = 0.015
    #: Draw the vision extractor's per-image misses from a stable
    #: per-image stream instead of one shared positional stream. The
    #: positional default keeps historical runs byte-identical; the
    #: stable mode makes each image's extraction independent of how the
    #: curation batch was sliced, which is what lets the incremental
    #: ingester (:mod:`repro.stream`) curate epoch-by-epoch and still
    #: match a single full-window run image-for-image.
    stable_vision: bool = False
