"""Epoch planning: slicing the collection timeline into ingest windows.

A *stream plan* partitions the pipeline's global collection window — the
span from the earliest forum window start to the latest forum window end
— into half-open epochs ``[start, end)``. Because every collector's
search is itself half-open in ``posted_at`` (see
:mod:`repro.core.collection`), the union of the per-epoch collections is
exactly the batch collection: no post straddles an epoch boundary and no
boundary post is fetched twice.

:func:`clamp_windows` intersects the full :class:`CollectionWindows`
with one epoch. The clamp must preserve each window's internal ordering
invariants (historical ≤ realtime ≤ end, start ≤ end) so the collectors'
emptiness guards — not special cases here — decide which sources a given
epoch touches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from typing import List, Optional, Tuple

from ..core.config import CollectionWindows
from ..errors import ConfigurationError


def global_window(windows: CollectionWindows) -> Tuple[datetime, datetime]:
    """The full span covered by every forum window, as ``[start, end)``."""
    start = min(windows.twitter_historical_start, windows.reddit_start,
                windows.smishing_eu_backlog_start, windows.smishtank_start)
    end = max(windows.twitter_end, windows.reddit_end,
              windows.smishing_eu_end, windows.smishtank_end)
    return start, end


@dataclass(frozen=True)
class EpochWindow:
    """One half-open ingest window ``[start, end)``."""

    index: int
    start: datetime
    end: datetime

    @property
    def label(self) -> str:
        return f"{self.start:%Y-%m-%d}..{self.end:%Y-%m-%d}"

    def __str__(self) -> str:  # pragma: no cover - display sugar
        return self.label


def clamp_windows(windows: CollectionWindows, start: datetime,
                  end: datetime) -> CollectionWindows:
    """``windows`` intersected with ``[start, end)``.

    Collapsed (empty) windows come out with ``window_start ==
    window_end`` so the collectors' half-open searches fetch nothing;
    ordering invariants between twitter's three cursors are preserved by
    clamping each against its predecessor. ``smishing_eu_backlog_start``
    passes through unchanged: it marks where the forum's backlog begins,
    not when we scrape, and the weekly scrape dates are what the clamp
    partitions.
    """
    hs = min(max(windows.twitter_historical_start, start), end)
    rs = max(min(max(windows.twitter_realtime_start, start), end), hs)
    te = max(min(windows.twitter_end, end), rs)
    reddit_s = min(max(windows.reddit_start, start), end)
    reddit_e = max(min(windows.reddit_end, end), reddit_s)
    seu_s = min(max(windows.smishing_eu_scrape_start, start), end)
    seu_e = max(min(windows.smishing_eu_end, end), seu_s)
    st_s = min(max(windows.smishtank_start, start), end)
    st_e = max(min(windows.smishtank_end, end), st_s)
    return replace(
        windows,
        twitter_historical_start=hs,
        twitter_realtime_start=rs,
        twitter_end=te,
        reddit_start=reddit_s,
        reddit_end=reddit_e,
        smishing_eu_scrape_start=seu_s,
        smishing_eu_end=seu_e,
        smishtank_start=st_s,
        smishtank_end=st_e,
    )


def plan_epochs(windows: CollectionWindows, *, epochs: Optional[int] = None,
                epoch_hours: Optional[float] = None) -> List[EpochWindow]:
    """Partition the global window into epochs.

    Exactly one sizing knob applies: ``epoch_hours`` slices fixed-width
    windows from the global start (the last epoch absorbs the remainder),
    while ``epochs`` divides the span into that many equal windows. The
    returned list always covers the global window exactly — first start
    and last end are the global bounds, and consecutive windows share
    their boundary instant.
    """
    start, end = global_window(windows)
    if end <= start:
        raise ConfigurationError("collection windows span no time at all")
    plan: List[EpochWindow] = []
    if epoch_hours is not None:
        if epoch_hours <= 0:
            raise ConfigurationError("--epoch-hours must be positive")
        step = timedelta(hours=epoch_hours)
        cursor = start
        while cursor < end:
            upper = min(cursor + step, end)
            plan.append(EpochWindow(index=len(plan), start=cursor, end=upper))
            cursor = upper
        return plan
    if epochs is None or epochs < 1:
        raise ConfigurationError("an epoch plan needs --epochs >= 1 or "
                                 "--epoch-hours")
    span = end - start
    bounds = [start + span * i / epochs for i in range(epochs)] + [end]
    for index in range(epochs):
        plan.append(EpochWindow(index=index, start=bounds[index],
                                end=bounds[index + 1]))
    return plan


class EpochScheduler:
    """Drives a stream session through its planned epoch windows.

    The scheduler owns the plan (the full partition of the global
    window) and the *target* — how many of those epochs the session
    intends to run. ``repro watch --epochs N`` sets the target to N;
    ``repro ingest`` raises it one epoch at a time, paging forward from
    the committed high-water mark. No simulated time elapses between
    epochs, which keeps an N-epoch run byte-comparable with a single
    batch run.
    """

    def __init__(self, plan: List[EpochWindow], *, target: int):
        if not plan:
            raise ConfigurationError("epoch plan is empty")
        if not 1 <= target <= len(plan):
            raise ConfigurationError(
                f"target of {target} epochs does not fit a plan of "
                f"{len(plan)} windows")
        self.plan = list(plan)
        self.target = target

    @property
    def capacity(self) -> int:
        """How many epochs the plan can ever serve."""
        return len(self.plan)

    def pending(self, committed: int) -> List[EpochWindow]:
        """The epochs still to run, given ``committed`` are durable."""
        return self.plan[committed:self.target]

    def extend(self, epochs: int = 1) -> int:
        """Raise the target by ``epochs`` (for ``repro ingest``)."""
        if self.target + epochs > len(self.plan):
            raise ConfigurationError(
                f"epoch plan exhausted: {len(self.plan)} windows planned, "
                f"{self.target} already targeted — replan with smaller "
                f"--epoch-hours to ingest further")
        self.target += epochs
        return self.target
