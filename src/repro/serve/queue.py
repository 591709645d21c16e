"""The bounded ingest queue: accepted-but-unprocessed reports.

A deliberately small structure with one non-negotiable invariant: depth
never exceeds capacity, ever (``tests/test_properties.py`` pins it).
Unbounded queues are how intake services die under load — memory grows
until the process is killed at the worst possible moment, taking every
queued report with it. Bounding the queue moves the overload decision to
the front door, where it can be *answered* (429/503 + retry-after)
instead of suffered.

Items are flat, picklable value objects: a durable commit persists the
whole queue so a killed server resumes with exactly the accepted-but-
unprocessed work it had, and loses nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class QueueItem:
    """One accepted report waiting for a processing batch.

    ``post_index`` references the world's deterministic post list (the
    load generator cycles it), not the Post object itself — the item
    must survive pickling and re-binding to a freshly rebuilt world.
    ``deadline`` is the absolute simulated instant the submitting
    reporter stops caring; a batch drops expired items at dequeue and
    propagates the tightest surviving deadline into enrichment retries.
    """

    index: int
    request_id: str
    reporter: str
    post_index: int
    enqueued_at: float
    deadline: Optional[float] = None


class BoundedQueue:
    """FIFO of :class:`QueueItem` with a hard capacity bound."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.capacity = capacity
        self._items: deque = deque()
        self.max_depth = 0
        self.offered = 0
        self.refused = 0

    @property
    def depth(self) -> int:
        return len(self._items)

    def offer(self, item: QueueItem) -> bool:
        """Enqueue unless full. Never grows past capacity."""
        self.offered += 1
        if len(self._items) >= self.capacity:
            self.refused += 1
            return False
        self._items.append(item)
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)
        return True

    def take(self, n: int) -> List[QueueItem]:
        """Dequeue up to ``n`` items in FIFO order."""
        taken: List[QueueItem] = []
        while self._items and len(taken) < n:
            taken.append(self._items.popleft())
        return taken

    def items(self) -> Tuple[QueueItem, ...]:
        return tuple(self._items)
