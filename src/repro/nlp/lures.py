"""Lure-principle detection (Stajano & Wilson, §5.5 / Table 13).

Each principle is keyed by cue phrases in the English text. Detection is
multi-label — most smishing texts combine authority with time pressure —
and the cue inventories were written against the same persuasion markers
the template library uses, so detection is a genuine (if in-domain)
classification task.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from ..types import LurePrinciple

_PHRASES: Dict[LurePrinciple, Tuple[str, ...]] = {
    LurePrinciple.TIME_URGENCY: (
        "today", "immediately", "now", "urgent", "asap", "expires",
        "expire", "deadline", "within 12", "within 24", "within 48",
        "final notice", "last chance", "right away", "before", "hasty",
        "deactivated within", "this weekend only", "limited slots",
    ),
    LurePrinciple.AUTHORITY: (
        "security team", "alert", "notice", "official", "service",
        "verify your", "confirm your identity", "your account", "customs",
        "suspended", "blocked", "locked", "dear customer", "we detected",
        "unpaid", "re-register", "update your", "your parcel", "your line",
        "your sim", "your subscription", "your bill",
    ),
    LurePrinciple.NEED_AND_GREED: (
        "refund", "reward", "rewards", "prize", "win", "won", "earn",
        "free", "gift", "bonus", "cash", "benefit", "claim", "offer",
        "discount", "% off", "loyalty", "returns", "doubled", "approved",
    ),
    LurePrinciple.KINDNESS: (
        "help", "mum", "mom", "dad", "it's me", "family", "your son",
        "your daughter", "can you", "need you",
    ),
    LurePrinciple.DISTRACTION: (
        "if this was not you", "if you did not request", "wrong number",
        "is this", "are we still", "new number", "phone broke",
        "dropped my phone", "using a friend", "lovely meeting",
        "reschedule my appointment", "unrelated",
    ),
    LurePrinciple.HERD: (
        "thousands already", "join the winners", "others have",
        "everyone", "already earning", "investors doubled", "selected for",
        "join thousands", "most popular",
    ),
    LurePrinciple.DISHONESTY: (
        "not strictly legal", "no questions asked", "between us",
        "off the books", "no credit check", "bypass", "unlocked",
    ),
}

#: Phrases that must match as whole words when single-token. Each is a
#: run of ``\w`` characters, so it matches exactly when it is one of the
#: text's ``\w+`` runs; every other phrase matches as a substring.
_WORD_BOUNDARY = {"now", "win", "won", "free", "help", "mum", "mom", "dad",
                  "today", "cash", "claim", "offer", "alert", "notice",
                  "before", "service", "earn"}

_WORD_RE = re.compile(r"\w+")


@dataclass(frozen=True)
class LureDetection:
    """Detected lures with per-lure matched cues."""

    lures: FrozenSet[LurePrinciple]
    evidence: Dict[LurePrinciple, Tuple[str, ...]]


class LureDetector:
    """Multi-label cue matcher over English text."""

    def __init__(self, *, min_cues: int = 1):
        self._min_cues = min_cues

    def detect(self, english_text: str) -> LureDetection:
        """Detect every lure whose cue count reaches the threshold."""
        lowered = english_text.lower()
        words = set(_WORD_RE.findall(lowered))
        found: Dict[LurePrinciple, Tuple[str, ...]] = {}
        for lure, phrases in _PHRASES.items():
            hits = tuple(
                phrase for phrase in phrases
                if phrase in (words if phrase in _WORD_BOUNDARY else lowered)
            )
            if len(hits) >= self._min_cues:
                found[lure] = hits
        return LureDetection(lures=frozenset(found), evidence=found)

    def detect_set(self, english_text: str) -> FrozenSet[LurePrinciple]:
        return self.detect(english_text).lures
