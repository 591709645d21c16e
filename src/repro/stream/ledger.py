"""Cross-run content dedup: the durable ledger of curated messages.

Public user reports repeat themselves: the same scam text gets posted to
multiple forums, re-posted weeks later, quoted by other users. The batch
pipeline tolerates this (duplicate records flow through enrichment and
are collapsed downstream by the memo cache), but a *continuous* ingester
would pay the annotation charge for every re-sighting across every
epoch. The :class:`DedupLedger` stops that at the curation boundary: a
curated record whose *content hash* — normalised SMS text + normalised
sender + canonical URL — matches a prior sighting is dropped from the
enrichment delta and instead inherits its canonical twin's annotation.

The ledger is two-phase on purpose. :meth:`divide` is a pure query —
given an epoch's curated records it partitions them into the enrichment
delta and the duplicates, *without* mutating the ledger — and
:meth:`commit` applies the epoch's new hashes only once the epoch is
durably committed. A crash mid-epoch therefore replays against exactly
the ledger state the first attempt saw.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from ..core.dataset import SmishingRecord, normalise_message_key


def content_hash(record: SmishingRecord) -> str:
    """The curation-stage identity of one record's *content*.

    Normalised text (casefolded, whitespace-collapsed), normalised
    sender id, and canonical URL — the three fields enrichment actually
    keys on. Forum, post id, and timestamps are deliberately excluded:
    the whole point is to recognise the same message re-posted elsewhere
    or later.
    """
    sender = record.sender.normalized if record.sender else ""
    url = str(record.url) if record.url else ""
    basis = "\x1f".join((normalise_message_key(record.text), sender or "",
                         url))
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()


@dataclass
class DedupDivision:
    """The outcome of one epoch's pure dedup query."""

    #: Records that need enrichment (first sighting of their content).
    delta: List[SmishingRecord]
    #: duplicate record id -> canonical record id whose annotation it
    #: inherits. Canonicals from *this* epoch appear here too (within-
    #: epoch re-posts dedup exactly like cross-epoch ones).
    duplicate_of: Dict[str, str]
    #: content hash -> canonical record id, for the commit phase.
    new_hashes: Dict[str, str]


def inherit_annotations(division: DedupDivision, enriched,
                        prior: Mapping[str, object]) -> Tuple[dict, dict]:
    """An enriched batch's ``(annotations, raw_annotations)`` plus each
    duplicate's canonical twin's annotation, rebound to the duplicate's
    own record id — what the annotation service itself returns for a
    repeated text (it echoes the id and is pure in the text). The
    batch's own annotation of a canonical wins over ``prior`` (those
    committed earlier); a gapped canonical leaves its duplicates bare."""
    own = enriched.raw_annotations
    annotations, raw = dict(enriched.annotations), dict(own)
    for dup_id, canon_id in division.duplicate_of.items():
        canonical = own.get(canon_id)
        if canonical is None:
            canonical = prior.get(canon_id)
        if canonical is None:
            continue
        raw[dup_id] = dataclasses.replace(canonical, message_id=dup_id)
        annotations[dup_id] = raw[dup_id].labels
    return annotations, raw


class DedupLedger:
    """Durable map of content hash → canonical record id."""

    def __init__(self):
        self._entries: Dict[str, str] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def canonical_id(self, digest: str) -> str:
        return self._entries[digest]

    # -- the two-phase dedup protocol -----------------------------------------

    def divide(self, records: Iterable[SmishingRecord]) -> DedupDivision:
        """Partition an epoch's records into delta and duplicates.

        Pure with respect to the ledger's entries: only the hit/miss
        counters move (they describe queries, not state). Within the
        epoch the *first* record of a given hash is canonical and later
        ones point at it, so the division is stable under replay.
        """
        delta: List[SmishingRecord] = []
        duplicate_of: Dict[str, str] = {}
        new_hashes: Dict[str, str] = {}
        for record in records:
            digest = content_hash(record)
            prior = self._entries.get(digest)
            if prior is None:
                prior = new_hashes.get(digest)
            if prior is not None:
                self.hits += 1
                duplicate_of[record.record_id] = prior
                continue
            self.misses += 1
            new_hashes[digest] = record.record_id
            delta.append(record)
        return DedupDivision(delta=delta, duplicate_of=duplicate_of,
                             new_hashes=new_hashes)

    def commit(self, new_hashes: Dict[str, str]) -> None:
        """Adopt an epoch's first-sighting hashes as durable entries."""
        self._entries.update(new_hashes)

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "entries": dict(sorted(self._entries.items())),
            "hits": self.hits,
            "misses": self.misses,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "DedupLedger":
        ledger = cls()
        ledger._entries = dict(payload.get("entries", {}))
        ledger.hits = int(payload.get("hits", 0))
        ledger.misses = int(payload.get("misses", 0))
        return ledger

    def stats(self) -> Dict[str, object]:
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }
