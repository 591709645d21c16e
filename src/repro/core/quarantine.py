"""Quarantine/sanitization: per-record defence against hostile reports.

Public report channels are adversarial by construction (§3, §7): OCR
junk, copy-paste mangling, deliberately oversized or mojibake bodies,
defanged-beyond-repair URLs, coordinated duplicate floods, and poison
reports planting benign brand names to bait false blocklisting. The
fault layer (:mod:`repro.faults`) hardens the pipeline against failing
*infrastructure*; this module is its data-plane twin — it hardens the
pipeline against Byzantine *data*.

The contract mirrors :class:`~repro.core.collection.CollectionLimitation`
and :class:`~repro.core.enrichment.EnrichmentGap`: a hostile record is
never a crash, it is one structured :class:`QuarantineRecord` — who sent
it, on which forum, why it was diverted, and at which stage. Every
collected report lands in exactly one of three buckets (curated,
quarantined, dropped), so ``curated + quarantined + dropped ==
collected`` is an invariant the differential harness can enforce.

Two screening layers:

* :class:`Sanitizer` — per-record validation: schema/field types,
  unicode-anomaly caps (zero-width, bidi overrides, replacement chars),
  bounded body/field/token lengths (budget guards for the
  ``normalize.squash`` / ``brands_ner.find_all`` hot paths), structured
  URL and timestamp plausibility.
* the anomaly screen — batch-context detection: per-reporter duplicate
  floods and near-duplicate poison clusters, with thresholds calibrated
  well above anything a clean world produces (legitimate re-reports of
  one event cap at 3 by ``REPORT_COUNT_WEIGHTS``; measured clean maxima
  are 4 same-author and 2 cross-author identical texts).

Deliberate pass-throughs: defanged-but-recoverable URLs (``hxxp://``,
``bracket[.]dot`` — :func:`repro.net.url.refang` handles them), ordinary
duplicate reports (the dedup ledger's job), and unparseable paste bodies
(they fall into the *dropped* bucket like any other yield-less report).
"""

from __future__ import annotations

import datetime as dt
import re
import unicodedata
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ParseError
from ..net.url import try_parse_url
from ..nlp.normalize import squash
from ..types import Forum
from ..utils.timeutils import parse_screenshot_timestamp
from .collection import RawReport

#: Stage tags a quarantine record can carry.
QUARANTINE_STAGES = ("curation", "serve")

#: Every reason the sanitizer / anomaly screen can divert a record for.
QUARANTINE_REASONS = (
    "schema_violation",
    "oversize_body",
    "unicode_anomaly",
    "token_budget",
    "malformed_url",
    "invalid_timestamp",
    "reporter_flood",
    "poison_cluster",
    "invalid_record",
)


@dataclass(frozen=True)
class QuarantineRecord:
    """One diverted report: the curation-stage sibling of
    :class:`~repro.core.collection.CollectionLimitation` and
    :class:`~repro.core.enrichment.EnrichmentGap`."""

    forum: Forum
    reporter: str
    reason: str
    stage: str = "curation"
    detail: str = ""
    post_id: str = ""
    simulated_at: Optional[dt.datetime] = None
    #: Which ingestion epoch diverted this record. ``None`` for batch
    #: runs; :mod:`repro.stream` stamps the epoch index before merging.
    epoch: Optional[int] = None


@dataclass(frozen=True)
class SanitizerLimits:
    """Caps and thresholds; the defaults pass every clean world."""

    #: Bodies above this are hostile by construction — the longest
    #: legitimate report body is a few KB of paste.
    max_body_chars: int = 16_384
    #: Per-field cap for structured form submissions.
    max_field_chars: int = 2_048
    #: A single whitespace-free token longer than this would blow the
    #: regex-step budget of ``normalize.squash`` / ``find_all``.
    max_token_chars: int = 1_024
    #: Zero-width / bidi-override / control character tolerance: both
    #: the absolute count and the density must be exceeded to divert
    #: (emoji-adjacent joiners in real reports stay under both).
    max_control_chars: int = 8
    max_control_density: float = 0.05
    #: Plausible receipt-year window for structured timestamp fields.
    min_timestamp_year: int = 2000
    max_timestamp_year: int = 2035
    #: Same author, same normalized text: clean worlds max out at 4
    #: (three re-reports of one event plus text collisions).
    flood_threshold: int = 8
    #: Same normalized text across authors, attachment-less: clean
    #: worlds max out at 2.
    cluster_threshold: int = 6
    #: How many characters of text feed the normalized cluster key —
    #: bounds the cost of keying even a megabyte body.
    cluster_key_chars: int = 1_000


#: Unicode categories that count toward the control/invisible budget.
_HOSTILE_CATEGORIES = frozenset({"Cf", "Co", "Cn"})
#: Always-suspicious code points (kept explicit for auditability).
_HOSTILE_CHARS = frozenset(
    "​‌‍‎‏"        # zero-width + marks
    "‪‫‬‭‮"        # bidi embeddings/overrides
    "⁦⁧⁨⁩"              # bidi isolates
    "﻿�"                           # BOM, replacement char
)
_ALLOWED_CONTROLS = frozenset("\n\r\t")
#: The characters the loop below counts in ASCII text: no ASCII
#: character is Cf, Co or Cn or in ``_HOSTILE_CHARS``, so only the C0
#: controls outside ``_ALLOWED_CONTROLS`` remain.
_ASCII_HOSTILE_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")


def _hostile_char_count(text: str, *, limit: int) -> int:
    """Count invisible/control/undefined characters, capped at ``limit``
    so a pathological body never costs a full scan."""
    count = 0
    if text.isascii():
        for _ in _ASCII_HOSTILE_RE.finditer(text):
            count += 1
            if count >= limit:
                return count
        return count
    for ch in text:
        if ch in _ALLOWED_CONTROLS:
            continue
        if (ch in _HOSTILE_CHARS or ord(ch) < 0x20
                or unicodedata.category(ch) in _HOSTILE_CATEGORIES):
            count += 1
            if count >= limit:
                return count
    return count


def _effective_text(report: RawReport) -> str:
    """The text curation would mine from this report (best effort)."""
    if report.structured:
        value = report.structured.get("text")
        if isinstance(value, str):
            return value
    return report.body


class Sanitizer:
    """Per-record screening plus the batch-context anomaly screen.

    The sanitizer always runs — clean inputs must provably pass, which
    is what makes "``--hostile none`` quarantines nothing" a testable
    guarantee rather than a configuration accident. Batch curation calls
    :meth:`observe_batch` first (so every member of a flood/poison
    cluster is diverted, not just the copies past the threshold), then
    :meth:`screen` per report. Long-running services skip the pre-scan
    and let the cumulative counters latch instead; a serve commit
    pickles the sanitizer whole, so its counters survive a resume.
    """

    def __init__(self, limits: Optional[SanitizerLimits] = None,
                 *, stage: str = "curation"):
        self.limits = limits or SanitizerLimits()
        self.stage = stage
        #: Cumulative (author, text-key) sightings across screens.
        self._author_counts: Dict[Tuple[str, str], int] = {}
        #: Cumulative attachment-less text-key sightings.
        self._text_counts: Dict[str, int] = {}
        #: Keys implicated by the current batch's pre-scan.
        self._flood_keys: set = set()
        self._cluster_keys: set = set()
        self.screened = 0
        self.quarantined = 0

    # -- keys -----------------------------------------------------------------

    def _text_key(self, report: RawReport) -> str:
        """Anomaly-screen cluster key: the squashed structured text.

        Only structured submissions (the form-based channels coordinated
        abuse actually targets) are flood/cluster screened. Free-text
        posts legitimately repeat — commentary templates, chatter, a
        handful of prolific handles — so keying on bodies would divert
        organic traffic; those channels are protected by the structural
        checks here and the dedup ledger downstream.
        """
        if not report.structured:
            return ""
        text = report.structured.get("text")
        if not isinstance(text, str) or not text.strip():
            return ""
        return squash(text[: self.limits.cluster_key_chars])[:200]

    # -- batch-context anomaly screen ----------------------------------------

    def observe_batch(self, reports: Iterable[RawReport]) -> None:
        """Pre-scan a whole curation batch so cluster membership is
        known before the first per-record screen."""
        author_counts: Dict[Tuple[str, str], int] = {}
        text_counts: Dict[str, int] = {}
        for report in reports:
            key = self._text_key(report)
            if not key:
                continue
            author_counts[(report.author, key)] = (
                author_counts.get((report.author, key), 0) + 1)
            if not report.screenshots:
                text_counts[key] = text_counts.get(key, 0) + 1
        self._flood_keys = {
            pair for pair, count in author_counts.items()
            if count >= self.limits.flood_threshold
        }
        self._cluster_keys = {
            key for key, count in text_counts.items()
            if count >= self.limits.cluster_threshold
        }

    def _anomaly_reason(self, report: RawReport,
                        key: str) -> Optional[Tuple[str, str]]:
        if not key:
            return None
        limits = self.limits
        author_pair = (report.author, key)
        count = self._author_counts.get(author_pair, 0) + 1
        self._author_counts[author_pair] = count
        cluster = 0
        if not report.screenshots:
            cluster = self._text_counts.get(key, 0) + 1
            self._text_counts[key] = cluster
        if author_pair in self._flood_keys or count >= limits.flood_threshold:
            return ("reporter_flood",
                    f"reporter {report.author} filed {max(count, limits.flood_threshold)}+ "
                    f"near-identical reports")
        if key in self._cluster_keys or cluster >= limits.cluster_threshold:
            return ("poison_cluster",
                    f"near-duplicate cluster of {max(cluster, limits.cluster_threshold)}+ "
                    f"attachment-less reports")
        return None

    # -- per-record screening -------------------------------------------------

    def _structural_reason(self,
                           report: RawReport) -> Optional[Tuple[str, str]]:
        limits = self.limits
        body = report.body
        if not isinstance(body, str):
            return ("schema_violation",
                    f"body is {type(body).__name__}, not text")
        structured = report.structured
        if structured is not None:
            for field_name, value in structured.items():
                if value is not None and not isinstance(value, str):
                    return ("schema_violation",
                            f"structured field {field_name!r} is "
                            f"{type(value).__name__}, not text")
        if len(body) > limits.max_body_chars:
            return ("oversize_body",
                    f"body of {len(body)} chars exceeds the "
                    f"{limits.max_body_chars}-char cap")
        if structured:
            for field_name, value in structured.items():
                if value and len(value) > limits.max_field_chars:
                    return ("oversize_body",
                            f"structured field {field_name!r} of "
                            f"{len(value)} chars exceeds the "
                            f"{limits.max_field_chars}-char cap")
        text = _effective_text(report)
        hostiles = _hostile_char_count(
            text, limit=limits.max_control_chars + 1)
        if (hostiles > limits.max_control_chars
                and hostiles > limits.max_control_density
                * max(1, len(text))):
            return ("unicode_anomaly",
                    f"{hostiles}+ invisible/control characters in the "
                    f"report text")
        for token in text.split():
            if len(token) > limits.max_token_chars:
                return ("token_budget",
                        f"single {len(token)}-char token exceeds the "
                        f"{limits.max_token_chars}-char normalization "
                        f"budget")
        if structured:
            raw_url = structured.get("url")
            if raw_url and try_parse_url(raw_url) is None:
                return ("malformed_url",
                        f"structured URL field does not parse: "
                        f"{raw_url[:80]!r}")
            raw_ts = (structured.get("timestamp")
                      or structured.get("report_date"))
            if raw_ts:
                reason = self._timestamp_reason(raw_ts, report.posted_at)
                if reason is not None:
                    return reason
        return None

    def _timestamp_reason(self, raw: str,
                          posted_at: dt.datetime) -> Optional[Tuple[str, str]]:
        limits = self.limits
        try:
            parsed = parse_screenshot_timestamp(
                raw, reference=posted_at.date())
        except (ParseError, ValueError, TypeError,
                AttributeError, OverflowError):
            return ("invalid_timestamp",
                    f"structured timestamp does not parse: {raw[:40]!r}")
        if parsed.has_date and not (
                limits.min_timestamp_year
                <= parsed.value.year
                <= limits.max_timestamp_year):
            return ("invalid_timestamp",
                    f"timestamp year {parsed.value.year} outside "
                    f"[{limits.min_timestamp_year}, "
                    f"{limits.max_timestamp_year}]")
        return None

    def screen(self, report: RawReport) -> Optional[QuarantineRecord]:
        """Screen one report; a :class:`QuarantineRecord` means divert."""
        self.screened += 1
        verdict = self._structural_reason(report)
        if verdict is None:
            verdict = self._anomaly_reason(report, self._text_key(report))
        if verdict is None:
            return None
        reason, detail = verdict
        self.quarantined += 1
        return QuarantineRecord(
            forum=report.forum,
            reporter=report.author if isinstance(report.author, str)
            else repr(report.author),
            reason=reason,
            stage=self.stage,
            detail=detail,
            post_id=report.post_id,
            simulated_at=report.posted_at,
        )


def quarantine_by_reason(
    records: Iterable[QuarantineRecord],
) -> Dict[str, int]:
    """Reason -> count, for tables and telemetry."""
    counts: Dict[str, int] = {}
    for record in records:
        counts[record.reason] = counts.get(record.reason, 0) + 1
    return dict(sorted(counts.items()))


def stamp_epoch(records: List[QuarantineRecord],
                epoch_index: int) -> List[QuarantineRecord]:
    """Epoch-stamped copies, mirroring the limitation/gap discipline."""
    return [replace(record, epoch=epoch_index) for record in records]
