"""Scammer-strategy analyses: Tables 10-13 and Figure 2 (§5)."""

from __future__ import annotations

import datetime as dt
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.dataset import SmishingRecord
from ..core.enrichment import EnrichedDataset
from ..types import LurePrinciple, ScamType
from ..utils.stats import (
    KsResult,
    format_seconds_of_day,
    ks_two_sample,
    median,
    seconds_of_day,
)
from ..utils.tables import Table, format_count_pct
from ..world.languages import LanguageRegistry, default_languages

_WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
             "Saturday", "Sunday")


# ---------------------------------------------------------------------------
# Figure 2: time-of-day per weekday.
# ---------------------------------------------------------------------------

@dataclass
class TimestampAnalysis:
    """Figure 2 data: per-weekday second-of-day samples and medians."""

    samples: Dict[str, List[int]]
    medians: Dict[str, str]
    excluded_campaign_size: int
    total_timestamps: int
    ks_results: Dict[Tuple[str, str], KsResult] = field(default_factory=dict)

    def significant_pairs(self) -> List[Tuple[str, str]]:
        return [pair for pair, result in self.ks_results.items()
                if result.significant]


def detect_burst_campaign(
    records: Sequence[SmishingRecord], *, threshold: int = 50
) -> Optional[Tuple[dt.datetime, int]]:
    """Find a flash campaign: many messages in the same minute (§5.1).

    Returns the burst minute and its size when one minute holds at least
    ``threshold`` timestamped messages (the 2021 SBI campaign put >850
    messages at Tue 11:34).
    """
    minutes: Counter = Counter()
    for record in records:
        if record.has_full_timestamp:
            moment = record.timestamp.value.replace(second=0, microsecond=0)
            minutes[moment] += 1
    if not minutes:
        return None
    burst_minute, size = minutes.most_common(1)[0]
    if size >= threshold:
        return burst_minute, size
    return None


def timestamp_analysis(
    enriched: EnrichedDataset, *, burst_threshold: int = 50
) -> TimestampAnalysis:
    """Build the Figure 2 dataset.

    Only records with full date+time timestamps participate (§3.3.2).
    A detected flash campaign is removed before computing distributions,
    exactly as the paper removes the 2021 SBI burst.
    """
    records = [r for r in enriched.dataset if r.has_full_timestamp]
    total = len(records)
    burst = detect_burst_campaign(records, threshold=burst_threshold)
    excluded = 0
    if burst is not None:
        burst_minute, _ = burst
        kept = []
        for record in records:
            moment = record.timestamp.value.replace(second=0, microsecond=0)
            if moment == burst_minute:
                excluded += 1
            else:
                kept.append(record)
        records = kept
    samples: Dict[str, List[int]] = {day: [] for day in _WEEKDAYS}
    for record in records:
        value = record.timestamp.value
        day = _WEEKDAYS[value.weekday()]
        samples[day].append(
            seconds_of_day(value.hour, value.minute, value.second)
        )
    medians = {
        day: format_seconds_of_day(median(values)) if values else "-"
        for day, values in samples.items()
    }
    analysis = TimestampAnalysis(
        samples=samples,
        medians=medians,
        excluded_campaign_size=excluded,
        total_timestamps=total,
    )
    for i in range(len(_WEEKDAYS)):
        for j in range(i + 1, len(_WEEKDAYS)):
            a, b = _WEEKDAYS[i], _WEEKDAYS[j]
            if len(samples[a]) >= 5 and len(samples[b]) >= 5:
                analysis.ks_results[(a, b)] = ks_two_sample(
                    samples[a], samples[b]
                )
    return analysis


def build_figure2_table(enriched: EnrichedDataset) -> Table:
    """Figure 2 rendered as per-weekday counts and median send times."""
    analysis = timestamp_analysis(enriched)
    table = Table(
        title=(
            "Figure 2: Time of day per weekday when smishing is sent "
            f"(n={sum(len(v) for v in analysis.samples.values()):,})"
        ),
        columns=["Weekday", "Messages", "Median Send Time"],
    )
    for day in _WEEKDAYS:
        table.add_row(day, len(analysis.samples[day]), analysis.medians[day])
    if analysis.excluded_campaign_size:
        table.add_note(
            f"removed a flash campaign of {analysis.excluded_campaign_size} "
            "messages sharing one minute (cf. the 2021 SBI campaign)"
        )
    significant = analysis.significant_pairs()
    table.add_note(
        f"{len(significant)} weekday pairs differ significantly "
        "(two-sample KS, p<0.05)"
    )
    return table


# ---------------------------------------------------------------------------
# Table 10: scam categories; Table 11: languages; Table 12: brands.
# ---------------------------------------------------------------------------

def scam_category_counts(enriched: EnrichedDataset) -> Counter:
    counts: Counter = Counter()
    for record in enriched.dataset:
        labels = enriched.labels_for(record)
        if labels is not None:
            counts[labels.scam_type] += 1
    return counts


def scam_language_top(
    enriched: EnrichedDataset, scam_type: ScamType, top: int = 4,
) -> List[str]:
    counts: Counter = Counter()
    for record in enriched.dataset:
        labels = enriched.labels_for(record)
        if labels is not None and labels.scam_type is scam_type:
            counts[labels.language] += 1
    return [code for code, _ in counts.most_common(top)]


_TABLE10_ORDER = (
    ScamType.BANKING, ScamType.DELIVERY, ScamType.GOVERNMENT,
    ScamType.TELECOM, ScamType.WRONG_NUMBER, ScamType.HEY_MUM_DAD,
    ScamType.OTHERS, ScamType.SPAM,
)


def build_table10(enriched: EnrichedDataset) -> Table:
    """Table 10: scam-category distribution with top languages."""
    counts = scam_category_counts(enriched)
    total = sum(counts.values()) or 1
    table = Table(
        title=f"Table 10: Scam categories (n={total:,})",
        columns=["Scam Category", "Messages", "Top 4 Languages"],
    )
    for scam_type in _TABLE10_ORDER:
        table.add_row(
            scam_type.value,
            format_count_pct(counts.get(scam_type, 0), total),
            ", ".join(scam_language_top(enriched, scam_type)),
        )
    return table


def language_counts(enriched: EnrichedDataset) -> Counter:
    counts: Counter = Counter()
    for record in enriched.dataset:
        labels = enriched.labels_for(record)
        if labels is not None:
            counts[labels.language] += 1
    return counts


def build_table11(
    enriched: EnrichedDataset,
    *,
    top: int = 10,
    languages: Optional[LanguageRegistry] = None,
) -> Table:
    """Table 11: dataset languages vs the world's most-spoken languages."""
    languages = languages or default_languages()
    counts = language_counts(enriched)
    total = sum(counts.values()) or 1
    most_spoken = languages.most_spoken(top)
    table = Table(
        title=f"Table 11: Top languages in smishing messages (n={total:,})",
        columns=["Code", "Messages", "Most Spoken", "Population (m)",
                 "Countries"],
    )
    observed = counts.most_common(top)
    for index in range(max(len(observed), len(most_spoken))):
        code, count = observed[index] if index < len(observed) else ("", 0)
        spoken = most_spoken[index] if index < len(most_spoken) else None
        table.add_row(
            code,
            format_count_pct(count, total) if code else None,
            spoken.name if spoken else None,
            spoken.speakers_millions if spoken else None,
            spoken.country_count if spoken else None,
        )
    return table


def brand_counts(enriched: EnrichedDataset) -> Counter:
    counts: Counter = Counter()
    for record in enriched.dataset:
        labels = enriched.labels_for(record)
        if labels is not None and labels.brand:
            counts[labels.brand] += 1
    return counts


def build_table12(enriched: EnrichedDataset, top: int = 10) -> Table:
    """Table 12: most-impersonated brands."""
    counts = brand_counts(enriched)
    scam_by_brand: Dict[str, Counter] = defaultdict(Counter)
    total = len([
        r for r in enriched.dataset
        if enriched.labels_for(r) is not None
    ]) or 1
    for record in enriched.dataset:
        labels = enriched.labels_for(record)
        if labels is not None and labels.brand:
            scam_by_brand[labels.brand][labels.scam_type] += 1
    table = Table(
        title=f"Table 12: Top brands impersonated (n={total:,})",
        columns=["Brand Name", "Category", "Messages"],
    )
    for brand, count in counts.most_common(top):
        category = scam_by_brand[brand].most_common(1)[0][0]
        table.add_row(brand, category.value, format_count_pct(count, total))
    return table


# ---------------------------------------------------------------------------
# Table 13: lure principles by scam type.
# ---------------------------------------------------------------------------

def lure_scam_matrix(
    enriched: EnrichedDataset, *, presence_threshold: float = 0.10,
) -> Dict[LurePrinciple, Dict[ScamType, bool]]:
    """Which lures each scam type uses in ≥ ``presence_threshold`` of
    its messages — the checkmark matrix of Table 13."""
    lure_counts: Dict[ScamType, Counter] = defaultdict(Counter)
    scam_totals: Counter = Counter()
    for record in enriched.dataset:
        labels = enriched.labels_for(record)
        if labels is None:
            continue
        scam_totals[labels.scam_type] += 1
        for lure in labels.lures:
            lure_counts[labels.scam_type][lure] += 1
    matrix: Dict[LurePrinciple, Dict[ScamType, bool]] = {}
    scam_columns = (
        ScamType.BANKING, ScamType.DELIVERY, ScamType.GOVERNMENT,
        ScamType.TELECOM, ScamType.WRONG_NUMBER, ScamType.HEY_MUM_DAD,
    )
    for lure in LurePrinciple:
        row: Dict[ScamType, bool] = {}
        for scam in scam_columns:
            total = scam_totals.get(scam, 0)
            count = lure_counts[scam].get(lure, 0)
            row[scam] = total > 0 and count / total >= presence_threshold
        matrix[lure] = row
    return matrix


def lure_usage_counts(enriched: EnrichedDataset) -> Counter:
    """Messages using each lure at least once (§5.5 prose numbers)."""
    counts: Counter = Counter()
    for record in enriched.dataset:
        labels = enriched.labels_for(record)
        if labels is None:
            continue
        for lure in labels.lures:
            counts[lure] += 1
    return counts


def build_table13(enriched: EnrichedDataset) -> Table:
    """Table 13: lure principles by scam category (checkmark matrix)."""
    matrix = lure_scam_matrix(enriched)
    scam_columns = (
        ScamType.BANKING, ScamType.DELIVERY, ScamType.GOVERNMENT,
        ScamType.TELECOM, ScamType.WRONG_NUMBER, ScamType.HEY_MUM_DAD,
    )
    table = Table(
        title="Table 13: Lures used to deceive victims, by scam category",
        columns=["Lure"] + [s.short_code for s in scam_columns],
    )
    for lure in LurePrinciple:
        row = [lure.value]
        for scam in scam_columns:
            row.append("x" if matrix[lure][scam] else None)
        table.add_row(*row)
    return table
