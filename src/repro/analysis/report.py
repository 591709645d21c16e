"""Full paper report: regenerate every table and figure in one call."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.evaluation import EvaluationReport, evaluate_annotation
from ..core.pipeline import PipelineRun
from ..investigate import CaseStudyReport, run_case_study
from ..utils.tables import Table
from .detection import build_table9, build_table18
from .domains import build_table6, build_table16, build_table17
from .hosting import build_table8
from .malware import build_table19
from .overview import build_table1, build_table15
from .sender import (
    build_figure3_table,
    build_table3,
    build_table4,
    build_table14,
)
from .shorteners import build_table5
from .strategies import (
    build_figure2_table,
    build_table10,
    build_table11,
    build_table12,
    build_table13,
)
from .tls import build_table7


@dataclass
class PaperReport:
    """Every regenerated artefact, keyed the way the paper numbers them."""

    tables: Dict[str, Table] = field(default_factory=dict)
    case_study: Optional[CaseStudyReport] = None
    evaluation: Optional[EvaluationReport] = None

    def render(self) -> str:
        parts: List[str] = []
        for key in sorted(self.tables, key=_artefact_sort_key):
            parts.append(self.tables[key].to_text())
            parts.append("")
        if self.evaluation is not None:
            ev = self.evaluation
            parts.append(
                "OpenAI evaluation (§3.4): "
                f"IRR brands={ev.irr.brands:.2f} "
                f"scam={ev.irr.scam_types:.2f} lures={ev.irr.lures:.2f}; "
                f"model brands={ev.model_vs_consensus.brands:.2f} "
                f"scam={ev.model_vs_consensus.scam_types:.2f} "
                f"lures={ev.model_vs_consensus.lures:.2f}"
            )
        return "\n".join(parts)


def _artefact_sort_key(key: str):
    prefix = 0 if key.startswith("table") else 1
    digits = "".join(ch for ch in key if ch.isdigit())
    return (prefix, int(digits) if digits else 0, key)


def generate_paper_report(
    run: PipelineRun,
    *,
    include_case_study: bool = True,
    include_evaluation: bool = True,
    case_study_posts: int = 200,
) -> PaperReport:
    """Build every table and figure from one pipeline run."""
    enriched = run.enriched
    report = PaperReport()
    report.tables["table1"] = build_table1(run.collection, run.dataset)
    report.tables["table3"] = build_table3(enriched)
    report.tables["table4"] = build_table4(enriched)
    report.tables["table5"] = build_table5(enriched)
    report.tables["table6"] = build_table6(enriched)
    report.tables["table7"] = build_table7(enriched)
    report.tables["table8"] = build_table8(enriched)
    report.tables["table9"] = build_table9(enriched)
    report.tables["table10"] = build_table10(enriched)
    report.tables["table11"] = build_table11(enriched)
    report.tables["table12"] = build_table12(enriched)
    report.tables["table13"] = build_table13(enriched)
    report.tables["table14"] = build_table14(enriched)
    report.tables["table15"] = build_table15(run.collection)
    report.tables["table16"] = build_table16(enriched)
    report.tables["table17"] = build_table17(enriched)
    report.tables["table18"] = build_table18(enriched)
    report.tables["figure2"] = build_figure2_table(enriched)
    report.tables["figure3"] = build_figure3_table(enriched)
    if include_case_study:
        report.case_study = run_case_study(
            run.world, run.dataset, sample_posts=case_study_posts
        )
        report.tables["table19"] = build_table19(report.case_study)
    if include_evaluation:
        report.evaluation = evaluate_annotation(run.world, run.dataset)
    return report
