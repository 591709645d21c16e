"""Playbook-driven active investigation of scam funnels (§6, fleet-scale).

The paper's case study (§6) manually followed 200 sampled Twitter URLs
into droppers and credential kits. This package turns that protocol
into engineering:

* :mod:`repro.investigate.playbook` — declarative ordered step lists
  (``resolve_shortener`` → ``check_dns`` → ``fetch(device=…)`` → …)
  with two shipped presets: ``case-study`` (the §6 protocol, verbatim)
  and ``full-funnel`` (adds redirect-following and synthetic-PII form
  submission through multi-page kits). :func:`run_case_study` runs the
  ``case-study`` preset over the §6 Twitter sample.
* :mod:`repro.investigate.investigator` — the interpreter: one pure,
  picklable :class:`Investigator` navigates one URL's funnel and emits
  a :class:`FunnelProbe` (outcome, pages visited, payload, step trace).
* :mod:`repro.investigate.evidence` — per-campaign
  :class:`EvidencePackage`\\ s: structured findings plus a
  chain-of-custody manifest, content-hashed for offline verification.
* :mod:`repro.investigate.fleet` — runs a playbook over every
  URL-bearing record through the standard :mod:`repro.exec` pool with
  the pure-probe/serial-charged-effects split, so results are
  byte-identical for any worker count. An :class:`InvestigationFleet`
  is a session in the shape of a stream or a serve one: ``create`` or
  ``load``, then ``run()``. A durable fleet commits its charged phase,
  so a killed one resumes with zero duplicate charges.
* :mod:`repro.investigate.harness` — the fleet fingerprint that proves
  the worker-count and kill/resume guarantees.
"""

from .evidence import (
    EVIDENCE_FORMAT_VERSION,
    UNATTRIBUTED,
    CustodyEntry,
    EvidencePackage,
    verify_package,
    verify_package_dict,
    write_packages,
)
from .fleet import (
    INVESTIGATE_FORMAT_VERSION,
    INVESTIGATE_MANIFEST_NAME,
    CaseStudyReport,
    FleetItem,
    FleetReport,
    InvestigationFleet,
    ProbeShardTask,
    fleet_items,
    run_case_study,
)
from .harness import charged_calls, fleet_fingerprint
from .investigator import (
    SYNTHETIC_PII,
    FunnelProbe,
    Investigator,
    StepTrace,
)
from .playbook import (
    PLAYBOOKS,
    STEP_OPS,
    Playbook,
    PlaybookStep,
    get_playbook,
)

__all__ = [
    "EVIDENCE_FORMAT_VERSION",
    "INVESTIGATE_FORMAT_VERSION",
    "INVESTIGATE_MANIFEST_NAME",
    "PLAYBOOKS",
    "STEP_OPS",
    "SYNTHETIC_PII",
    "UNATTRIBUTED",
    "CaseStudyReport",
    "CustodyEntry",
    "EvidencePackage",
    "FleetItem",
    "FleetReport",
    "FunnelProbe",
    "InvestigationFleet",
    "Investigator",
    "Playbook",
    "PlaybookStep",
    "ProbeShardTask",
    "StepTrace",
    "charged_calls",
    "fleet_fingerprint",
    "fleet_items",
    "get_playbook",
    "run_case_study",
    "verify_package",
    "verify_package_dict",
    "write_packages",
]
