"""Investigation harness: build, run and fingerprint a fleet.

Everything the CLI and the equivalence suites share lives here:

* :func:`run_investigation` — scenario → world → pipeline → fleet, with
  optional durability (``invest_dir``), resume, and crash injection.
* :func:`fleet_fingerprint` — every observable byte of a finished fleet
  as one canonical JSON string. Two runs are equivalent iff these
  strings are equal, which is how the worker-count and kill/resume
  guarantees are stated and tested.

The enrichment pipeline always runs clean here: a ``--faults`` profile
shapes the *investigation's* charged phase only, so the dataset under
investigation is identical across fault arms and any fingerprint drift
is attributable to the fleet itself.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Optional

from ..core.pipeline import run_pipeline
from ..exec import ExecutionPolicy
from ..faults import FaultPlan, build_fault_plan
from ..obs import Telemetry
from ..world.scenario import ScenarioConfig, World, build_world
from .fleet import FleetReport, InvestigationFleet
from .investigator import FunnelProbe
from .playbook import get_playbook
from .session import InvestigationSession


@dataclasses.dataclass
class InvestigationOutcome:
    """One finished (or crashed-and-finished) investigation run."""

    report: FleetReport
    world: World
    #: The policy the fleet ran under (a resume's comes from its manifest).
    policy: ExecutionPolicy
    session: Optional[InvestigationSession] = None


def charged_calls(world: World) -> Dict[str, int]:
    """Charged-call totals for the fleet's metered services."""
    return {"virustotal": int(world.virustotal.meter.snapshot()["used"])}


def _probe_row(probe: FunnelProbe) -> Dict[str, Any]:
    return {
        "index": probe.index,
        "record_id": probe.record_id,
        "url": str(probe.original),
        "resolved": str(probe.resolved) if probe.resolved else None,
        "outcome": probe.outcome,
        "funnel_depth": probe.funnel_depth,
        "device_gate": probe.device_gate,
        "pages": list(probe.pages_visited),
        "forms": list(probe.forms_submitted),
        "apk": probe.apk.sha256 if probe.apk else None,
        "steps": [(s.op, s.outcome) for s in probe.steps],
    }


def fleet_fingerprint(report: FleetReport, world: World) -> str:
    """Every observable byte of a finished fleet run, as canonical JSON.

    Probe outcomes, evidence-package content hashes, scan verdicts and
    gaps, AndroZoo hits, per-service charged-call totals, and the final
    simulated clock — the full surface the worker-count and kill/resume
    equivalence guarantees quantify over.
    """
    payload = {
        "playbook": report.playbook,
        "probes": [_probe_row(probe) for probe in report.probes],
        "packages": sorted(
            (package.campaign_id, package.content_sha256())
            for package in report.packages
        ),
        "verdicts": [
            (verdict.sha256, verdict.family, verdict.support)
            for verdict in report.verdicts
        ],
        "scan_gaps": report.scan_gaps,
        "androzoo_hits": report.androzoo_hits,
        "charged": charged_calls(world),
        "clock_now": world.clock.now,
    }
    return json.dumps(payload, sort_keys=True, default=str)


def run_investigation(
    scenario: Optional[ScenarioConfig] = None,
    *,
    playbook: str = "full-funnel",
    sample: Optional[int] = None,
    execution: Optional[ExecutionPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    invest_dir: Optional[Path] = None,
    resume: bool = False,
    commit_every: int = 1,
    telemetry: Optional[Telemetry] = None,
) -> InvestigationOutcome:
    """Scenario → world → pipeline → investigation fleet, end to end.

    With ``invest_dir`` the charged phase commits durably; ``resume``
    reopens a crashed directory (run parameters, the execution policy
    included, come from its manifest, not the arguments). A
    ``CrashPoint("scan", N)`` in ``fault_plan`` injects a crash before
    scan N — it propagates :class:`~repro.errors.SimulatedCrash` after
    the last commit, leaving the directory resumable. ``execution``
    defaults to one serial worker.
    """
    session: Optional[InvestigationSession] = None
    if resume:
        if invest_dir is None:
            raise ValueError("resume requires invest_dir")
        session = InvestigationSession.load(invest_dir)
        scenario = session.scenario
        playbook = session.playbook
        sample = session.sample
        plan = session.fault_plan
        policy = session.policy
    else:
        scenario = scenario or ScenarioConfig()
        plan = fault_plan or build_fault_plan("none")
        policy = execution or ExecutionPolicy()
        if invest_dir is not None:
            session = InvestigationSession.create(
                invest_dir,
                scenario=scenario,
                playbook=playbook,
                sample=sample,
                commit_every=commit_every,
                fault_plan=plan,
                policy=policy,
            )

    world = build_world(scenario)
    run = run_pipeline(world, telemetry=telemetry)
    fleet = InvestigationFleet(
        world, run.dataset,
        playbook=get_playbook(playbook),
        sample=sample,
        workers=policy.workers,
        fault_plan=plan,
        telemetry=telemetry,
    )
    report = fleet.run(session=session)
    return InvestigationOutcome(report=report, world=world, policy=policy,
                                session=session)
