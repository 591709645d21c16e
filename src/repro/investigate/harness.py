"""The fleet fingerprint: every observable byte of a finished fleet.

:func:`fleet_fingerprint` renders a finished fleet as one canonical JSON
string, and :func:`charged_calls` reads its charged-call totals. Two
runs are equivalent iff their fingerprints are equal, which is how the
worker-count and kill/resume guarantees are stated and tested; the CLI
prints the fingerprint's digest.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from ..world.scenario import World
from .fleet import FleetReport
from .investigator import FunnelProbe


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
