"""Observable state of a finished serve run: the exactly-once proof kit.

The serve layer's core guarantee is that a killed server, resumed from
its last commit, converges on *byte-identical* observable state to a
server that was never killed — same dataset rows, same annotations,
same gap/rejection ledgers, same per-service charged-call totals, same
final clock. :func:`serve_fingerprint` serialises all of that down to
one canonical JSON string and :func:`charged_calls` reads the charged
totals; the kill/resume differential tests and ``repro serve`` compare
runs through them.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict

from .service import IntakeService


def charged_calls(service: IntakeService) -> Dict[str, int]:
    """Per-service charged-call totals off the live service battery."""
    return {name: int(meter.snapshot()["used"])
            for name, meter in service.services.meters().items()}


def _canon(value: Any) -> Any:
    """Make a value JSON-stable: sets (whose *iteration* order follows
    the per-process hash seed, even when the sets are equal) become
    sorted string lists; containers recurse."""
    if isinstance(value, (set, frozenset)):
        return sorted(str(item) for item in value)
    if isinstance(value, dict):
        return {key: _canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


def serve_fingerprint(service: IntakeService) -> str:
    """Every observable byte of a finished serve run, as canonical JSON.

    Two runs are equivalent iff these strings are equal: dataset rows,
    annotation maps, the structured gap and rejection ledgers, request
    statuses, dedup lineage, meter charges, mode-transition history, the
    latency/queue digests, and the final simulated clock.
    """
    state = service.state
    payload = {
        "rows": [record.to_json_dict() for record in state.records],
        "annotations": {rid: _canon(asdict(labels))
                        for rid, labels in sorted(state.annotations.items())},
        "gaps": [asdict(gap) for gap in state.gaps],
        "rejections": state.rejection_rows(),
        "statuses": dict(sorted(state.statuses.items())),
        "duplicate_of": dict(sorted(state.duplicate_of.items())),
        "charged": charged_calls(service),
        "transitions": [t.to_dict() for t in service.controller.transitions],
        "latency": state.latencies.to_dict(),
        "queue_depths": state.queue_depths.to_dict(),
        "counters": {
            "submitted": state.submitted,
            "accepted": service.admission.accepted,
            "shed": service.shed_total(),
            "processed": state.processed,
            "timed_out": state.timed_out,
            "batches": state.batches,
            "degraded_batches": state.degraded_batches,
        },
        "clock_now": service.clock.now,
    }
    return json.dumps(payload, sort_keys=True, default=str)
