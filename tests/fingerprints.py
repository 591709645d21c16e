"""Shared run-fingerprint helpers for the equivalence test suites.

``fingerprint_run`` serializes a completed
:class:`~repro.core.pipeline.PipelineRun` down to every observable byte
— dataset rows, gaps, limitations, the rendered paper report, meter
snapshots, and the final sim-clock reading — so two runs are equal iff
the JSON strings are equal. Both the worker-count equivalence proof
(``test_exec_equivalence.py``) and the crash/resume kill harness
(``test_checkpoint_equivalence.py``) assert against it.

``canonical_fingerprint`` is the looser sibling that
``test_stream_equivalence.py`` needs: a stream session assigns record
ids epoch by epoch and stamps gaps/limitations with epoch indices, so
byte equality with a batch run only holds after renumbering records in
a content-sorted canonical order (annotation maps remapped to match)
and dropping the stream-only ``epoch`` field. Everything else — row
contents, gap/limitation accounting, and the full rendered paper report
(case study excluded: it actively samples forums, charging meters) —
must still agree exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict
from typing import Dict

from repro.analysis.report import generate_paper_report
from repro.core.dataset import SmishingDataset
from repro.core.enrichment import EnrichedDataset
from repro.core.pipeline import PipelineRun
from repro.obs import NULL_TELEMETRY

#: Wire-level names of every metered enrichment service (the keys of
#: ``EnrichmentServices.meters()``).
SERVICE_NAMES = ("hlr", "whois", "crtsh", "spamhaus-pdns", "ipinfo",
                 "virustotal", "gsb", "openai")


def fingerprint_run(run: PipelineRun) -> str:
    """Every observable byte of a completed run, as canonical JSON."""
    world = run.world
    service_meters = {
        name: meter.snapshot()
        for name, meter in (
            ("hlr", world.hlr.meter), ("whois", world.whois.meter),
            ("crtsh", world.crtsh.meter),
            ("passivedns", world.passivedns.meter),
            ("ipinfo", world.ipinfo.meter),
            ("virustotal", world.virustotal.meter),
            ("gsb", world.gsb.meter),
        )
    }
    forum_meters = {
        forum.value: service.meter.snapshot()
        for forum, service in world.forums.items()
    }
    payload = {
        "rows": [record.to_json_dict() for record in run.annotated_dataset],
        "gaps": [asdict(gap) for gap in run.enriched.gaps],
        "limitations": [asdict(lim) for lim in run.collection.limitations],
        "report": generate_paper_report(run).render(),
        "posts_seen": run.collection.posts_seen,
        "api_errors": list(run.collection.api_errors),
        "service_meters": service_meters,
        "forum_meters": forum_meters,
        "clock_now": world.clock.now,
    }
    return json.dumps(payload, sort_keys=True, default=str)


def _content_key(record) -> str:
    """A record's identity minus its (numbering-dependent) record id."""
    fields = {k: v for k, v in record.to_json_dict().items()
              if k != "record_id"}
    return json.dumps(fields, sort_keys=True, default=str)


def _strip(payload: Dict[str, object], *drop: str) -> str:
    return json.dumps({k: v for k, v in payload.items() if k not in drop},
                      sort_keys=True, default=str)


def canonicalize_run(run: PipelineRun) -> PipelineRun:
    """The same run with records renumbered in content-sorted order.

    Both a batch run and a stream session's ``as_pipeline_run`` view
    pass through here before comparison, so numbering differences (and
    the dataset-order dependence of the §3.4 evaluation sample) cancel
    out while every content difference still shows.
    """
    annotated = sorted(run.annotated_dataset, key=_content_key)
    id_map: Dict[str, str] = {}
    renumbered = []
    for index, record in enumerate(annotated):
        new_id = f"c{index:07d}"
        id_map[record.record_id] = new_id
        renumbered.append(dataclasses.replace(record, record_id=new_id))
    dataset = SmishingDataset(renumbered)
    enr = run.enriched
    annotations = {id_map[rid]: labels
                   for rid, labels in enr.annotations.items()
                   if rid in id_map}
    raw_annotations = {
        id_map[rid]: dataclasses.replace(annotation,
                                         message_id=id_map[rid])
        for rid, annotation in enr.raw_annotations.items()
        if rid in id_map
    }
    enriched = EnrichedDataset(
        dataset=dataset,
        urls=dict(sorted(enr.urls.items())),
        senders=dict(sorted(enr.senders.items())),
        annotations=annotations,
        raw_annotations=raw_annotations,
        gaps=list(enr.gaps),
    )
    return PipelineRun(
        world=run.world, config=run.config, collection=run.collection,
        curation_stats=run.curation_stats, dataset=dataset,
        enriched=enriched, telemetry=NULL_TELEMETRY,
    )


def canonical_fingerprint(run: PipelineRun) -> str:
    """Numbering- and epoch-insensitive fingerprint of a run's results.

    Covers the annotated rows, the gap and limitation ledgers (modulo
    the stream-only ``epoch`` stamp and the ``simulated_at`` clock
    stamp — a stream's clock is legitimately further along by epoch 2),
    and the full rendered paper report minus the case study (it
    actively samples forums and would charge meters during
    fingerprinting).
    """
    canon = canonicalize_run(run)
    payload = {
        "rows": [record.to_json_dict() for record in canon.dataset],
        "gaps": sorted(_strip(asdict(gap), "epoch", "simulated_at")
                       for gap in canon.enriched.gaps),
        "limitations": sorted(_strip(asdict(lim), "epoch", "simulated_at")
                              for lim in canon.collection.limitations),
        "report": generate_paper_report(
            canon, include_case_study=False).render(),
    }
    return json.dumps(payload, sort_keys=True, default=str)


def clean_subset_fingerprint(run: PipelineRun) -> str:
    """Hostile-input differential fingerprint: what the *clean subset*
    of a run's reports determines.

    A hostile world adds reports that the quarantine layer diverts (or
    the parsers drop) before any record is produced, so raw collection
    volumes — and the two collection-volume tables, 1 and 15 — differ
    legitimately. Everything downstream of curation must not: the
    annotated rows, the gap and limitation ledgers, and every
    dataset-derived paper artefact must be byte-identical to the
    ``--hostile none`` run. That is the clean-subset-identical
    guarantee of ``tests/test_hostile_equivalence.py``.
    """
    canon = canonicalize_run(run)
    report = generate_paper_report(canon, include_case_study=False)
    report.tables.pop("table1", None)
    report.tables.pop("table15", None)
    payload = {
        "rows": [record.to_json_dict() for record in canon.dataset],
        "gaps": sorted(_strip(asdict(gap), "epoch", "simulated_at")
                       for gap in canon.enriched.gaps),
        "limitations": sorted(_strip(asdict(lim), "epoch", "simulated_at")
                              for lim in canon.collection.limitations),
        "report": report.render(),
    }
    return json.dumps(payload, sort_keys=True, default=str)


def charged_calls_from_services(services) -> Dict[str, int]:
    """Per-service charged-call totals off a live service battery."""
    return {name: meter.snapshot()["used"]
            for name, meter in services.meters().items()}


def charged_calls_from_telemetry(telemetry) -> Dict[str, int]:
    """Per-service charged-call totals from a batch run's telemetry.

    The batch pipeline builds its own openai endpoint internally, so the
    only place its meter outlives the run is the telemetry's end-of-run
    snapshots; the seven world-owned services ride along under the same
    wire names.
    """
    return {name: telemetry.meter_snapshots[name]["used"]
            for name in SERVICE_NAMES
            if name in telemetry.meter_snapshots}
