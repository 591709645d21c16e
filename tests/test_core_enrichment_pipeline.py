"""Tests for enrichment and the end-to-end pipeline run."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import Stages, run_pipeline
from repro.exec import ExecutionPolicy
from repro.services.shorteners import KNOWN_SHORTENERS
from repro.types import GsbStatus, SenderIdKind
from repro.world.infrastructure import FREE_HOSTING_WEIGHTS
from repro.world.scenario import ScenarioConfig, build_world


class TestSenderEnrichment:
    def test_unique_senders_enriched(self, pipeline_run, enriched):
        keys = {
            r.sender.normalized for r in pipeline_run.dataset if r.sender
        }
        assert set(enriched.senders) == keys

    def test_phone_senders_have_hlr(self, enriched):
        for sender in enriched.senders.values():
            if sender.kind is SenderIdKind.PHONE_NUMBER:
                assert sender.hlr is not None
            else:
                assert sender.hlr is None

    def test_hlr_matches_world_ledger(self, world, enriched):
        checked = 0
        for sender in enriched.senders.values():
            if sender.hlr is None:
                continue
            issued = world.ledger.lookup(sender.normalized.lstrip("+"))
            if issued is not None and issued.original_operator:
                assert sender.hlr.original_operator == \
                    issued.original_operator
                checked += 1
        assert checked > 20


class TestUrlEnrichment:
    def test_unique_urls_enriched(self, pipeline_run, enriched):
        keys = {str(r.url) for r in pipeline_run.dataset if r.url}
        assert set(enriched.urls) == keys

    def test_shorteners_identified(self, enriched):
        short = [e for e in enriched.urls.values() if e.shortener]
        assert short
        for enrichment in short:
            assert enrichment.shortener in KNOWN_SHORTENERS
            # Shortener hosts are not sent to WHOIS/crt.sh (§3.3.3).
            assert enrichment.whois is None
            assert enrichment.certificates is None

    def test_direct_urls_get_tld_and_class(self, enriched):
        for enrichment in enriched.urls.values():
            if enrichment.shortener is None and not enrichment.is_whatsapp:
                assert enrichment.effective_tld
                assert enrichment.tld_class is not None

    def test_free_hosting_has_no_registrar(self, enriched):
        for enrichment in enriched.urls.values():
            if enrichment.effective_tld in FREE_HOSTING_WEIGHTS:
                assert enrichment.whois is None or \
                    enrichment.whois.registrar is None

    def test_vt_report_for_every_url(self, enriched):
        for enrichment in enriched.urls.values():
            assert enrichment.vt_report is not None
            assert enrichment.gsb_api is not None

    def test_gsb_transparency_half_not_queried(self, enriched):
        statuses = [e.gsb_transparency for e in enriched.urls.values()]
        blocked = sum(1 for s in statuses if s is GsbStatus.NOT_QUERIED)
        assert 0.3 < blocked / len(statuses) < 0.7

    def test_pdns_addresses_imply_ipinfo(self, enriched):
        for enrichment in enriched.urls.values():
            if enrichment.pdns_addresses:
                assert len(enrichment.ip_info) == \
                    len(set(a.value for a in enrichment.pdns_addresses))


class TestAnnotations:
    def test_every_record_annotated(self, pipeline_run, enriched):
        for record in pipeline_run.dataset:
            assert enriched.labels_for(record) is not None

    def test_annotated_dataset_view(self, enriched):
        annotated = enriched.annotated_dataset()
        assert all(r.annotations is not None for r in annotated)

    def test_scam_type_accuracy_against_truth(self, world, pipeline_run,
                                              enriched):
        good = total = 0
        for record in pipeline_run.dataset:
            event = (world.event(record.truth_event_id)
                     if record.truth_event_id else None)
            if event is None:
                continue
            labels = enriched.labels_for(record)
            total += 1
            if labels.scam_type is event.scam_type:
                good += 1
        assert total > 300
        assert good / total > 0.75  # GPT-4o-level agreement (§3.4)

    def test_language_accuracy_against_truth(self, world, pipeline_run,
                                             enriched):
        good = total = 0
        for record in pipeline_run.dataset:
            event = (world.event(record.truth_event_id)
                     if record.truth_event_id else None)
            if event is None:
                continue
            labels = enriched.labels_for(record)
            total += 1
            if labels.language == event.language:
                good += 1
        assert good / total > 0.8


class TestPipelineRun:
    def test_run_is_reproducible(self, world, pipeline_run):
        from repro.core.pipeline import run_pipeline
        second = run_pipeline(world)
        assert len(second.dataset) == len(pipeline_run.dataset)
        assert second.dataset[0].text == pipeline_run.dataset[0].text

    def test_funnel_sane(self, pipeline_run):
        assert len(pipeline_run.collection.reports) > len(pipeline_run.dataset)
        assert len(pipeline_run.dataset) > 100

    def test_unique_leq_total(self, pipeline_run):
        dataset = pipeline_run.dataset
        assert len(dataset.unique_messages()) <= len(dataset)
        assert len(dataset.unique_senders()) <= len(dataset)


def _virustotal_lookups(*, annotate_only=False, know_every_url=False):
    """Enrich a fresh small world's dataset through ``Stages.enrich``
    with a cache; return the unique URL count and the cache's
    virustotal ``[hits, misses, stores]``."""
    world = build_world(ScenarioConfig(seed=7, n_campaigns=3))
    dataset = run_pipeline(world).dataset
    urls = {str(record.url) for record in dataset if record.url is not None}
    assert urls, "the world must carry URLs or the test proves nothing"
    stages = Stages(world, PipelineConfig(), ExecutionPolicy(), None)
    with stages.running():
        stages.enrich(dataset, stages.services, annotate_only=annotate_only,
                      known_urls=urls if know_every_url else ())
    services = stages.cache.stats()["services"]
    assert services["openai"]["misses"] > 0  # the precompute ran
    counts = services.get("virustotal", {})
    return len(urls), [counts.get(key, 0)
                       for key in ("hits", "misses", "stores")]


class TestPrecomputeLookups:
    """The precompute looks a URL up only when the replay scans it."""

    def test_every_unique_url_is_looked_up_once(self):
        unique, counts = _virustotal_lookups()
        assert counts == [0, unique, unique]

    def test_annotate_only_looks_up_no_url(self):
        _, counts = _virustotal_lookups(annotate_only=True)
        assert counts == [0, 0, 0]

    def test_known_urls_are_not_looked_up(self):
        _, counts = _virustotal_lookups(know_every_url=True)
        assert counts == [0, 0, 0]
