"""Tests for the §3.4 evaluation, the §6 case study, and anonymisation."""

import pytest

from repro.core.anonymize import (
    build_release,
    save_release,
    scrub_text,
    validate_release,
)
from repro.core.evaluation import evaluate_annotation
from repro.investigate import run_case_study
from repro.types import Forum


class TestEvaluation:
    @pytest.fixture(scope="class")
    def report(self, world, pipeline_run):
        return evaluate_annotation(world, pipeline_run.dataset,
                                   sample_size=150, seed=42)

    def test_sample_size(self, report):
        assert report.sample_size == 150
        assert 0 < report.english_sample_size <= 150

    def test_irr_in_paper_band(self, report):
        # Paper: brands 0.82, scam 0.94, lures 0.85 — near-perfect bands.
        assert report.irr.brands > 0.6
        assert report.irr.scam_types > 0.75
        assert report.irr.lures > 0.6

    def test_model_agreement_in_paper_band(self, report):
        # Paper: brands 0.85, scam 0.93, lures 0.70.
        assert report.model_vs_consensus.brands > 0.6
        assert report.model_vs_consensus.scam_types > 0.75
        assert report.model_vs_consensus.lures > 0.5

    def test_deterministic_under_seed(self, world, pipeline_run, report):
        again = evaluate_annotation(world, pipeline_run.dataset,
                                    sample_size=150, seed=42)
        assert again.irr == report.irr

    def test_different_seed_changes_sample(self, world, pipeline_run, report):
        other = evaluate_annotation(world, pipeline_run.dataset,
                                    sample_size=150, seed=99)
        assert (other.irr != report.irr
                or other.model_vs_consensus != report.model_vs_consensus)


class TestCaseStudy:
    @pytest.fixture(scope="class")
    def study(self, world, pipeline_run):
        return run_case_study(world, pipeline_run.dataset, sample_posts=200)

    def test_sample_from_twitter(self, study, pipeline_run):
        twitter = pipeline_run.dataset.by_forum(Forum.TWITTER)
        assert study.sampled_reports <= min(200, len(twitter))

    def test_urls_investigated(self, study):
        assert 0 < study.investigated_urls <= study.sampled_reports

    def test_some_short_links_dead(self, study):
        # Shortened URLs die fast (§2); a real-time crawl still hits some
        # dead ones because reports lag receipt (35 of 187 URLs here).
        assert 0 < study.dead_short_links <= study.investigated_urls

    def test_apks_found_and_labelled(self, study):
        assert study.apk_downloads > 0
        assert len(study.family_verdicts) == study.apk_downloads

    def test_androzoo_knows_nothing(self, study):
        assert study.androzoo_hits == 0  # §3.3.5: fresh droppers

    def test_smsspy_dominant(self, study):
        distribution = study.family_distribution()
        # With very few samples the family draw is noisy; the dominance
        # claim only holds at Table 19's sample sizes.
        if sum(distribution.values()) >= 5:
            assert study.dominant_family == "SMSspy"

    def test_investigations_recorded(self, study):
        assert len(study.investigations) == study.investigated_urls
        for investigation in study.investigations:
            if investigation.apk is not None:
                assert investigation.android_kind == "apk_download"

    def test_deterministic(self, world, pipeline_run, study):
        again = run_case_study(world, pipeline_run.dataset, sample_posts=200)
        assert again.apk_downloads == study.apk_downloads
        assert again.family_distribution() == study.family_distribution()


class TestScrubText:
    def test_urls_removed(self):
        assert "[URL]" in scrub_text("visit https://evil.com/x now")
        assert "evil.com" not in scrub_text("visit https://evil.com/x now")

    def test_phones_removed(self):
        assert "[PHONE]" in scrub_text("call +44 7700 900123 now")

    def test_emails_removed(self):
        assert "[EMAIL]" in scrub_text("mail me at a.scammer@gmail.com ok")

    def test_names_removed(self):
        assert "[NAME]" in scrub_text("Hi Anna, are we still on?")

    def test_plain_text_unchanged(self):
        text = "your account is locked"
        assert scrub_text(text) == text


class TestRelease:
    @pytest.fixture(scope="class")
    def rows(self, enriched):
        return build_release(enriched)

    def test_row_per_record(self, rows, enriched):
        assert len(rows) == len(enriched.dataset)

    def test_no_pii_survives(self, rows):
        assert validate_release(rows) == []

    def test_sender_classes_valid(self, rows):
        for row in rows:
            assert row.sender_id_class in (None, "phone number", "email",
                                           "alphanumeric")

    def test_hlr_fields_only_for_phones(self, rows):
        for row in rows:
            if row.sender_id_class != "phone number":
                assert row.sender_original_operator is None

    def test_save_release(self, rows, tmp_path):
        path = tmp_path / "release.jsonl"
        written = save_release(rows, path)
        assert written == len(rows)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == written

    def test_save_refuses_pii(self, rows, tmp_path):
        import copy
        bad = copy.deepcopy(rows[:2])
        bad[0].text = "visit https://evil.com/x"
        with pytest.raises(ValueError):
            save_release(bad, tmp_path / "bad.jsonl")

    def test_appendix_c_fields_present(self, rows, tmp_path):
        payload = rows[0].to_json_dict()
        for field in ("sender_id", "sender_id_type",
                      "sender_id_original_mno", "sender_id_origin_country",
                      "text_message", "translated_text_message",
                      "url_shortener", "brand_impersonated",
                      "scam_category", "lure_principles", "language"):
            assert field in payload
