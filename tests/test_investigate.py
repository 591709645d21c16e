"""Tests for the playbook-driven investigation engine (repro.investigate).

Covers the acceptance guarantees end to end:

* playbook validation and the shipped presets,
* §6: ``run_case_study`` (the ``case-study`` preset over the §6 Twitter
  sample) identical, part by part, to a golden dump of every scalar,
  verdict and URL row, its sample draw and the tables it renders,
* worker-count equivalence: serial and process-pool fleets produce the
  same fingerprint, with and without fault profiles,
* evidence-package integrity (verification, tamper detection, on-disk
  round trips),
* durable sessions: kill/resume with zero duplicate charges, through
  the shared differential harness (``tests.differential``).
"""

import dataclasses
import datetime as dt
import json
import os
import random
from pathlib import Path

import pytest

from repro.analysis.malware import build_table19, family_distribution_table
from repro.core.pipeline import run_pipeline
from repro.errors import CheckpointError, ConfigurationError
from repro.exec import ExecutionPolicy
from repro.faults import CrashPoint, build_fault_plan
from repro.investigate import (
    INVESTIGATE_FORMAT_VERSION,
    INVESTIGATE_MANIFEST_NAME,
    CaseStudyReport,
    EvidencePackage,
    InvestigationFleet,
    Playbook,
    PlaybookStep,
    PLAYBOOKS,
    charged_calls,
    fleet_fingerprint,
    fleet_items,
    get_playbook,
    run_case_study,
    verify_package,
    verify_package_dict,
    write_packages,
)
from repro.services.euphony import FamilyVerdict
from repro.stream.persist import SnapshotStore
from repro.types import Forum
from repro.world.scenario import ScenarioConfig, build_world

from tests.differential import INVESTIGATE, baseline, kill_then_resume

#: A small scenario with enough droppers that the charged scan phase
#: actually runs (several unique APK payloads in the §6 sample window).
FLEET_SCENARIO = dict(seed=7, n_campaigns=12, apk_campaign_fraction=0.5)
FLEET_SAMPLE = 80
#: The durable fleet's (scenario, faults, policy) and shape for the
#: differential harness: the default serial policy, no faults.
_FLEET_RUN = (ScenarioConfig(**FLEET_SCENARIO), None, None)
_FLEET_SHAPE = dict(sample=FLEET_SAMPLE)


def _fleet_scenario() -> ScenarioConfig:
    return ScenarioConfig(**FLEET_SCENARIO)


def _fresh_world_and_dataset(config: ScenarioConfig):
    world = build_world(config)
    run = run_pipeline(world)
    return world, run.dataset


def _fleet_run(**kwargs):
    fleet = InvestigationFleet.create(_fleet_scenario(), sample=FLEET_SAMPLE,
                                      **kwargs)
    return fleet.run(), fleet.world


def _store(directory) -> SnapshotStore:
    """The snapshot store a durable fleet commits to."""
    return SnapshotStore(directory, INVESTIGATE_MANIFEST_NAME,
                         INVESTIGATE_FORMAT_VERSION)


@pytest.fixture(scope="module")
def serial_fleet():
    """One serial full-funnel fleet, shared by the read-only tests."""
    return _fleet_run()


class TestPlaybooks:
    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            PlaybookStep.make("steal_cookies")

    def test_empty_playbook_rejected(self):
        with pytest.raises(ConfigurationError):
            Playbook(name="hollow", description="no steps")

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_playbook("no-such-playbook")
        for name in sorted(PLAYBOOKS):
            assert name in str(excinfo.value)

    def test_case_study_preset_is_the_section6_protocol(self):
        steps = get_playbook("case-study").steps
        assert [s.op for s in steps] == [
            "resolve_shortener", "check_dns", "fetch", "fetch",
            "download_payload", "hash_and_scan",
        ]
        assert steps[2].param("device") == "desktop"
        assert steps[3].param("device") == "android"

    def test_full_funnel_preset_adds_funnel_navigation(self):
        playbook = get_playbook("full-funnel")
        ops = [step.op for step in playbook.steps]
        assert "follow_redirects" in ops
        assert "submit_form" in ops
        submit = next(s for s in playbook.steps if s.op == "submit_form")
        assert submit.param("pii") == "synthetic"

    def test_step_and_playbook_round_trip(self):
        step = PlaybookStep.make("fetch", device="android")
        assert step.param("device") == "android"
        assert step.param("missing", "fallback") == "fallback"


CASE_STUDY_GOLDEN = (Path(__file__).parent / "golden"
                     / "casestudy_seed7_apk.json")
#: Posts §6 samples; the fleet scenario has more dated Twitter records
#: than this, so the seeded draw (not the take-all branch) is pinned.
CASE_STUDY_POSTS = 200


def _case_study_dump(study, world) -> str:
    """Canonical JSON of one §6 run: every scalar, every verdict, one
    row per URL with every field and hop, and what the run charged."""

    def url(value):
        return None if value is None else str(value)

    rows = [
        {
            "original": str(inv.original),
            "resolved": url(inv.resolved),
            "shortener": inv.shortener,
            "shortener_dead": inv.shortener_dead,
            "nxdomain": inv.nxdomain,
            "desktop_kind": inv.desktop_kind,
            "android_kind": inv.android_kind,
            "apk": dataclasses.asdict(inv.apk) if inv.apk else None,
            "chain": ([str(hop) for hop in inv.chain]
                      if inv.chain is not None else None),
        }
        for inv in study.investigations
    ]
    return json.dumps({
        "sampled_reports": study.sampled_reports,
        "investigated_urls": study.investigated_urls,
        "dead_short_links": study.dead_short_links,
        "apk_downloads": study.apk_downloads,
        "androzoo_hits": study.androzoo_hits,
        "family_verdicts": [
            [v.sha256, v.family, v.support, v.total_labels]
            for v in study.family_verdicts
        ],
        "investigations": rows,
        "virustotal_used": world.virustotal.meter.used,
        "clock": world.clock.now,
    }, indent=1, sort_keys=True) + "\n"


class TestCaseStudyIdentity:
    """§6 at the fleet scenario must be identical to its golden dump.

    Each test compares one part of ``run_case_study``'s output with
    ``casestudy_seed7_apk.json``. Regenerate after an intentional change
    with ``REPRO_UPDATE_GOLDEN=1`` and review the diff like any other
    code change.
    """

    @pytest.fixture(scope="class")
    def study(self):
        world, dataset = _fresh_world_and_dataset(_fleet_scenario())
        report = run_case_study(world, dataset,
                                sample_posts=CASE_STUDY_POSTS)
        return report, world, dataset

    @pytest.fixture(scope="class")
    def dumps(self, study):
        """The run's dump and the golden's, both parsed."""
        report, world, _ = study
        output = _case_study_dump(report, world)
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            CASE_STUDY_GOLDEN.write_text(output, encoding="utf-8")
            pytest.skip(f"updated golden {CASE_STUDY_GOLDEN.name}")
        golden = json.loads(CASE_STUDY_GOLDEN.read_text(encoding="utf-8"))
        return json.loads(output), golden

    def test_scalar_fields_match(self, dumps):
        actual, golden = dumps
        assert actual.keys() == golden.keys()
        for key in ("sampled_reports", "investigated_urls",
                    "dead_short_links", "apk_downloads", "androzoo_hits"):
            assert actual[key] == golden[key], key

    def test_verdicts_and_investigations_match(self, dumps):
        actual, golden = dumps
        assert actual["family_verdicts"] == golden["family_verdicts"]
        assert len(actual["investigations"]) == \
            len(golden["investigations"])
        for index, (row, pinned) in enumerate(
                zip(actual["investigations"], golden["investigations"])):
            assert row == pinned, f"URL row {index} diverged"

    def test_tables_render_identically(self, study, dumps):
        # Table 19 and the family table read only the scalars and the
        # verdicts, so a report rebuilt from the golden must render
        # the live run's text.
        report, _, _ = study
        _, golden = dumps
        pinned = CaseStudyReport(
            sampled_reports=golden["sampled_reports"],
            investigated_urls=golden["investigated_urls"],
            dead_short_links=golden["dead_short_links"],
            apk_downloads=golden["apk_downloads"],
            androzoo_hits=golden["androzoo_hits"],
            family_verdicts=[FamilyVerdict(*row)
                             for row in golden["family_verdicts"]],
        )
        assert build_table19(report).to_text() == \
            build_table19(pinned).to_text()
        assert family_distribution_table(report).to_text() == \
            family_distribution_table(pinned).to_text()

    def test_charged_calls_match(self, study, dumps):
        _, world, _ = study
        actual, golden = dumps
        assert charged_calls(world) == \
            {"virustotal": golden["virustotal_used"]}
        assert actual["virustotal_used"] == golden["virustotal_used"]
        assert actual["clock"] == golden["clock"]

    def test_sampling_protocol_is_exact(self, study, dumps):
        # §6 draws its reports with a seeded Random(6) over the dated
        # Twitter records and follows their URLs in draw order.
        report, _, dataset = study
        _, golden = dumps
        dated = [record for record in dataset.by_forum(Forum.TWITTER)
                 if record.collected_at is not None]
        assert len(dated) > CASE_STUDY_POSTS
        sample = random.Random(6).sample(dated, CASE_STUDY_POSTS)
        urls = [str(record.url) for record in sample
                if record.url is not None]
        assert report.sampled_reports == len(sample) == \
            golden["sampled_reports"]
        assert [str(inv.original) for inv in report.investigations] == urls
        assert [row["original"] for row in golden["investigations"]] == urls

    def test_golden_covers_every_outcome(self, study):
        report, _, _ = study
        assert {probe.outcome for probe in report.investigations} == {
            "shortener_dead", "nxdomain", "dead_host", "phishing_page",
            "apk_download",
        }
        assert report.family_verdicts, "no VirusTotal verdict is pinned"


class TestFleetItems:
    def test_items_are_url_bearing_and_dated(self, serial_fleet):
        report, world = serial_fleet
        _, dataset = _fresh_world_and_dataset(_fleet_scenario())
        items = fleet_items(dataset)
        assert items, "scenario produced no investigable records"
        assert [item.index for item in items] == list(range(len(items)))
        by_id = {record.record_id: record for record in dataset.records}
        for item in items:
            record = by_id[item.record_id]
            assert record.url is not None
            assert isinstance(item.on, dt.date)

    def test_sample_keeps_a_prefix(self):
        _, dataset = _fresh_world_and_dataset(_fleet_scenario())
        full = fleet_items(dataset)
        sampled = fleet_items(dataset, sample=5)
        assert sampled == full[:5]


class TestFleetEquivalence:
    """Fingerprints must not depend on the worker count."""

    def test_serial_fleet_exercises_the_charged_phase(self, serial_fleet):
        report, world = serial_fleet
        assert report.payloads, (
            "fleet scenario must yield payloads or the equivalence "
            "tests prove nothing about the charged phase"
        )
        assert charged_calls(world)["virustotal"] > 0
        assert len(report.verdicts) + report.scan_gaps == \
            len(report.payloads)

    @pytest.mark.parametrize("workers", [1, 4],
                             ids=["serial-1", "process-4"])
    def test_pool_matrix_matches_serial(self, serial_fleet, workers):
        base_report, base_world = serial_fleet
        report, world = _fleet_run(
            execution=ExecutionPolicy(workers=workers))
        assert report.stats()["pool"] == {
            "kind": "ProcessPool" if workers > 1 else "SerialPool",
            "workers": workers}
        assert fleet_fingerprint(report, world) == \
            fleet_fingerprint(base_report, base_world)

    def test_fault_profile_matches_across_pools(self):
        plans = [build_fault_plan("flaky", seed=0) for _ in range(2)]
        serial_report, serial_world = _fleet_run(fault_plan=plans[0])
        pooled_report, pooled_world = _fleet_run(
            fault_plan=plans[1], execution=ExecutionPolicy(workers=4))
        assert fleet_fingerprint(serial_report, serial_world) == \
            fleet_fingerprint(pooled_report, pooled_world)

    def test_report_stats_snapshot_shape(self, serial_fleet):
        report, _ = serial_fleet
        stats = report.stats()
        assert stats["playbook"] == "full-funnel"
        assert stats["investigated"] == len(report.probes)
        assert stats["evidence_packages"] == len(report.packages)
        assert stats["scans_completed"] == len(report.verdicts)
        assert stats["pool"] == {"kind": "SerialPool", "workers": 1}
        assert sum(stats["outcomes"].values()) == stats["investigated"]
        steps = stats["steps"]
        assert list(steps) == sorted(steps)
        assert all(count > 0 for count in steps.values())
        assert sum(steps.values()) == sum(len(probe.steps)
                                          for probe in report.probes)

    def test_every_probe_outcome_is_classified(self, serial_fleet):
        report, _ = serial_fleet
        known = {
            "shortener_dead", "nxdomain", "dead_host", "apk_download",
            "pii_harvested", "credentials_harvested", "device_gated",
            "phishing_page",
        }
        assert set(report.outcomes) <= known


class TestEvidencePackages:
    def test_all_packages_verify(self, serial_fleet):
        report, _ = serial_fleet
        assert report.packages
        for package in report.packages:
            assert verify_package(package)
            assert verify_package_dict(package.to_dict())

    def test_custody_sequences_are_gapless(self, serial_fleet):
        report, _ = serial_fleet
        for package in report.packages:
            sequences = [entry.sequence for entry in package.custody]
            assert sequences == list(range(len(sequences)))

    def test_charged_steps_are_flagged_in_custody(self, serial_fleet):
        report, world = serial_fleet
        charged = sum(
            1 for package in report.packages
            for entry in package.custody if entry.charged_service
        )
        assert charged == len(report.verdicts)

    def test_tampered_finding_is_detected(self, serial_fleet):
        report, _ = serial_fleet
        source = next(p for p in report.packages if p.findings)
        package = EvidencePackage(
            campaign_id=source.campaign_id,
            findings=[dict(f) for f in source.findings],
            custody=list(source.custody),
        )
        manifest = package.manifest()
        assert verify_package(package, manifest)
        package.findings[0]["type"] = "doctored"
        assert not verify_package(package, manifest)

    def test_tampered_serialised_body_is_detected(self, serial_fleet):
        report, _ = serial_fleet
        data = next(p for p in report.packages if p.findings).to_dict()
        assert verify_package_dict(data)
        data["body"]["campaign_id"] = "someone-else"
        assert not verify_package_dict(data)
        assert not verify_package_dict({"manifest": {}, "body": None})

    def test_write_packages_round_trips(self, serial_fleet, tmp_path):
        import json

        report, _ = serial_fleet
        manifest_path = write_packages(tmp_path, report.packages)
        index = json.loads(manifest_path.read_text())
        assert len(index["packages"]) == len(report.packages)
        for entry in index["packages"]:
            data = json.loads((tmp_path / entry["file"]).read_text())
            assert verify_package_dict(data)
            assert data["manifest"]["content_sha256"] == \
                entry["content_sha256"]


class TestDurableSessions:
    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        base = baseline(INVESTIGATE, *_FLEET_RUN, **_FLEET_SHAPE)
        assert len(base.report.payloads) >= 2, (
            "need at least two payloads so a kill can land between scans"
        )
        resumed = kill_then_resume(INVESTIGATE, tmp_path / "sess",
                                   *_FLEET_RUN, kill=CrashPoint("scan", 1),
                                   **_FLEET_SHAPE)
        assert fleet_fingerprint(resumed.report, resumed.world) == \
            fleet_fingerprint(base.report, base.world)
        # Zero duplicate charges: crash + resume spend exactly what one
        # uninterrupted run spends.
        assert INVESTIGATE.charged(resumed) == INVESTIGATE.charged(base)
        # The last commit holds every scan, in sorted-hash order.
        _, payload = _store(tmp_path / "sess").load()
        assert [sha for sha, _, _ in payload["scan_results"]] == \
            sorted(base.report.payloads)

    @pytest.mark.parametrize("profile", ["flaky", "outage"])
    def test_faulted_kill_and_resume_matches_uninterrupted(self, tmp_path,
                                                           profile):
        """A fault profile wraps VirusTotal in a proxy whose call counter
        the commit holds: the resumed fleet must restore it to fault the
        calls the uninterrupted run faults."""
        run = (_fleet_scenario(), build_fault_plan(profile, seed=7), None)
        base = baseline(INVESTIGATE, *run, **_FLEET_SHAPE)
        resumed = kill_then_resume(INVESTIGATE, tmp_path / "sess", *run,
                                   kill=CrashPoint("scan", 1),
                                   **_FLEET_SHAPE)
        assert INVESTIGATE.fingerprint(resumed) == \
            INVESTIGATE.fingerprint(base)
        assert INVESTIGATE.charged(resumed) == INVESTIGATE.charged(base)
        # The profile bites: retried or unanswered scans charge more
        # than one call per payload.
        assert INVESTIGATE.charged(base)["virustotal"] > \
            len(base.report.payloads)

    def test_resume_takes_its_policy_from_the_manifest(self, tmp_path):
        policy = ExecutionPolicy(workers=2)
        scenario, faults, _ = _FLEET_RUN
        resumed = kill_then_resume(INVESTIGATE, tmp_path / "sess", scenario,
                                   faults, policy,
                                   kill=CrashPoint("scan", 1),
                                   **_FLEET_SHAPE)
        assert resumed.policy == policy

    def test_kill_that_never_fires_is_an_error(self, tmp_path):
        with pytest.raises(AssertionError, match="never fired"):
            kill_then_resume(INVESTIGATE, tmp_path / "sess", *_FLEET_RUN,
                             kill=CrashPoint("scan", 10_000),
                             **_FLEET_SHAPE)

    def test_create_refuses_existing_session(self, tmp_path):
        directory = tmp_path / "sess"
        InvestigationFleet.create(_fleet_scenario(), sample=FLEET_SAMPLE,
                                  invest_dir=directory)
        with pytest.raises(ConfigurationError):
            InvestigationFleet.create(_fleet_scenario(), sample=FLEET_SAMPLE,
                                      invest_dir=directory)

    def test_load_requires_a_manifest(self, tmp_path):
        with pytest.raises(CheckpointError):
            InvestigationFleet.load(tmp_path / "nothing-here")

    def test_restore_rejects_foreign_state(self, tmp_path):
        directory = tmp_path / "sess"
        InvestigationFleet.create(_fleet_scenario(), sample=FLEET_SAMPLE,
                                  invest_dir=directory)
        store = _store(directory)
        manifest, _ = store.load()
        store.commit({"scan_results": [],
                      "registry": {"meter:weird-service": {}}}, manifest)
        fleet = InvestigationFleet.load(directory)
        with pytest.raises(CheckpointError, match="weird-service"):
            fleet.run()

    def test_registry_keys_cover_both_shapes(self, tmp_path):
        """The registry a durable fleet commits: the clock and
        VirusTotal's meter and breaker, plus its fault proxy when a
        fault profile wraps the service."""
        plain = {"clock", "meter:virustotal", "breaker:virustotal"}
        for profile, keys in (("none", plain),
                              ("flaky", plain | {"proxy:virustotal"})):
            directory = tmp_path / profile
            INVESTIGATE.start(_fleet_scenario(),
                              build_fault_plan(profile, seed=7), None,
                              directory, **_FLEET_SHAPE)
            _, payload = _store(directory).load()
            assert set(payload["registry"]) == keys
