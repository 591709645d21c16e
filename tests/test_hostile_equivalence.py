"""Differential harness for the hostile-input hardening guarantee.

The quarantine layer's headline contract, proven three ways:

* **No crash**: for every hostile profile × worker count, the pipeline
  completes without an uncaught exception.
* **Exact accounting**: every collected report lands in exactly one of
  three buckets — ``reports_curated + quarantined + reports_dropped ==
  reports_in`` — and the structured :class:`QuarantineRecord` ledger
  matches the counter.
* **Clean-subset identity**: the records built from the *clean* reports
  of a hostile run are byte-identical to the ``--hostile none`` run —
  same rows, same gap/limitation ledgers, same dataset-derived paper
  tables (only the collection-volume tables 1/15 legitimately move) —
  and the enrichment meters charge the same totals, because hostile
  reports are diverted before they can buy anything.

Plus the satellite regressions: adversarial-pack determinism, per-reason
sanitizer units, the ``CorruptPayload`` fault rule, the serve-path
quarantine smoke (hostile spikes must push the degradation controller,
then recover), the ``Url.apex`` malformed-host fix, and the curation
timestamp fuzz corpus.
"""

import dataclasses
import datetime as dt

import pytest

from repro.core.collection import RawReport
from repro.core.curation import Curator
from repro.core.pipeline import run_pipeline
from repro.core.quarantine import (
    QUARANTINE_REASONS,
    QuarantineRecord,
    Sanitizer,
    SanitizerLimits,
    quarantine_by_reason,
    stamp_epoch,
)
from repro.exec import SEQUENTIAL, ExecutionPolicy
from repro.faults import CorruptPayload, FaultPlan
from repro.imaging.vision_openai import OpenAiVisionExtractor
from repro.net.url import Url, extract_urls, try_parse_url
from repro.obs import Telemetry
from repro.serve import IntakeService, LoadSpec, ServeConfig
from repro.types import Forum
from repro.utils.rng import derive
from repro.world.adversarial import (
    FLOOD_COPIES,
    FLOOD_REPORTERS,
    POISON_CLUSTER_SIZE,
    generate_hostile_posts,
)
from repro.world.scenario import ScenarioConfig, build_world

from tests.fingerprints import (
    charged_calls_from_telemetry,
    clean_subset_fingerprint,
    fingerprint_run,
)

SEED = 2
_CAMPAIGNS = 10
HOSTILE_PROFILES = ("noisy", "poison")
MATRIX_WORKERS = (1, 4)


def _run(profile: str, policy: ExecutionPolicy):
    """One full pipeline run on a hostile world, with telemetry."""
    world = build_world(ScenarioConfig(
        seed=SEED, n_campaigns=_CAMPAIGNS, hostile=profile))
    telemetry = Telemetry.create(clock=world.clock)
    run = run_pipeline(world, telemetry=telemetry, execution=policy)
    return run


@pytest.fixture(scope="module")
def clean_baseline():
    """The ``--hostile none`` reference arm of every differential."""
    run = _run("none", SEQUENTIAL)
    return {
        "run": run,
        "clean_subset": clean_subset_fingerprint(run),
        "charged": charged_calls_from_telemetry(run.telemetry),
    }


# -- the differential matrix --------------------------------------------------


@pytest.mark.parametrize("profile", HOSTILE_PROFILES)
def test_hostile_matrix_clean_subset_identical(profile, clean_baseline):
    """seeds {2} × hostile {noisy, poison} × workers {1, 4}: zero
    uncaught exceptions, exact three-bucket accounting, the clean-subset
    fingerprint byte-identical to the hostile-free run, and identical
    enrichment meter charges."""
    for workers in MATRIX_WORKERS:
        policy = ExecutionPolicy(workers=workers, cache=True)
        run = _run(profile, policy)
        label = f"hostile={profile} workers={workers}"
        stats = run.curation_stats
        assert stats.reports_in == len(run.collection.reports), label
        assert (stats.reports_curated + stats.quarantined
                + stats.reports_dropped == stats.reports_in), (
            f"{label}: three-bucket accounting broke "
            f"({stats.reports_curated} + {stats.quarantined} + "
            f"{stats.reports_dropped} != {stats.reports_in})")
        assert stats.quarantined > 0, label
        assert len(stats.quarantines) == stats.quarantined, label
        assert clean_subset_fingerprint(run) == \
            clean_baseline["clean_subset"], (
            f"{label}: clean-subset outputs diverged from the "
            f"--hostile none run")
        assert charged_calls_from_telemetry(run.telemetry) == \
            clean_baseline["charged"], (
            f"{label}: hostile reports changed enrichment charges")


def test_hostile_none_quarantines_nothing(clean_baseline):
    """The clean arm of the guarantee: the always-on sanitizer diverts
    zero clean reports, captures nothing in telemetry, and renders no
    Quarantine table — clean output stays byte-identical to pre-hostile
    behaviour."""
    run = clean_baseline["run"]
    stats = run.curation_stats
    assert stats.quarantined == 0
    assert stats.quarantines == []
    assert stats.reports_curated + stats.reports_dropped == stats.reports_in
    assert run.telemetry.quarantine_records == []
    assert "quarantine" not in run.telemetry.to_dict()
    assert "Quarantine" not in run.telemetry.summary()


def test_poison_ledger_captures_coordinated_abuse():
    """Every member of both flood bursts and the poison cluster is
    diverted — not just the copies past the threshold — and the ledger
    mirrors the counters, reason by reason."""
    run = _run("poison", SEQUENTIAL)
    by_reason = quarantine_by_reason(run.curation_stats.quarantines)
    assert by_reason["reporter_flood"] == len(FLOOD_REPORTERS) * FLOOD_COPIES
    assert by_reason["poison_cluster"] == POISON_CLUSTER_SIZE
    for record in run.curation_stats.quarantines:
        assert record.reason in QUARANTINE_REASONS
        assert record.stage == "curation"
        assert record.post_id.startswith("hx")
    flooded = {r.reporter for r in run.curation_stats.quarantines
               if r.reason == "reporter_flood"}
    assert flooded == set(FLOOD_REPORTERS)


def test_rerun_of_hostile_run_is_deterministic():
    first = _run("poison", ExecutionPolicy(workers=4, cache=True))
    second = _run("poison", ExecutionPolicy(workers=4, cache=True))
    assert fingerprint_run(first) == fingerprint_run(second)


# -- the adversarial pack -----------------------------------------------------


class TestAdversarialPack:
    def test_same_seed_same_posts(self):
        first = generate_hostile_posts(11, 800, "poison")
        second = generate_hostile_posts(11, 800, "poison")
        assert first == second

    def test_different_seeds_differ(self):
        assert generate_hostile_posts(11, 800, "poison") != \
            generate_hostile_posts(12, 800, "poison")

    def test_none_profile_is_empty(self):
        assert generate_hostile_posts(11, 800, "none") == []

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            generate_hostile_posts(11, 800, "zalgo")

    def test_posts_avoid_twitter_and_carry_no_attachments(self):
        """Twitter files volume-derived shutdown limitations and
        attachments draw from the vision RNG stream — hostile posts
        must perturb neither."""
        posts = generate_hostile_posts(7, 1600, "poison")
        assert posts
        for post in posts:
            assert post.forum is not Forum.TWITTER
            assert not post.attachments
            assert post.post_id.startswith("hx")

    def test_poison_extends_noisy(self):
        noisy = generate_hostile_posts(7, 1600, "noisy")
        poison = generate_hostile_posts(7, 1600, "poison")
        assert len(poison) == (len(noisy)
                               + len(FLOOD_REPORTERS) * FLOOD_COPIES
                               + POISON_CLUSTER_SIZE)
        assert poison[:len(noisy)] == noisy


# -- the sanitizer, reason by reason ------------------------------------------


def _report(body="Scam text: pay at fee.example.com", *, forum=Forum.SMISHTANK,
            author="reporter-1", structured=None, post_id="p1",
            screenshots=()):
    return RawReport(
        forum=forum, post_id=post_id, author=author,
        posted_at=dt.datetime(2022, 9, 1, 12, 0), body=body,
        screenshots=list(screenshots), structured=structured)


class TestSanitizerReasons:
    def _reason(self, report, limits=None):
        verdict = Sanitizer(limits).screen(report)
        return verdict.reason if verdict else None

    def test_clean_report_passes(self):
        assert self._reason(_report(structured={
            "timestamp": "2022-09-01 11:55", "sender_id": "+447700900111",
            "text": "Your parcel is waiting: pay at fee.example.com",
            "url": "https://fee.example.com/pay"})) is None

    def test_schema_violation_non_string_body(self):
        assert self._reason(_report(body=b"bytes not text")) == \
            "schema_violation"

    def test_schema_violation_non_string_field(self):
        assert self._reason(_report(structured={"text": 42})) == \
            "schema_violation"

    def test_oversize_body(self):
        assert self._reason(_report(body="x" * 20_000)) == "oversize_body"

    def test_oversize_structured_field(self):
        assert self._reason(_report(structured={
            "text": "y" * 3_000})) == "oversize_body"

    def test_unicode_anomaly(self):
        text = "ver​i‌f‍y" + "‮" * 10 + " your account"
        assert self._reason(_report(structured={"text": text})) == \
            "unicode_anomaly"

    def test_token_budget(self):
        assert self._reason(_report(
            body="claim " + "a" * 2_000 + " now")) == "token_budget"

    def test_malformed_url(self):
        assert self._reason(_report(structured={
            "text": "pay here", "url": "hxxp://phish..example[.]com"})) == \
            "malformed_url"

    def test_defanged_but_recoverable_url_passes(self):
        assert self._reason(_report(structured={
            "text": "pay here", "url": "hxxp://phish[.]example[.]com"})) \
            is None

    def test_invalid_timestamp(self):
        assert self._reason(_report(structured={
            "text": "pay here", "timestamp": "99/99/9999 99:99"})) == \
            "invalid_timestamp"

    def test_out_of_range_timestamp_year(self):
        assert self._reason(_report(structured={
            "text": "pay here", "timestamp": "9999-12-31 23:59:59"})) == \
            "invalid_timestamp"

    def test_reporter_flood_diverts_every_member(self):
        sanitizer = Sanitizer()
        burst = [_report(structured={"text": "same scam text here"},
                         author="flood-bot", post_id=f"p{i}")
                 for i in range(10)]
        sanitizer.observe_batch(burst)
        verdicts = [sanitizer.screen(r) for r in burst]
        assert all(v is not None and v.reason == "reporter_flood"
                   for v in verdicts)

    def test_poison_cluster_diverts_every_member(self):
        sanitizer = Sanitizer()
        cluster = [_report(structured={"text": "paypal.com is totes safe"},
                           author=f"citizen-{i}", post_id=f"p{i}")
                   for i in range(7)]
        sanitizer.observe_batch(cluster)
        verdicts = [sanitizer.screen(r) for r in cluster]
        assert all(v is not None and v.reason == "poison_cluster"
                   for v in verdicts)

    def test_free_text_duplicates_are_not_flood_screened(self):
        """Body-only channels legitimately repeat; only structured
        submissions feed the flood/cluster keys."""
        sanitizer = Sanitizer()
        repeats = [_report(body="got this scam text today", forum=Forum.REDDIT,
                           author="u/prolific", post_id=f"p{i}")
                   for i in range(20)]
        sanitizer.observe_batch(repeats)
        assert all(sanitizer.screen(r) is None for r in repeats)

    def test_counters_latch_without_prescan(self):
        """Serve-style screening (no batch pre-scan): the cumulative
        counters alone must catch a flood once it crosses the
        threshold."""
        sanitizer = Sanitizer(stage="serve")
        verdicts = [sanitizer.screen(
            _report(structured={"text": "same scam text"}, author="drip-bot",
                    post_id=f"p{i}"))
            for i in range(SanitizerLimits().flood_threshold + 2)]
        assert verdicts[0] is None
        flagged = [v for v in verdicts if v is not None]
        # The cross-author cluster threshold (6) trips first, then the
        # same-author flood threshold (8) — either way the drip stops.
        assert flagged
        assert {v.reason for v in flagged} <= {"reporter_flood",
                                               "poison_cluster"}
        assert "reporter_flood" in {v.reason for v in flagged}
        assert all(v.stage == "serve" for v in flagged)

    def test_stamp_epoch(self):
        record = QuarantineRecord(forum=Forum.SMISHTANK, reporter="r",
                                  reason="oversize_body")
        stamped = stamp_epoch([record], 3)
        assert stamped[0].epoch == 3
        assert record.epoch is None  # originals untouched


# -- the CorruptPayload fault rule --------------------------------------------


class TestCorruptPayload:
    SCENARIO = ScenarioConfig(seed=5, n_campaigns=6)

    def _corrupted_run(self):
        world = build_world(self.SCENARIO)
        plan = FaultPlan(seed=5, rules=(
            CorruptPayload(service=Forum.REDDIT.value, rate=0.5),))
        return world, run_pipeline(world, fault_plan=plan,
                                   execution=SEQUENTIAL)

    def test_corruption_is_deterministic_and_charged(self):
        world_a, run_a = self._corrupted_run()
        world_b, run_b = self._corrupted_run()
        assert fingerprint_run(run_a) == fingerprint_run(run_b)
        # The call succeeded and the meter charged — corruption is
        # silent, exactly like a real bad read.
        assert world_a.reddit.meter.snapshot() == \
            world_b.reddit.meter.snapshot()
        assert world_a.reddit.meter.snapshot()["used"] > 0

    def test_collector_receives_mangled_copies(self):
        world, run = self._corrupted_run()
        mangled = [r for r in run.collection.reports
                   if r.forum is Forum.REDDIT and "�" in r.body]
        assert mangled, "rate=0.5 corrupted no Reddit post"
        # ... but the world's own posts were never touched.
        assert not any("�" in post.body
                       for post in world.reddit.all_posts())

    def test_corruption_never_crashes_curation(self):
        _, run = self._corrupted_run()
        stats = run.curation_stats
        assert (stats.reports_curated + stats.quarantined
                + stats.reports_dropped == stats.reports_in)


# -- serve-path quarantine ----------------------------------------------------


def test_serve_hostile_smoke_quarantines_and_recovers():
    """End-to-end intake under a poison world: the sanitizer diverts at
    serve stage, a hostile burst pushes the degradation controller into
    ``degraded`` with an explicit hostile-input reason, and the service
    recovers to drain cleanly."""
    service = IntakeService.create(
        scenario=ScenarioConfig(seed=7, n_campaigns=10, hostile="poison"),
        load=LoadSpec(profile="steady", requests=2000, reporters=500, seed=1),
        config=ServeConfig(queue_capacity=256, batch_size=32),
    )
    service.run()
    stats = service.stats()
    assert stats["quarantined"] > 0
    assert service.state.quarantined == stats["quarantined"]
    reasons = [t.reason for t in service.controller.transitions]
    assert any("hostile-input spike" in reason for reason in reasons)
    # Recovered: nothing left queued and the final mode is healthy.
    assert service.queue.depth == 0
    assert stats["mode"] == "healthy"
    # Accounting survives the serve path: every accepted report was
    # processed or timed out, and quarantines never exceed processing.
    assert stats["accepted"] == stats["processed"] + stats["timed_out"]
    assert 0 < stats["quarantined"] <= stats["processed"]


def test_serve_clean_world_quarantines_nothing():
    service = IntakeService.create(
        scenario=ScenarioConfig(seed=7726, n_campaigns=8),
        load=LoadSpec(profile="steady", requests=300, reporters=60, seed=1),
        config=ServeConfig(queue_capacity=128, batch_size=16),
    )
    service.run()
    assert service.stats()["quarantined"] == 0
    assert not any("hostile" in t.reason
                   for t in service.controller.transitions)


# -- satellite regressions ----------------------------------------------------


class TestMalformedHostRegression:
    """`Url.apex` / `Url.effective_tld` used to let `ValidationError`
    escape for hand-constructed hosts the TLD registry cannot split —
    killing whole analysis passes on one hostile record."""

    def test_apex_falls_back_to_host(self):
        url = Url(scheme="http", host="phish..example")
        assert url.apex == "phish..example"
        assert url.effective_tld == ""

    def test_unknown_tld_host(self):
        url = Url(scheme="https", host="tracker.notatld999")
        assert url.apex == "tracker.notatld999"
        assert url.effective_tld == ""

    def test_malformed_host_paste_never_raises(self):
        paste = ("sms scam report\nsender: +447700900123\n"
                 "message: pay the fee at hxxp://phish..example[.]com "
                 "or t.co..invalid right away")
        assert try_parse_url("hxxp://phish..example[.]com") is None
        urls = extract_urls(paste)
        assert all(isinstance(u.apex, str) for u in urls)


class TestTimestampFuzz:
    """`Curator._parse_timestamp` must turn any garbage into a counted
    parse failure, never an exception (satellite: structured drop
    reasons for broken clocks)."""

    CORPUS = [
        "9999-12-31 23:59:59",
        "0001-01-01 00:00",
        "99/99/9999 99:99",
        "not-a-date-at-all",
        "timestamp: lol",
        "13/13/13 25:61",
        "0/0/0000",
        "2" * 400,
        "␀\x00\x01\x02",
        "🕐🕑🕒",
        "-1-1-1 -1:-1",
        "99999999999999999999-01-01",
        "",
    ]

    @pytest.fixture()
    def curator(self):
        vision = OpenAiVisionExtractor(derive(0, "fuzz-vision"),
                                       miss_rate=0.0)
        return Curator(vision)

    @pytest.mark.parametrize("raw", CORPUS)
    def test_garbage_never_raises(self, curator, raw):
        before = curator.stats.timestamp_parse_failures
        parsed = curator._parse_timestamp(raw, dt.date(2022, 9, 1))
        if parsed is None and raw:
            assert curator.stats.timestamp_parse_failures >= before

    def test_valid_timestamp_still_parses(self, curator):
        parsed = curator._parse_timestamp("2022-08-30 14:22",
                                          dt.date(2022, 9, 1))
        assert parsed is not None and parsed.has_date
