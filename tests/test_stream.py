"""Unit and integration tests for :mod:`repro.stream`.

The differential guarantee (N epochs == one batch run) lives in
``test_stream_equivalence.py``; this file covers the moving parts —
epoch planning, watermark cursors, the dedup ledger, atomic persistence
— and the durable session lifecycle: watch, crash, resume, ingest.
"""

import dataclasses
import datetime as dt
import json
import pickle

import pytest

from repro.cli import main
from repro.core.collection import CollectionResult, RawReport
from repro.core.config import CollectionWindows
from repro.core.dataset import SmishingRecord
from repro.errors import CheckpointError, ConfigurationError
from repro.stream import (
    DedupLedger,
    EpochScheduler,
    EpochWindow,
    ForumCursor,
    STREAM_MANIFEST_NAME,
    STREAM_STATE_NAME,
    StreamSession,
    WatermarkStore,
    clamp_windows,
    content_hash,
    global_window,
    plan_epochs,
)
from repro.stream.persist import (
    SnapshotStore,
    atomic_write_json,
    atomic_write_pickle,
    read_json,
    read_pickle,
)
from repro.types import Forum
from repro.world.scenario import ScenarioConfig

from tests.fingerprints import charged_calls_from_services

WINDOWS = CollectionWindows()


# ---------------------------------------------------------------------------
# Epoch planning


class TestEpochPlanning:
    def test_global_window_spans_every_forum(self):
        start, end = global_window(WINDOWS)
        assert start == min(WINDOWS.twitter_historical_start,
                            WINDOWS.reddit_start,
                            WINDOWS.smishing_eu_backlog_start,
                            WINDOWS.smishtank_start)
        assert end == max(WINDOWS.twitter_end, WINDOWS.reddit_end,
                          WINDOWS.smishing_eu_end, WINDOWS.smishtank_end)
        assert start < end

    @pytest.mark.parametrize("epochs", (1, 2, 3, 5, 7))
    def test_plan_epochs_partitions_exactly(self, epochs):
        plan = plan_epochs(WINDOWS, epochs=epochs)
        start, end = global_window(WINDOWS)
        assert len(plan) == epochs
        assert plan[0].start == start
        assert plan[-1].end == end
        for index, window in enumerate(plan):
            assert window.index == index
            assert window.start < window.end
        for left, right in zip(plan, plan[1:]):
            assert left.end == right.start

    def test_plan_epoch_hours_fixed_width_with_remainder(self):
        plan = plan_epochs(WINDOWS, epoch_hours=20000)
        start, end = global_window(WINDOWS)
        step = dt.timedelta(hours=20000)
        assert plan[0].start == start
        assert plan[-1].end == end
        for window in plan[:-1]:
            assert window.end - window.start == step
        assert plan[-1].end - plan[-1].start <= step

    def test_plan_epochs_rejects_bad_sizing(self):
        with pytest.raises(ConfigurationError):
            plan_epochs(WINDOWS, epochs=0)
        with pytest.raises(ConfigurationError):
            plan_epochs(WINDOWS, epoch_hours=0)
        with pytest.raises(ConfigurationError):
            plan_epochs(WINDOWS)

    @pytest.mark.parametrize("epochs", (2, 4, 9))
    def test_clamp_preserves_window_invariants(self, epochs):
        for window in plan_epochs(WINDOWS, epochs=epochs):
            clamped = clamp_windows(WINDOWS, window.start, window.end)
            assert (clamped.twitter_historical_start
                    <= clamped.twitter_realtime_start
                    <= clamped.twitter_end)
            assert clamped.reddit_start <= clamped.reddit_end
            assert clamped.smishing_eu_scrape_start <= clamped.smishing_eu_end
            assert clamped.smishtank_start <= clamped.smishtank_end
            # The backlog marker is history, not a scrape date.
            assert (clamped.smishing_eu_backlog_start
                    == WINDOWS.smishing_eu_backlog_start)

    def test_scheduler_pending_and_extend(self):
        plan = plan_epochs(WINDOWS, epochs=4)
        scheduler = EpochScheduler(plan, target=2)
        assert scheduler.capacity == 4
        assert [w.index for w in scheduler.pending(0)] == [0, 1]
        assert [w.index for w in scheduler.pending(2)] == []
        assert scheduler.extend() == 3
        assert [w.index for w in scheduler.pending(2)] == [2]
        scheduler.extend()
        with pytest.raises(ConfigurationError, match="plan exhausted"):
            scheduler.extend()

    def test_scheduler_rejects_bad_targets(self):
        plan = plan_epochs(WINDOWS, epochs=2)
        with pytest.raises(ConfigurationError):
            EpochScheduler(plan, target=0)
        with pytest.raises(ConfigurationError):
            EpochScheduler(plan, target=3)
        with pytest.raises(ConfigurationError):
            EpochScheduler([], target=1)


# ---------------------------------------------------------------------------
# Watermarks


def _report(post_id: str, when: dt.datetime,
            forum: Forum = Forum.REDDIT) -> RawReport:
    return RawReport(forum=forum, post_id=post_id, author="u",
                     posted_at=when, body=f"body of {post_id}")


_T0 = dt.datetime(2020, 1, 1)
_EPOCH = EpochWindow(index=0, start=_T0, end=_T0 + dt.timedelta(days=30))


class TestWatermarks:
    def test_cursor_advances_monotonically(self):
        cursor = ForumCursor()
        cursor.advance(_report("a", _T0 + dt.timedelta(days=2)))
        cursor.advance(_report("b", _T0 + dt.timedelta(days=1)))
        assert cursor.last_post_id == "a"
        assert cursor.ingested == 2

    def test_filter_partitions_fresh_seen_deferred(self):
        store = WatermarkStore()
        collection = CollectionResult(posts_seen=10)
        collection.reports = [
            _report("fresh", _T0 + dt.timedelta(days=1)),
            _report("backlog", _T0 - dt.timedelta(days=400)),
            _report("future", _EPOCH.end + dt.timedelta(days=1)),
            _report("fresh", _T0 + dt.timedelta(days=2)),  # same post id
        ]
        filtered = store.filter_epoch(collection, _EPOCH)
        assert [r.post_id for r in filtered.result.reports] == [
            "fresh", "backlog"]
        assert filtered.seen_dropped == 1
        assert filtered.deferred == 1
        # Bookkeeping passes through untouched.
        assert filtered.result.posts_seen == 10
        # filter_epoch is pure: nothing is seen until commit.
        assert not store.seen(Forum.REDDIT, "fresh")

        store.commit(filtered, _EPOCH)
        assert store.seen(Forum.REDDIT, "fresh")
        assert store.seen(Forum.REDDIT, "backlog")
        assert store.frontier == _EPOCH.end
        assert store.cursors[Forum.REDDIT].ingested == 2

    def test_resighting_is_dropped_next_epoch(self):
        store = WatermarkStore()
        first = CollectionResult()
        first.reports = [_report("p1", _T0 + dt.timedelta(days=1))]
        store.commit(store.filter_epoch(first, _EPOCH), _EPOCH)

        nxt = EpochWindow(index=1, start=_EPOCH.end,
                          end=_EPOCH.end + dt.timedelta(days=30))
        again = CollectionResult()
        again.reports = [_report("p1", _T0 + dt.timedelta(days=1)),
                         _report("p2", _EPOCH.end + dt.timedelta(days=1))]
        filtered = store.filter_epoch(again, nxt)
        assert [r.post_id for r in filtered.result.reports] == ["p2"]
        assert filtered.seen_dropped == 1

    def test_store_round_trips(self):
        store = WatermarkStore()
        collection = CollectionResult()
        collection.reports = [
            _report("a", _T0 + dt.timedelta(days=3)),
            _report("b", _T0 + dt.timedelta(days=4), Forum.TWITTER),
        ]
        store.commit(store.filter_epoch(collection, _EPOCH), _EPOCH)
        restored = pickle.loads(pickle.dumps(store))
        assert restored.stats() == store.stats()
        assert restored.frontier == store.frontier
        assert restored.seen(Forum.TWITTER, "b")


# ---------------------------------------------------------------------------
# Dedup ledger


def _record(record_id: str, text: str, post_id: str = "p",
            forum: Forum = Forum.REDDIT) -> SmishingRecord:
    return SmishingRecord(record_id=record_id, forum=forum,
                          source_post_id=post_id, text=text)


class TestDedupLedger:
    def test_content_hash_ignores_provenance(self):
        a = _record("r1", "Your parcel is waiting", post_id="x",
                    forum=Forum.REDDIT)
        b = _record("r2", "your  parcel   is WAITING", post_id="y",
                    forum=Forum.TWITTER)
        assert content_hash(a) == content_hash(b)
        assert content_hash(a) != content_hash(_record("r3", "other text"))

    def test_divide_within_epoch(self):
        ledger = DedupLedger()
        division = ledger.divide([
            _record("r1", "msg one"),
            _record("r2", "msg one"),
            _record("r3", "msg two"),
        ])
        assert [r.record_id for r in division.delta] == ["r1", "r3"]
        assert division.duplicate_of == {"r2": "r1"}
        assert ledger.hits == 1 and ledger.misses == 2

    def test_divide_is_pure_until_commit(self):
        ledger = DedupLedger()
        records = [_record("r1", "msg"), _record("r2", "msg")]
        first = ledger.divide(records)
        replay = ledger.divide(records)
        assert [r.record_id for r in replay.delta] == [
            r.record_id for r in first.delta]
        assert replay.duplicate_of == first.duplicate_of
        assert len(ledger) == 0

        ledger.commit(first.new_hashes)
        assert len(ledger) == 1
        cross = ledger.divide([_record("r9", "msg")])
        assert cross.delta == []
        assert cross.duplicate_of == {"r9": "r1"}

    def test_round_trip_and_stats(self):
        ledger = DedupLedger()
        division = ledger.divide([_record("r1", "a"), _record("r2", "a"),
                                  _record("r3", "b")])
        ledger.commit(division.new_hashes)
        stats = ledger.stats()
        assert stats["entries"] == 2
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["hit_rate"] == pytest.approx(1 / 3)
        digest = content_hash(_record("x", "a"))
        assert digest in ledger
        assert ledger.canonical_id(digest) == "r1"


# ---------------------------------------------------------------------------
# Atomic persistence


class TestPersist:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "payload.json"
        path.parent.mkdir()
        atomic_write_json(path, {"b": 1, "a": [2, 3]})
        assert read_json(path) == {"b": 1, "a": [2, 3]}

    def test_pickle_round_trip_verifies_digest(self, tmp_path):
        path = tmp_path / "state.pkl"
        digest = atomic_write_pickle(path, {"k": list(range(5))})
        assert read_pickle(path, expected_sha256=digest) == {
            "k": [0, 1, 2, 3, 4]}

    def test_corrupted_pickle_is_rejected(self, tmp_path):
        path = tmp_path / "state.pkl"
        digest = atomic_write_pickle(path, {"k": 1})
        path.write_bytes(path.read_bytes() + b"tamper")
        with pytest.raises(CheckpointError, match="digest"):
            read_pickle(path, expected_sha256=digest)


    def test_snapshot_store_protocol(self, tmp_path):
        store = SnapshotStore(tmp_path / "sess", "KIND.json", 2)
        store.create({"kind": "x"})
        assert SnapshotStore(store.directory, "KIND.json", 2).load() == (
            {"kind": "x", "version": 2, "state_file": None,
             "state_sha256": None}, None)
        with pytest.raises(ConfigurationError,
                           match=f"`repro resume {store.directory}`"):
            SnapshotStore(store.directory, "KIND.json", 2).create({})
        store.commit({"k": [1, 2]}, {"kind": "y"})
        manifest, payload = SnapshotStore(store.directory, "KIND.json",
                                          2).load()
        assert payload == {"k": [1, 2]}
        assert manifest["state_sha256"] == store.state_sha256
        # Another version (an older INVESTIGATE.json, say) is refused.
        with pytest.raises(CheckpointError, match="version"):
            SnapshotStore(store.directory, "KIND.json", 1).load()
        with pytest.raises(CheckpointError,
                           match=f"^{tmp_path / 'none'} holds no KIND.json$"):
            SnapshotStore(tmp_path / "none", "KIND.json", 2).load()
        state = store.directory / manifest["state_file"]
        state.write_bytes(state.read_bytes() + b"tamper")
        with pytest.raises(CheckpointError, match="digest"):
            store.load()


# ---------------------------------------------------------------------------
# Durable session lifecycle


_SCENARIO = ScenarioConfig(seed=7, n_campaigns=5)


@pytest.fixture(scope="module")
def durable(tmp_path_factory):
    """One durable 2-epoch watch, shared by the lifecycle assertions."""
    stream_dir = tmp_path_factory.mktemp("stream") / "run"
    session = StreamSession.create(_SCENARIO, epochs=2,
                                   stream_dir=str(stream_dir))
    state = session.run()
    return stream_dir, session, state


class TestDurableSession:
    def test_manifest_and_state_files(self, durable):
        stream_dir, session, state = durable
        manifest = json.loads(
            (stream_dir / STREAM_MANIFEST_NAME).read_text())
        assert manifest["committed"] == manifest["target_epochs"] == 2
        assert manifest["scenario"]["seed"] == 7
        assert len(manifest["plan"]) == 2
        assert manifest["state_file"] == STREAM_STATE_NAME
        payload = read_pickle(stream_dir / STREAM_STATE_NAME,
                              expected_sha256=manifest["state_sha256"])
        assert payload["state"].fingerprint() == state.fingerprint()
        # The committed state lives in the pickle alone; the manifest
        # repeats none of it and records no argv.
        assert not {"watermarks", "ledger", "epoch_stats",
                    "next_record_index", "cli"} & set(manifest)

    def test_load_restores_everything(self, durable):
        stream_dir, session, state = durable
        loaded = StreamSession.load(str(stream_dir))
        assert loaded.state.fingerprint() == state.fingerprint()
        assert loaded.state.committed_epochs == 2
        assert len(loaded.ledger) == len(session.ledger)
        assert loaded.watermarks.stats() == session.watermarks.stats()
        # Delta enrichment: prior epochs' cache entries are re-seeded.
        assert loaded.stats()["cache_seeded"] > 0

    def test_epoch_stamps_and_additive_merges(self, durable):
        _, _, state = durable
        assert sum(s.records for s in state.epoch_stats) == len(state.dataset)
        assert sum(s.new_reports for s in state.epoch_stats) \
            == len(state.collection.reports)
        for gap in state.gaps:
            assert gap.epoch in (0, 1)
        for lim in state.collection.limitations:
            assert lim.epoch in (0, 1)
        stamped = {s.index for s in state.epoch_stats}
        assert stamped == {0, 1}

    def test_refuses_to_clobber_existing_stream(self, durable):
        stream_dir, _, _ = durable
        with pytest.raises(ConfigurationError, match="resume"):
            StreamSession.create(_SCENARIO, epochs=2,
                                 stream_dir=str(stream_dir))

    def test_matches_in_memory_session(self, durable):
        _, _, state = durable
        in_memory = StreamSession.create(_SCENARIO, epochs=2).run()
        assert in_memory.fingerprint() == state.fingerprint()


class TestDurablePolicy:
    def test_process_pool_stream_resumes_mid_epoch(self, tmp_path):
        """STREAM.json records the whole execution policy, worker
        count included, so the reloaded session matches its per-epoch
        journal instead of being refused as a different run. (The
        crash point on this plan-less stream leaves a bare plan, which
        encodes as no plan, so the faults match too.)"""
        from repro.exec import ExecutionPolicy
        from repro.faults import CrashPoint
        from tests.differential import STREAM, baseline, kill_then_resume

        run = (_SCENARIO, None, ExecutionPolicy(workers=2))
        resumed = kill_then_resume(STREAM, tmp_path / "run", *run,
                                   kill=CrashPoint("openai", 3), epochs=2)
        base = baseline(STREAM, *run, epochs=2)
        assert resumed.policy == run[2]
        assert STREAM.fingerprint(resumed) == STREAM.fingerprint(base)
        assert STREAM.charged(resumed) == STREAM.charged(base)


class TestTornJournalManifest:
    def test_kill_mid_manifest_write_resumes(self, durable, tmp_path,
                                             monkeypatch):
        """A kill while epoch 1's journal writes its ``MANIFEST.json``
        leaves no half-written manifest behind: the epoch directory then
        holds nothing durable, and the resume restarts the epoch and
        ends where the uninterrupted stream ends."""
        from repro.checkpoint import journal
        from repro.errors import SimulatedCrash

        real_dump = json.dump
        manifests = []

        def dump_half_of_the_second(payload, handle, **options):
            manifests.append(payload)
            if len(manifests) < 2:
                return real_dump(payload, handle, **options)
            rendered = json.dumps(payload, **options)
            handle.write(rendered[:len(rendered) // 2])
            raise SimulatedCrash("killed mid-manifest")

        monkeypatch.setattr(journal.json, "dump", dump_half_of_the_second)
        session = StreamSession.create(_SCENARIO, epochs=2,
                                       stream_dir=tmp_path / "run")
        with pytest.raises(SimulatedCrash):
            session.run()
        monkeypatch.undo()
        assert len(manifests) == 2
        resumed = StreamSession.load(tmp_path / "run")
        assert resumed.state.committed_epochs == 1
        _, _, state = durable
        assert resumed.run().fingerprint() == state.fingerprint()


class TestIngest:
    def test_ingest_pages_forward(self, tmp_path):
        """A session reloaded between epochs pages forward as if it had
        never stopped: ``load`` then ``ingest(1)`` after two epochs ends
        where one uninterrupted 3-epoch session does, in its fingerprint,
        its charged calls and every ``stats()`` entry but the count of
        cache entries the load re-seeded. The fingerprint alone misses a
        load that keeps fresh watermarks or a fresh ledger; ``stats()``
        names both."""
        stream_dir = tmp_path / "run"
        session = StreamSession.create(
            _SCENARIO, epochs=2, epoch_hours=18000,
            stream_dir=str(stream_dir))
        assert session.scheduler.capacity > 2
        first = session.run()
        before = len(first.dataset)

        loaded = StreamSession.load(str(stream_dir))
        state = loaded.ingest(epochs=1)
        assert state.committed_epochs == 3
        assert len(state.dataset) >= before
        manifest = json.loads(
            (stream_dir / STREAM_MANIFEST_NAME).read_text())
        assert manifest["committed"] == manifest["target_epochs"] == 3

        whole = StreamSession.create(_SCENARIO, epochs=3, epoch_hours=18000)
        whole.run()
        assert state.fingerprint() == whole.state.fingerprint()
        assert charged_calls_from_services(loaded.services) \
            == charged_calls_from_services(whole.services)
        resumed_stats, whole_stats = loaded.stats(), whole.stats()
        assert resumed_stats.pop("cache_seeded") > 0
        assert whole_stats.pop("cache_seeded") == 0
        assert resumed_stats == whole_stats

    def test_run_then_ingest_counts_each_source_once(self, tmp_path):
        """Every ``run()`` ends by capturing the session's cache, stream
        and checkpoint snapshots. Those sources count over the whole
        session, so after ``run(); ingest(1)`` in one process each
        snapshot equals its source, and no counter repeats (and so
        double-counts) their totals."""
        from repro.obs import Telemetry

        stream_dir = tmp_path / "run"
        telemetry = Telemetry.create()
        session = StreamSession.create(
            ScenarioConfig(seed=7, n_campaigns=10), epochs=2,
            epoch_hours=18000, stream_dir=str(stream_dir),
            telemetry_factory=lambda world: telemetry)
        session.run()
        session.ingest(1)
        assert telemetry.cache_snapshot == session.stages.cache.stats()
        assert telemetry.cache_snapshot["totals"]["hits"] > 0
        assert telemetry.stream_snapshot == session.stats()
        ledger = telemetry.stream_snapshot["ledger"]
        assert ledger == session.ledger.stats()
        assert ledger["hits"] > 0 and ledger["misses"] > 0
        assert not [counter.name for counter in telemetry.metrics.counters()
                    if counter.name.startswith(
                        ("cache.", "checkpoint.", "stream."))]
        journaled = {"barrier": 0, "lookup": 0}
        for journal in sorted(stream_dir.glob("epochs/*/journal.jsonl")):
            for line in journal.read_text().splitlines():
                kind = json.loads(line)["type"]
                if kind in journaled:
                    journaled[kind] += 1
        assert journaled["barrier"] == 3 * 3  # epoch-start, collection, curation
        checkpoint = telemetry.checkpoint_snapshot
        assert checkpoint["mode"] == "record"
        assert checkpoint["barriers_written"] == journaled["barrier"]
        assert checkpoint["lookups_recorded"] == journaled["lookup"] > 0

    def test_ingest_requires_caught_up_stream(self, tmp_path):
        from repro.errors import SimulatedCrash
        from repro.faults import CrashPoint, FaultPlan

        stream_dir = tmp_path / "run"
        session = StreamSession.create(
            _SCENARIO, epochs=2, stream_dir=str(stream_dir),
            fault_plan=FaultPlan().extended(CrashPoint("whois", 2)))
        with pytest.raises(SimulatedCrash):
            session.run()
        loaded = StreamSession.load(str(stream_dir))
        with pytest.raises(ConfigurationError, match="resume"):
            loaded.ingest()


class TestStreamCli:
    ARGS = ["--seed", "7", "--campaigns", "5", "--quiet"]

    @staticmethod
    def _fingerprint(out: str) -> str:
        lines = [l for l in out.splitlines()
                 if l.startswith("stream fingerprint=")]
        assert len(lines) == 1, out
        return lines[0]

    def test_watch_prints_stream_table(self, capsys):
        assert main(self.ARGS + ["watch", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Stream" in out
        assert "(ledger)" in out
        self._fingerprint(out)

    def test_stats_epochs_mode(self, capsys):
        assert main(self.ARGS + ["stats", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "epochs=2" in out
        assert "Stream" in out

    def test_ingest_cli_pages_forward(self, tmp_path, capsys):
        stream_dir = tmp_path / "run"
        assert main(self.ARGS + [
            "watch", "--epochs", "2", "--epoch-hours", "18000",
            "--run-dir", str(stream_dir)]) == 0
        capsys.readouterr()
        assert main(["ingest", str(stream_dir), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "epochs=3" in out or "Stream" in out

    @pytest.mark.parametrize("kind", ["missing", "serve"])
    def test_ingest_names_what_the_directory_holds(self, kind, tmp_path,
                                                   capsys):
        """`repro ingest` pages a stream forward: it says what a
        directory lacks, and names another kind's run and how to
        finish it, without offering to resume a stream."""
        directory = tmp_path / "run"
        if kind == "serve":
            assert main(self.ARGS + [
                "--run-dir", str(directory), "--kill-at", "arrival:5",
                "serve", "--requests", "40"]) == 75
            capsys.readouterr()
        assert main(["ingest", str(directory)]) == 2
        err = capsys.readouterr().err
        if kind == "missing":
            assert err == f"repro: error: {directory} holds no STREAM.json\n"
        else:
            assert err == (f"repro: error: {directory} holds SERVE.json, "
                           f"not a stream; finish its run with `repro "
                           f"resume {directory}`\n")

    def test_validation_rejects_bad_combinations(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["resume", str(missing)]) == 2
        with pytest.raises(SystemExit) as refused:
            main(["resume"])
        assert refused.value.code == 2
        for stream in (["--epochs", "2"], ["--epoch-hours", "24"]):
            assert main(self.ARGS + ["stats"] + stream + [
                "--run-dir", str(tmp_path / "ckpt")]) == 2
        assert not (tmp_path / "ckpt").exists()
        assert main(["ingest", str(missing)]) == 2
        capsys.readouterr()
