"""Unit tests for the checkpoint subsystem's building blocks.

The differential kill harness (``test_checkpoint_equivalence.py``)
proves the end-to-end guarantee; these tests pin the pieces it rests on:
the value codec, the state registry, journal creation and
corruption recovery, manifest mismatch rejection, and the CLI's early
input validation.
"""

import json
import pickle

import pytest

from repro.checkpoint import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    CheckpointSession,
    CheckpointWarning,
    RunJournal,
    StateRegistry,
    decode_value,
    encode_value,
    resume_pipeline,
)
from repro.cli import main
from repro.core.pipeline import run_pipeline
from repro.errors import (
    CheckpointError,
    CheckpointMismatch,
    ConfigurationError,
    SimulatedCrash,
)
from repro.exec import ExecutionPolicy
from repro.faults import CrashPoint, ErrorRate, FaultPlan, build_fault_plan
from repro.investigate import InvestigationFleet
from repro.serve import IntakeService, LoadSpec
from repro.stream import StreamSession
from repro.world.scenario import ScenarioConfig, build_world

from tests.fingerprints import fingerprint_run


# -- codec: values -------------------------------------------------------------


@pytest.mark.parametrize("value", [
    None,
    42,
    "text",
    {"nested": {"list": [1, 2, 3]}},
    ("a", 1, None),
])
def test_value_codec_round_trips(value):
    assert decode_value(encode_value(value)) == value


def test_value_codec_rejects_garbage():
    with pytest.raises(CheckpointError):
        decode_value({"pickle": "not base64 pickle!!"})
    with pytest.raises(CheckpointError):
        decode_value({})


# -- state registry ------------------------------------------------------------


class _Cell:
    """Minimal restorable object for registry tests."""

    def __init__(self, value):
        self.value = value

    def state_dict(self):
        return {"value": self.value}

    def restore_state(self, state):
        self.value = state["value"]


def test_registry_capture_diff_restore():
    a, b = _Cell(1), _Cell(2)
    registry = StateRegistry()
    registry.register("meter:a", a)
    registry.register("meter:b", b)
    before = registry.capture()
    a.value = 10
    after = registry.capture()
    delta = StateRegistry.diff(before, after)
    assert set(delta) == {"meter:a"}          # only the changed key
    a.value = 99
    registry.restore(after)
    assert (a.value, b.value) == (10, 2)


def test_registry_rejects_objects_without_the_protocol():
    registry = StateRegistry()
    with pytest.raises(CheckpointError):
        registry.register("meter:x", object())


def test_registry_restore_unknown_key():
    registry = StateRegistry()
    registry.register("meter:a", _Cell(1))
    # proxy: keys may legitimately vanish on resume (a --kill-at rule
    # wrapped a service the crash-free resumed plan leaves bare).
    registry.restore({"proxy:ghost": {"calls": 5}})
    with pytest.raises(CheckpointError):
        registry.restore({"meter:ghost": {"value": 5}})


# -- journal creation + recovery -----------------------------------------------


def test_journal_create_rejects_bad_directories(tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("x")
    with pytest.raises(ConfigurationError):
        RunJournal.create(not_a_dir)
    cluttered = tmp_path / "cluttered"
    cluttered.mkdir()
    (cluttered / "stray.txt").write_text("x")
    with pytest.raises(ConfigurationError, match="not empty"):
        RunJournal.create(cluttered)


def test_journal_create_rejects_existing_journal(tmp_path):
    d = tmp_path / "ck"
    d.mkdir()
    (d / MANIFEST_NAME).write_text("{}")
    with pytest.raises(ConfigurationError, match="resume"):
        RunJournal.create(d)


def test_journal_load_requires_manifest(tmp_path):
    with pytest.raises(CheckpointError, match="missing"):
        RunJournal.load(tmp_path)


def test_journal_load_rejects_future_format(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": 999}))
    with pytest.raises(CheckpointError, match="format"):
        RunJournal.load(tmp_path)


def _journal_with_records(tmp_path, n=3):
    journal = RunJournal.create(tmp_path / "ck")
    journal.write_manifest({"scenario": {}})
    for i in range(n):
        journal.append({"type": "lookup", "service": "whois", "field": "f",
                        "subject": f"s{i}", "outcome": "value",
                        "value": encode_value(i), "effects": {}})
    journal.close()
    return journal.directory


def test_journal_recovers_from_a_partial_final_record(tmp_path):
    d = _journal_with_records(tmp_path)
    path = d / JOURNAL_NAME
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])              # torn mid-write
    with pytest.warns(CheckpointWarning, match="partial final record"):
        journal = RunJournal.load(d)
    assert len(journal.records) == 2
    assert journal.recovered
    # The corrupt tail was truncated away: a second load is clean.
    assert len(RunJournal.load(d).records) == 2


def test_journal_recovers_from_a_malformed_record(tmp_path):
    d = _journal_with_records(tmp_path)
    path = d / JOURNAL_NAME
    with open(path, "ab") as handle:
        handle.write(b'{"type": "lookup", not json}\n')
    with pytest.warns(CheckpointWarning, match="malformed"):
        journal = RunJournal.load(d)
    assert len(journal.records) == 3


def test_journal_recovers_from_a_corrupt_snapshot(tmp_path):
    journal = RunJournal.create(tmp_path / "ck")
    journal.write_manifest({"scenario": {}})
    record = journal.write_snapshot("collection.pkl", {"stage": "payload"})
    journal.append({"type": "barrier", "stage": "collection",
                    "state": {}, **record})
    journal.close()
    (journal.directory / "collection.pkl").write_bytes(b"flipped bits")
    with pytest.warns(CheckpointWarning, match="corrupt snapshot"):
        loaded = RunJournal.load(journal.directory)
    assert loaded.records == []              # barrier dropped with snapshot


def test_snapshot_round_trip(tmp_path):
    journal = RunJournal.create(tmp_path / "ck")
    record = journal.write_snapshot("collection.pkl", {"k": [1, 2]})
    assert journal.load_snapshot(record) == {"k": [1, 2]}
    journal.close()


def test_journal_kill_point_raises_after_the_nth_write(tmp_path):
    journal = RunJournal.create(tmp_path / "ck", kill_after_writes=2)
    journal.write_manifest({})
    journal.append({"type": "complete"})
    with pytest.raises(SimulatedCrash):
        journal.append({"type": "complete"})
    # The record itself was durably written before the crash fired.
    assert len((journal.directory / JOURNAL_NAME)
               .read_text().splitlines()) == 2


# -- manifest mismatch ---------------------------------------------------------


_SMALL = ScenarioConfig(seed=5, n_campaigns=3)


def _record_small_run(directory, *, kill_after_writes=None, profile="none"):
    session = CheckpointSession.record(directory,
                                       kill_after_writes=kill_after_writes)
    return run_pipeline(build_world(_SMALL),
                        fault_plan=build_fault_plan(profile, seed=_SMALL.seed),
                        checkpoint=session)


def test_resume_rejects_a_stale_code_version(tmp_path):
    """A journal written by different code must not be replayed.

    (The scenario itself cannot mismatch through ``resume_pipeline`` —
    the resumed world is *built from* the manifest's scenario — so the
    drift detector's job is config/faults/execution/code identity.)"""
    d = tmp_path / "ck"
    _record_small_run(d)
    manifest = json.loads((d / MANIFEST_NAME).read_text())
    manifest["code"] = "0" * 64
    (d / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(CheckpointMismatch, match="code"):
        resume_pipeline(d)


def test_resume_rejects_a_different_fault_plan(tmp_path):
    d = tmp_path / "ck"
    _record_small_run(d, profile="flaky")
    with pytest.raises(CheckpointMismatch, match="faults"):
        resume_pipeline(d, fault_plan=build_fault_plan("outage",
                                                       seed=_SMALL.seed))


def test_resume_refuses_a_hand_built_plan_it_cannot_rebuild(tmp_path):
    """A profile-less plan is not in the manifest's identity; the
    resume must be handed the same plan, and is refused without it."""
    plan = FaultPlan(seed=_SMALL.seed, rules=[ErrorRate("whois", 0.2)])
    session = CheckpointSession.record(tmp_path / "ck")
    with pytest.raises(SimulatedCrash):
        run_pipeline(build_world(_SMALL),
                     fault_plan=plan.extended(CrashPoint("whois", 2)),
                     checkpoint=session)
    with pytest.raises(CheckpointError, match="hand-built"):
        resume_pipeline(tmp_path / "ck")
    resumed = resume_pipeline(tmp_path / "ck", fault_plan=plan)
    assert fingerprint_run(resumed) == fingerprint_run(
        run_pipeline(build_world(_SMALL), fault_plan=plan))


#: Per session kind: start one durable in a directory under a plan,
#: without running it, and the phase its crash points count.
_TINY = ScenarioConfig(seed=7, n_campaigns=4)
_DURABLE_CREATES = {
    "stream": (lambda plan, d: StreamSession.create(
        _TINY, epochs=1, fault_plan=plan, stream_dir=d), "whois"),
    "serve": (lambda plan, d: IntakeService.create(
        _TINY, load=LoadSpec(requests=20, seed=7), fault_plan=plan,
        serve_dir=d), "arrival"),
    "investigate": (lambda plan, d: InvestigationFleet.create(
        _TINY, sample=10, fault_plan=plan, invest_dir=d), "scan"),
}


@pytest.mark.parametrize("kind", sorted(_DURABLE_CREATES))
def test_durable_sessions_refuse_a_hand_built_plan(kind, tmp_path):
    """A session manifest records a fault plan by its profile name, so a
    durable session refuses a profile-less plan it could not rebuild at
    resume time, before writing anything. A crash point grafted onto an
    empty plan injects nothing else, and is accepted."""
    create, phase = _DURABLE_CREATES[kind]
    hand_built = FaultPlan(seed=7, rules=(ErrorRate("virustotal", 0.5),))
    with pytest.raises(ConfigurationError, match="named"):
        create(hand_built, tmp_path / "refused")
    assert not (tmp_path / "refused").exists()
    create(FaultPlan(seed=7).extended(CrashPoint(phase, 0)),
           tmp_path / "grafted")
    assert (tmp_path / "grafted").is_dir()


def test_resume_of_a_completed_run_is_idempotent(tmp_path):
    d = tmp_path / "ck"
    first = _record_small_run(d)
    resumed = resume_pipeline(d)
    assert fingerprint_run(resumed) == fingerprint_run(first)


def test_crash_point_rule_fires_and_is_stripped_on_resume():
    plan = FaultPlan(seed=1, rules=[CrashPoint("whois", 1)])
    with pytest.raises(SimulatedCrash):
        run_pipeline(build_world(_SMALL), fault_plan=plan)
    stripped = plan.without_crash_points()
    assert stripped.rules == ()
    assert stripped.seed == plan.seed


# -- corrupted journal end-to-end (satellite: resume survives torn tails) ------


def test_resume_survives_a_torn_journal_tail(tmp_path):
    baseline = run_pipeline(build_world(_SMALL),
                            fault_plan=build_fault_plan("none",
                                                        seed=_SMALL.seed))
    d = tmp_path / "ck"
    with pytest.raises(SimulatedCrash):
        _record_small_run(d, kill_after_writes=40)
    path = d / JOURNAL_NAME
    path.write_bytes(path.read_bytes()[:-7])     # tear the last record
    with pytest.warns(CheckpointWarning, match="partial final record"):
        resumed = resume_pipeline(d)
    assert fingerprint_run(resumed) == fingerprint_run(baseline)


def test_resume_survives_garbage_appended_to_the_journal(tmp_path):
    baseline = run_pipeline(build_world(_SMALL),
                            fault_plan=build_fault_plan("none",
                                                        seed=_SMALL.seed))
    d = tmp_path / "ck"
    with pytest.raises(SimulatedCrash):
        _record_small_run(d, kill_after_writes=40)
    with open(d / JOURNAL_NAME, "ab") as handle:
        handle.write(b"\x00\xff garbage \xfe\n")
    with pytest.warns(CheckpointWarning):
        resumed = resume_pipeline(d)
    assert fingerprint_run(resumed) == fingerprint_run(baseline)


# -- CLI validation (satellite: fail fast on bad inputs) -----------------------


_CLI = ["--seed", "5", "--campaigns", "3", "--quiet"]


def test_cli_rejects_zero_workers(capsys):
    assert main(_CLI + ["--workers", "0", "stats"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["whois", "whois:", ":5", "whois:x",
                                  "whois:-1"])
def test_cli_rejects_bad_crash_at(spec, capsys):
    assert main(_CLI + ["--kill-at", spec, "stats"]) == 2
    assert "--kill-at" in capsys.readouterr().err


def test_cli_rejects_checkpoint_dir_that_is_a_file(tmp_path, capsys):
    target = tmp_path / "file"
    target.write_text("x")
    assert main(_CLI + ["--run-dir", str(target), "stats"]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_cli_rejects_non_empty_checkpoint_dir(tmp_path, capsys):
    d = tmp_path / "full"
    d.mkdir()
    (d / "stray.txt").write_text("x")
    assert main(_CLI + ["--run-dir", str(d), "stats"]) == 2
    assert "not empty" in capsys.readouterr().err


def test_cli_points_existing_journal_at_resume(tmp_path, capsys):
    d = tmp_path / "ck"
    d.mkdir()
    (d / MANIFEST_NAME).write_text("{}")
    assert main(_CLI + ["--run-dir", str(d), "stats"]) == 2
    assert f"`repro resume {d}`" in capsys.readouterr().err


def test_cli_resume_requires_a_journal(tmp_path, capsys):
    assert main(["resume", str(tmp_path)]) == 2
    assert MANIFEST_NAME in capsys.readouterr().err


def test_cli_resume_refuses_a_journal_from_other_code(tmp_path, capsys):
    """Other code may record an argv this parser refuses; resume must
    name the journal instead of printing usage for a command the user
    never typed."""
    d = tmp_path / "ck"
    crash = _CLI + ["--run-dir", str(d), "--kill-at", "whois:3",
                    "stats"]
    assert main(crash) == 75
    manifest = json.loads((d / MANIFEST_NAME).read_text())
    manifest["cli"]["argv"].insert(0, "--no-such-flag")
    manifest["code"] = "0" * 64
    (d / MANIFEST_NAME).write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["resume", str(d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:") and str(d) in err
    assert "usage:" not in err


def test_execution_policy_describe():
    assert ExecutionPolicy(workers=4).describe() == "workers=4 cache=on"
    assert ExecutionPolicy(cache=False).describe() == "workers=1 cache=off"
