"""Tests for the command-line interface."""

import pytest

from repro.cli import (
    _CALL_PHASES,
    COMMANDS,
    RUN_MANIFESTS,
    SHARED_OPTIONS,
    build_parser,
    main,
    parse_args,
)
from repro.core.pipeline import build_enrichment_services
from repro.types import Forum

#: A non-default value for each shared option.
_VALUES = {
    "--seed": ["5"], "--campaigns": ["9"], "--trace-out": ["t.json"],
    "--quiet": [], "--faults": ["flaky"], "--hostile": ["noisy"],
    "--workers": ["3"], "--no-cache": [],
    "--run-dir": ["ck"], "--kill-at": ["whois:1"],
    "--trace-format": ["chrome"],
}
#: What a command needs besides the option to parse at all.
_REQUIRED = {"ingest": ["sv"], "resume": ["sv"]}
_PLACEMENTS = [(option, command) for option in SHARED_OPTIONS
               for command in COMMANDS]


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.seed == 7726
        assert args.campaigns == 120


@pytest.mark.parametrize(
    "option,command", _PLACEMENTS,
    ids=[f"{flag[2:]}-{command}" for (flag, _, _), command in _PLACEMENTS])
def test_shared_option_placement(option, command, tmp_path, monkeypatch,
                                 capsys):
    """A command that reads a shared option parses it alike before and
    after the command; any other refuses it in both places, before doing
    anything."""
    flag, readers, spec = option
    given = [flag] + _VALUES[flag]
    tail = [command] + _REQUIRED.get(command, [])
    before, after = given + tail, tail + given
    if command in readers:
        dest = flag[2:].replace("-", "_")
        value = getattr(parse_args(before), dest)
        assert value != spec["default"]
        assert getattr(parse_args(after), dest) == value
        return
    monkeypatch.chdir(tmp_path)
    for argv in (before, after):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (f"repro: error: {flag} does not apply to "
                f"`repro {command}`") in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--campaigns", "-3", "stats"],
    ["serve", "--queue-capacity", "0"],
    ["casestudy", "--sample", "-1"],
    ["mine", "--top", "-1"],
    ["mine", "--threshold", "7"],
    ["mine", "--threshold", "0"],
    ["mine", "--threshold", "-0.5"],
])
def test_bad_numbers_are_refused(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:") and "Traceback" not in err


#: Flags of the deleted function profiler, run-history ledger and pool
#: choice, as (name, value, command, given before the command).
_REMOVED_FLAGS = [
    ("profile", [], "report", True),
    ("profile", [], "report", False),
    ("history-dir", ["h"], "stats", True),
    ("history", [], "stats", False),
    ("pool", ["process"], "report", True),
    ("pool", ["thread"], "stats", False),
]


@pytest.mark.parametrize(
    "name,value,command,before", _REMOVED_FLAGS,
    ids=[f"{name}-{'before' if before else 'after'}-{command}"
         for name, _, command, before in _REMOVED_FLAGS])
def test_removed_options_are_refused(name, value, command, before, tmp_path,
                                     monkeypatch, capsys):
    """argparse refuses each flag of the deleted features (exit 2)
    before any work."""
    given = [f"--{name}"] + value
    argv = given + [command] if before else [command] + given
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["--seed", "3", "--campaigns", "2", "--quiet"] + argv)
    assert exit_info.value.code == 2
    assert "repro: error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_resume_reads_only_what_every_resumable_command_reads():
    """`repro resume DIR` finishes the run of any command that takes
    --run-dir, so an option it reads must apply to each of them."""
    readers = {flag: set(commands) for flag, commands, _ in SHARED_OPTIONS}
    for flag, commands in readers.items():
        if "resume" in commands:
            assert readers["--run-dir"] <= commands, flag


#: Every ``--kill-at``/``--run-dir`` refusal: before any work, and with
#: no directory left behind. ``new`` is a missing directory; ``file``,
#: ``stray`` (not empty), ``SERVE.json`` etc. (a run's manifest) exist.
_REFUSALS = {
    "negative-arrival": ["serve", "--run-dir", "new", "--kill-at", "-5"],
    "negative-scan": ["investigate", "--run-dir", "new", "--kill-at", "-1"],
    "negative-call": ["--run-dir", "new", "--kill-at", "whois:-1", "report"],
    "malformed": ["--run-dir", "new", "--kill-at", "whois", "report"],
    "unknown-service": ["--run-dir", "new", "--kill-at", "whoiss:1",
                        "report"],
    "arrival-on-report": ["--run-dir", "new", "--kill-at", "arrival:5",
                          "report"],
    "service-on-serve": ["--run-dir", "new", "--kill-at", "whois:5",
                         "serve"],
    "scan-on-watch": ["--run-dir", "new", "--kill-at", "scan:1", "watch"],
    "epoch-on-report": ["--run-dir", "new", "--kill-at", "whois:5@0",
                        "report"],
    "epoch-on-serve": ["--run-dir", "new", "--kill-at", "arrival:5@1",
                       "serve"],
    "epoch-past-plan": ["--run-dir", "new", "--kill-at", "whois:1@7",
                        "watch", "--epochs", "2"],
    "epoch-at-plan": ["--run-dir", "new", "--kill-at", "whois:1@2",
                      "watch", "--epochs", "2"],
    "negative-epoch": ["--run-dir", "new", "--kill-at", "whois:1@-1",
                       "watch", "--epochs", "2"],
    "kill-without-dir-batch": ["--kill-at", "whois:1", "report"],
    "kill-without-dir-watch": ["--kill-at", "whois:1@1", "watch"],
    "kill-without-dir-serve": ["--kill-at", "arrival:1", "serve"],
    "kill-without-dir-investigate": ["--kill-at", "scan:1", "investigate"],
    "stats-epochs": ["--run-dir", "new", "stats", "--epochs", "2"],
    "stats-epoch-hours": ["--run-dir", "new", "stats", "--epoch-hours", "24"],
    "dir-is-a-file": ["--run-dir", "file", "report"],
    "dir-not-empty": ["--run-dir", "stray", "report"],
    **{f"dir-holds-{name}": ["--run-dir", name, "report"]
       for name in RUN_MANIFESTS},
    "resume-without-manifest": ["resume", "stray"],
}


@pytest.mark.parametrize("argv", list(_REFUSALS.values()),
                         ids=list(_REFUSALS))
def test_durable_run_refusals(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("x")
    (tmp_path / "stray").mkdir()
    (tmp_path / "stray" / "notes.txt").write_text("x")
    for name in RUN_MANIFESTS:
        (tmp_path / name).mkdir()
        (tmp_path / name / name).write_text("{}")
    before = sorted(tmp_path.rglob("*"))
    assert main(["--seed", "3", "--campaigns", "2", "--quiet"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:") and "Traceback" not in err
    if argv[1] in RUN_MANIFESTS:
        assert f"`repro resume {argv[1]}`" in err
    assert sorted(tmp_path.rglob("*")) == before


def test_kill_phases_name_every_meter_and_forum(world):
    services = set(build_enrichment_services(world).meters())
    forums = {forum.value for forum in Forum}
    assert set(_CALL_PHASES) == services | forums


class TestCommands:
    ARGS = ["--campaigns", "25", "--seed", "3"]

    def test_report(self, capsys):
        assert main(self.ARGS + ["report"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Figure 2" in out

    def test_release(self, tmp_path, capsys):
        output = tmp_path / "rel.jsonl"
        assert main(self.ARGS + ["release", str(output)]) == 0
        assert output.exists()
        assert "pseudo-anonymised" in capsys.readouterr().out

    def test_casestudy(self, capsys):
        assert main(self.ARGS + ["casestudy", "--sample", "50"]) == 0
        assert "Malware Family" in capsys.readouterr().out

    def test_mine(self, capsys):
        assert main(self.ARGS + ["mine", "--top", "5"]) == 0
        assert "Mined campaigns" in capsys.readouterr().out

    def test_figures(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        assert main(self.ARGS + ["figures", str(out_dir)]) == 0
        assert (out_dir / "figure2.csv").exists()
        assert (out_dir / "figure3.csv").exists()

    def test_stats(self, capsys):
        assert main(self.ARGS + ["stats", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Pipeline stages" in out
        assert "Service telemetry" in out
        assert "collect/Twitter" in out
        assert "enrich/annotate" in out

    def test_trace_out_writes_json(self, tmp_path, capsys):
        import json
        trace_path = tmp_path / "trace.json"
        assert main(self.ARGS + ["stats", "--quiet",
                                 "--trace-out", str(trace_path)]) == 0
        trace = json.loads(trace_path.read_text())
        names = {span["name"] for span in trace["spans"]}
        assert {"pipeline", "collect", "curate", "enrich"} <= names

    def test_progress_lines_on_stderr(self, capsys):
        assert main(self.ARGS + ["report"]) == 0
        err = capsys.readouterr().err
        assert "✓ pipeline" in err
        assert "✓ collect/Twitter" in err
