"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, SHARED_OPTIONS, build_parser, main, parse_args

#: A non-default value for each shared option.
_VALUES = {
    "--seed": ["5"], "--campaigns": ["9"], "--trace-out": ["t.json"],
    "--quiet": [], "--faults": ["flaky"], "--hostile": ["noisy"],
    "--workers": ["3"], "--pool": ["process"], "--no-cache": [],
    "--checkpoint-dir": ["ck"], "--crash-at": ["whois:1"],
    "--trace-format": ["chrome"], "--profile": [], "--history-dir": ["hist"],
}
#: What a command needs besides the option to parse at all.
_REQUIRED = {"ingest": ["--stream-dir", "sv"]}
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
])
def test_bad_numbers_are_refused(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:") and "Traceback" not in err


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
        assert "enrich/openai" in out

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
