"""One kill/resume surface for every durable kind, driven from the CLI.

Every run command is made durable, killed and finished the same way:
``--run-dir DIR`` makes the run durable, ``--kill-at PHASE:N`` kills
it (exit 75, with the hint ``repro: resume with: repro resume DIR``),
and ``repro resume DIR`` finishes it by reading whichever manifest DIR
holds. The resumed command must then print what the uninterrupted one
prints: the whole report for a batch run, the header and fingerprint
lines for a stream, serve or investigation session.

The library-level cells — every journal write, the seeds × profiles ×
workers grid, the serve fault × kill-point matrix, zero duplicate
charges — run through the same table of workloads
(``tests.differential``) in the test file of each kind.
"""

import hashlib
import json
import pickle

import pytest

from repro.cli import main

#: Per kind: the world options, the command, and a kill that fires.
CLI_CASES = {
    "batch": (["--seed", "5", "--campaigns", "3", "--faults", "flaky"],
              ["report"], "whois:3"),
    "stream": (["--seed", "7", "--campaigns", "5"],
               ["watch", "--epochs", "2"], "whois:2@1"),
    "serve": (["--seed", "7", "--campaigns", "4"],
              ["serve", "--requests", "60", "--reporters", "10",
               "--batch-size", "8", "--commit-every", "20"], "arrival:30"),
    "investigate": (["--seed", "7", "--campaigns", "20"],
                    ["investigate", "--sample", "60"], "scan:2"),
}


def _comparable(kind, out):
    """What the resume must print exactly as the uninterrupted command
    does: the whole report, or the header and the fingerprint line."""
    if kind == "batch":
        return out
    lines = out.splitlines()
    return [lines[0]] + [line for line in lines if " fingerprint=" in line]


@pytest.mark.parametrize("kind", sorted(CLI_CASES))
def test_cli_kill_then_resume_prints_the_uninterrupted_output(kind, tmp_path,
                                                              capsys):
    world, command, kill = CLI_CASES[kind]
    run_dir = tmp_path / "run"
    assert main(world + ["--quiet", "--run-dir", str(run_dir),
                         "--kill-at", kill] + command) == 75
    err = capsys.readouterr().err
    assert "repro: crashed" in err
    assert f"repro: resume with: repro resume {run_dir}" in err
    assert main(["--quiet", "resume", str(run_dir)]) == 0
    resumed = capsys.readouterr().out
    assert main(world + ["--quiet"] + command) == 0
    clean = capsys.readouterr().out
    assert _comparable(kind, resumed) == _comparable(kind, clean)


@pytest.mark.parametrize("kind", ["stream", "serve"])
def test_resume_refuses_a_version_2_directory(kind, tmp_path, capsys):
    """A stream or serve directory written before cache entries became
    ``(service, subject, value)`` triples is refused with one error line
    before its state file is unpickled."""
    world, command, kill = CLI_CASES[kind]
    manifest_name = f"{kind.upper()}.json"
    run_dir = tmp_path / "run"
    assert main(world + ["--quiet", "--run-dir", str(run_dir),
                         "--kill-at", kill] + command) == 75
    # A version-2 state file names the deleted entry class, so
    # unpickling it would fail with a traceback, not a refusal.
    state = b"crepro.exec.cache\nCacheEntry\n."
    with pytest.raises(AttributeError):
        pickle.loads(state)
    (run_dir / "state.pkl").write_bytes(state)
    manifest_path = run_dir / manifest_name
    manifest = json.loads(manifest_path.read_text())
    manifest.update(version=2, state_file="state.pkl",
                    state_sha256=hashlib.sha256(state).hexdigest())
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["--quiet", "resume", str(run_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("repro: error:"), err
    assert f"{manifest_name} version 2" in err[0]
