"""One kill/resume surface for every durable kind, driven from the CLI.

Every run command is made durable, killed and finished the same way:
``--run-dir DIR`` makes the run durable, ``--kill-at PHASE:N`` kills
it (exit 75, with the hint ``repro: resume with: repro resume DIR``),
and ``repro resume DIR`` finishes it by reading whichever manifest DIR
holds. The resumed command must then print what the uninterrupted one
prints: the whole report for a batch run, the header and fingerprint
lines for a stream, serve or investigation session. A killed session
directory holds no older format's state and no live machinery: an
older manifest version is refused before its state is unpickled, and
every ``state.pkl`` unpickles without naming the world, a clock, a
meter, a breaker, a fault proxy, telemetry, the cache or the stage
runner.

The library-level cells — every journal write, the seeds × profiles ×
workers grid, the serve fault × kill-point matrix, zero duplicate
charges — run through the same table of workloads
(``tests.differential``) in the test file of each kind.
"""

import hashlib
import io
import json
import pickle

import pytest

from repro.cli import main
from repro.core.pipeline import Stages
from repro.exec.cache import EnrichmentCache
from repro.faults.proxy import FaultProxy
from repro.forums.base_meter import ForumMeter
from repro.obs import Telemetry
from repro.obs.trace import Tracer
from repro.resilience import CircuitBreaker
from repro.services.base import ServiceMeter, SimClock
from repro.world.scenario import World

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


#: The manifest version each session kind writes.
FORMAT_VERSIONS = {"stream": 4, "serve": 5}


@pytest.mark.parametrize("kind", sorted(FORMAT_VERSIONS))
def test_resume_refuses_a_version_2_directory(kind, tmp_path, capsys):
    """A stream or serve directory in an older format is refused with one
    error line before its state file is unpickled: version 2, written
    before cache entries became ``(service, subject, value)`` triples;
    version 3, whose state file held the session objects as
    hand-converted dicts; and a version-4 serve state, which lacks the
    last batch's quarantine rate and would resume with it zeroed."""
    want = FORMAT_VERSIONS[kind]
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
    for version in range(2, want):
        manifest.update(version=version, state_file="state.pkl",
                        state_sha256=hashlib.sha256(state).hexdigest())
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["--quiet", "resume", str(run_dir)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"repro: error: {manifest_name} version {version} is not "
            f"supported (want {want})"]


#: The live machinery a resume rebuilds from the manifest: the world and
#: its clock, meters, breakers and fault proxies, the telemetry sink,
#: the memo cache and the stage runner. A commit holds none of them.
LIVE_CLASSES = (World, SimClock, ServiceMeter, ForumMeter, CircuitBreaker,
                FaultProxy, Telemetry, Tracer, EnrichmentCache, Stages)

#: Per kind: a run killed after at least one commit. The serve run is
#: the hostile kill/resume cell of ``tests/test_serve_equivalence.py``.
KILLED_RUNS = {
    "serve": (["--seed", "11", "--campaigns", "20", "--hostile", "poison"],
              ["serve", "--load-profile", "spike", "--requests", "6000",
               "--reporters", "500", "--queue-capacity", "30",
               "--commit-every", "250"], "arrival:3100"),
    "stream": CLI_CASES["stream"],
    "investigate": (CLI_CASES["investigate"][0],
                    CLI_CASES["investigate"][1], "scan:1"),
}


class _DataOnlyUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        found = super().find_class(module, name)
        if isinstance(found, type) and issubclass(found, LIVE_CLASSES):
            raise pickle.UnpicklingError(f"commit holds {module}.{name}")
        return found


@pytest.mark.parametrize("kind", sorted(KILLED_RUNS))
def test_a_commit_holds_data_only(kind, tmp_path):
    """Every ``state.pkl`` a killed run leaves behind unpickles without
    naming a live class: the session's own objects are pickled whole,
    so one that held the clock or a meter would drag it along."""
    world, command, kill = KILLED_RUNS[kind]
    run_dir = tmp_path / "run"
    assert main(world + ["--quiet", "--run-dir", str(run_dir),
                         "--kill-at", kill] + command) == 75
    states = sorted(run_dir.rglob("state.pkl"))
    assert states, f"the killed {kind} run committed nothing"
    for path in states:
        assert _DataOnlyUnpickler(io.BytesIO(path.read_bytes())).load()
