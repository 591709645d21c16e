"""The benchmark workloads, driven through ``repro``'s public API.

Each workload has three phases, timed separately by ``run.py``:

* ``setup`` builds the world (and the service or session around it) from
  the seed: this is ``setup_s``;
* ``run`` is the measured job: this is ``wall_s``;
* ``outcome`` digests the job's output and counts its work, untimed.

Sizes are fixed here; ``--scale`` shrinks them only for smoke tests.
Why each workload exists is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import hooks
from repro.analysis.report import generate_paper_report
from repro.core.pipeline import run_pipeline
from repro.exec import ExecutionPolicy
from repro.serve import IntakeService, LoadSpec, serve_fingerprint
from repro.stream import StreamSession
from repro.world import scenario

#: World and load sizes at ``--scale 1``. Reference digests are only
#: valid for exactly these sizes.
SIZES: Dict[str, Dict[str, int]] = {
    "batch": {"campaigns": 480},
    "serve": {"campaigns": 30, "requests": 40_000, "reporters": 2_000},
    "stream": {"campaigns": 240, "epochs": 8},
}

#: Durable stream directories live here, inside the checkout; each job
#: removes its own.
WORK_DIR = Path(".bench_work")

#: Seed offset between the worlds of one run (see ``world_seeds``).
WORLD_STRIDE = 100_000

#: Reasons the intake service turns a request away at the front door.
SHED_REASONS = ("rate_limited", "queue_full", "shedding", "draining")


def scaled(family: str, scale: float) -> Dict[str, int]:
    sizes = dict(SIZES[family])
    for key in ("campaigns", "requests", "reporters"):
        if key in sizes:
            sizes[key] = max(1, round(sizes[key] * scale))
    return sizes


@dataclass
class Outcome:
    """What one job produced, reduced to checkable numbers."""

    digest: str
    #: Curated records (``records_per_s`` numerator).
    records: int
    #: Items offered to the system: intake requests, or raw forum
    #: reports collected (``requests_per_s`` numerator).
    offered: int
    #: ``fail_rate`` numerator and base, with what they count.
    failures: int
    base: int
    fail_meaning: str
    #: Broken invariants; any entry fails the job.
    violations: List[str] = field(default_factory=list)
    #: Workload-only per-layer figures (shed reasons, ledger rates, ...).
    probe: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Extra:
    """A job that only traced runs make, once untraced and once traced on
    the run's first world. It covers layers its host workload leaves idle
    and has no end-to-end bound (see ``README.md`` for why)."""

    workload: Any
    #: Per-layer metrics (by name prefix) taken from its traced job.
    prefixes: Tuple[str, ...]
    #: Per-layer metric holding its untraced job time.
    wall_metric: str
    #: Per-layer metric holding the host's job time on the same world
    #: over it, for an extra that runs the host's job another way.
    speedup_metric: Optional[str] = None


def world_seeds(workload, seed: int) -> List[int]:
    """The worlds one run measures: the seed's own world first, then
    ``worlds - 1`` more at fixed offsets. A run's input is their union,
    so one unusually cheap or costly world moves the result less."""
    return [seed + WORLD_STRIDE * index for index in range(workload.worlds)]


def tmpfs_fsync(fd: int) -> None:
    """``fsync`` as a RAM-backed filesystem performs it: the descriptor is
    checked and nothing is flushed. The call count stays exact."""
    os.fstat(fd)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Batch:
    """``run_pipeline`` + ``generate_paper_report(...).render()``."""

    family = "batch"
    worlds = 2

    def __init__(self, execution: Optional[ExecutionPolicy] = None,
                 extras: Tuple[Extra, ...] = ()):
        self.execution = execution
        self.extras = extras

    def setup(self, seed: int, scale: float, telemetry) -> Dict[str, Any]:
        sizes = scaled("batch", scale)
        world = scenario.build_world(scenario.ScenarioConfig(
            seed=seed, n_campaigns=sizes["campaigns"]))
        return {"world": world, "telemetry": telemetry}

    def run(self, ctx: Dict[str, Any]):
        run = run_pipeline(ctx["world"], telemetry=ctx["telemetry"],
                           execution=self.execution)
        return run, generate_paper_report(run).render()

    def outcome(self, ctx: Dict[str, Any], product) -> Outcome:
        run, text = product
        lookups = hooks.COUNTS["svc.call"]
        gaps = len(run.enriched.gaps)
        violations = []
        if not text or len(run.dataset) == 0:
            violations.append("empty report or dataset")
        if gaps > lookups:
            violations.append(f"{gaps} gaps from {lookups} lookups")
        return Outcome(
            digest=_sha256(text), records=len(run.dataset),
            offered=len(run.collection.reports), failures=gaps,
            base=lookups, fail_meaning="enrichment gaps / guarded lookups",
            violations=violations,
            probe={"enrich.gaps": gaps, "world.posts": len(
                ctx["world"].reporter_output.all_posts())},
        )

    def prepare(self) -> None:
        pass

    def cleanup(self, ctx: Dict[str, Any]) -> None:
        pass


class Serve:
    """``IntakeService(...).run()`` under a steady open-loop schedule."""

    family = "serve"
    worlds = 2

    def __init__(self, extras: Tuple[Extra, ...] = ()):
        self.extras = extras

    def setup(self, seed: int, scale: float, telemetry) -> Dict[str, Any]:
        sizes = scaled("serve", scale)
        service = IntakeService.create(
            scenario.ScenarioConfig(seed=seed,
                                    n_campaigns=sizes["campaigns"]),
            load=LoadSpec(profile="steady", requests=sizes["requests"],
                          reporters=sizes["reporters"], seed=seed),
            telemetry_factory=(None if telemetry is None
                               else lambda world: telemetry),
        )
        return {"service": service, "requests": sizes["requests"]}

    def run(self, ctx: Dict[str, Any]):
        return ctx["service"].run()

    def outcome(self, ctx: Dict[str, Any], product) -> Outcome:
        service = ctx["service"]
        stats = service.stats()
        submitted = stats["submitted"]
        failures = stats["shed"] + stats["timed_out"]
        violations = []
        if submitted != ctx["requests"]:
            violations.append(f"submitted {submitted} of {ctx['requests']}")
        if stats["accepted"] + stats["shed"] != submitted:
            violations.append("accepted + shed != submitted")
        if stats["processed"] + stats["timed_out"] != stats["accepted"]:
            violations.append("processed + timed_out != accepted")
        by_reason = stats["rejected_by_reason"]
        probe = {f"serve.shed.{reason}": by_reason.get(reason, 0)
                 for reason in SHED_REASONS}
        probe["serve.timed_out"] = stats["timed_out"]
        probe["enrich.gaps"] = stats["gaps"]
        ledger = service.ledger.stats()
        probe["serve.ledger_hits"] = ledger["hits"]
        probe["serve.ledger_misses"] = ledger["misses"]
        probe["world.posts"] = len(service.world.reporter_output.all_posts())
        return Outcome(
            digest=_sha256(serve_fingerprint(service)),
            records=stats["records"], offered=submitted, failures=failures,
            base=submitted, fail_meaning="(shed + timed out) / submitted",
            violations=violations, probe=probe,
        )

    def prepare(self) -> None:
        pass

    def cleanup(self, ctx: Dict[str, Any]) -> None:
        pass


class Stream:
    """``StreamSession.create(..., epochs=N, stream_dir=D).run()``."""

    family = "stream"
    worlds = 1
    _dirs = itertools.count()

    def prepare(self) -> None:
        """Durable writes go to the checkout's own disk, whose flush
        latency belongs to the host, not the program; emulate the
        RAM-backed filesystem this workload is specified for."""
        os.fsync = tmpfs_fsync

    def setup(self, seed: int, scale: float, telemetry) -> Dict[str, Any]:
        sizes = scaled("stream", scale)
        stream_dir = WORK_DIR / f"stream-{os.getpid()}-{next(self._dirs)}"
        shutil.rmtree(stream_dir, ignore_errors=True)
        session = StreamSession.create(
            scenario.ScenarioConfig(seed=seed,
                                    n_campaigns=sizes["campaigns"]),
            epochs=sizes["epochs"], stream_dir=stream_dir,
            telemetry_factory=(None if telemetry is None
                               else lambda world: telemetry),
        )
        return {"session": session, "dir": stream_dir,
                "epochs": sizes["epochs"]}

    def run(self, ctx: Dict[str, Any]):
        return ctx["session"].run()

    def outcome(self, ctx: Dict[str, Any], state) -> Outcome:
        session = ctx["session"]
        lookups = hooks.COUNTS["svc.call"]
        gaps = len(state.gaps)
        violations = []
        if state.committed_epochs != ctx["epochs"]:
            violations.append(f"committed {state.committed_epochs} of "
                              f"{ctx['epochs']} epochs")
        if gaps > lookups:
            violations.append(f"{gaps} gaps from {lookups} lookups")
        return Outcome(
            digest=state.fingerprint(), records=len(state.dataset),
            offered=len(state.collection.reports), failures=gaps,
            base=lookups, fail_meaning="enrichment gaps / guarded lookups",
            violations=violations,
            probe={"enrich.gaps": gaps,
                   "stream.ledger_hits": session.ledger.stats()["hits"],
                   "stream.ledger_misses": session.ledger.stats()["misses"],
                   "world.posts": len(
                       session.world.reporter_output.all_posts())},
        )

    def cleanup(self, ctx: Dict[str, Any]) -> None:
        shutil.rmtree(ctx["dir"], ignore_errors=True)


WORKLOADS = {
    # The process pool's two workers fill both CPUs of the shared host,
    # so its timings track the host's scheduler: traced runs only.
    "batch-480": Batch(extras=(Extra(
        Batch(ExecutionPolicy(workers=2, pool="process")), ("exec.pool_",),
        "exec.pool_wall_s", "exec.pool_speedup"),)),
    # The durable stream shares serve's incremental curation and dedup
    # ledger. Its runs spread past any allowed bound on the shared host,
    # so it too runs in traced runs only.
    "serve-repeat": Serve(extras=(Extra(
        Stream(), ("stream.", "persist."), "stream.wall_s"),)),
}

#: One workload per family, for the reference digests.
REFERENCE_WORKLOADS = {"batch": WORKLOADS["batch-480"],
                       "serve": WORKLOADS["serve-repeat"], "stream": Stream()}
