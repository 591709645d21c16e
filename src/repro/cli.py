"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main workflows:

* ``report``   — regenerate every paper table/figure.
* ``release``  — write the pseudo-anonymised dataset (Appendix C).
* ``casestudy``— run the §6 active malware investigation.
* ``mine``     — cluster the dataset back into campaigns.
* ``figures``  — export plot-ready CSVs for the figures.
* ``stats``    — run the pipeline and print its telemetry (spans,
  per-service request/retry/backoff counters, run counters). With
  ``--epochs``/``--epoch-hours`` the run is an in-memory incremental
  ingestion and the summary gains the per-epoch Stream table.
* ``watch``    — continuous incremental ingestion: run N epochs over one
  world (``repro.stream``), printing the per-epoch table and a final
  stream fingerprint.
* ``ingest DIR`` — run one (or more) follow-on epochs against an
  existing stream directory.
* ``serve``    — drive the overload-safe report-intake service
  (``repro.serve``) under a deterministic simulated load: bounded
  queue, per-reporter rate limits, load shedding, degraded modes.
* ``investigate`` — run a declarative playbook over every URL-bearing
  record as an investigation fleet (``repro.investigate``): funnel
  navigation through the simulated web hosts and per-campaign evidence
  packages.
* ``resume DIR`` — finish a crashed durable run of any kind.

Every command accepts ``--trace-out PATH`` to dump the run's full trace
and metrics as JSON (``--trace-format chrome`` writes Chrome
trace-event JSON instead, openable in Perfetto), and emits stage-level
progress lines on stderr (suppress with ``--quiet``) so long runs are
not mute.

Every run command — the batch commands, ``stats``, ``watch``, ``serve``
and ``investigate`` — is made durable the same way: ``--run-dir DIR``
journals a batch run, persists a stream, serve or investigation
session, and ``repro resume DIR`` finishes whichever kind DIR holds.
``--kill-at PHASE:N`` injects a hard crash for testing that (exit 75):
before the Nth call to a service or forum (``whois:5``, ``Reddit:1``;
``whois:5@1`` for stream epoch 1), the Nth serve arrival
(``arrival:N``) or the Nth investigation scan (``scan:N``).

Options several commands share are declared once, in
:data:`SHARED_OPTIONS`, with the commands that read them. They parse
alike before and after the command; one given to a command that does
not read it is refused instead of silently dropped.

Function-level profiling needs no flag: ``python -m cProfile -s cumtime
-m repro stats`` profiles any command. Speed is measured by
``bench/run.py``, against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .analysis.campaign_mining import (
    campaign_summary_table,
    mine_campaigns,
)
from .analysis.figures import export_all_figures
from .analysis.malware import build_table19, family_distribution_table
from .analysis.report import generate_paper_report
from .checkpoint import (
    MANIFEST_NAME,
    CheckpointSession,
    RunJournal,
    code_fingerprint,
    resume_pipeline,
)
from .checkpoint.identity import policy_from_dict
from .core.anonymize import build_release, save_release
from .core.pipeline import PipelineRun, run_pipeline
from .errors import CheckpointError, ConfigurationError, SimulatedCrash
from .exec import ExecutionPolicy
from .faults import FAULT_PROFILES, CrashPoint, FaultPlan, build_fault_plan
from .investigate import (
    INVESTIGATE_MANIFEST_NAME,
    PLAYBOOKS,
    InvestigationFleet,
    fleet_fingerprint,
    run_case_study,
    write_packages,
)
from .obs import Telemetry, stderr_sink
from .serve import (
    LOAD_PROFILES,
    SERVE_MANIFEST_NAME,
    IntakeService,
    LoadSpec,
    ServeConfig,
    serve_fingerprint,
)
from .stream import STREAM_MANIFEST_NAME, StreamSession
from .types import Forum
from .world.adversarial import HOSTILE_PROFILES
from .world.scenario import ScenarioConfig, build_world


#: What ``--kill-at PHASE:N`` counts, per command: the Nth call to an
#: enrichment service (by meter name) or a forum in batch and stream
#: runs, the Nth arrival of a serve run, the Nth scan of an
#: investigation.
_CALL_PHASES = ("crtsh", "gsb", "hlr", "ipinfo", "openai", "spamhaus-pdns",
                "virustotal", "whois") + tuple(forum.value for forum in Forum)
_KILL_PHASES = {"serve": ("arrival",), "investigate": ("scan",)}


def _crash_point(args: argparse.Namespace) -> CrashPoint:
    """``--kill-at PHASE:N[@E]`` as the crash point its command counts."""
    spec = args.kill_at
    phase, _, rest = spec.partition(":")
    count, at, epoch = rest.partition("@")
    try:
        point = CrashPoint(phase, int(count), int(epoch) if at else 0)
    except ValueError:
        point = None
    if point is None or not phase or point.at_call < 0 or point.epoch < 0:
        raise ConfigurationError(
            f"--kill-at wants PHASE:N with N >= 0 (e.g. whois:5), or "
            f"PHASE:N@E for stream epoch E >= 0; got {spec!r}"
        )
    phases = _KILL_PHASES.get(args.command, _CALL_PHASES)
    if phase not in phases:
        raise ConfigurationError(
            f"--kill-at {spec}: `repro {args.command}` counts no "
            f"{phase!r}; choose from {', '.join(phases)}"
        )
    if at and args.command != "watch":
        raise ConfigurationError(
            f"--kill-at {spec}: only `repro watch` runs epochs (@E)"
        )
    return point


def _fault_plan(args: argparse.Namespace) -> FaultPlan:
    """The ``--faults`` profile plus the ``--kill-at`` crash point."""
    plan = build_fault_plan(args.faults, seed=args.seed)
    if args.kill_at is None:
        return plan
    return plan.extended(_crash_point(args))


def _manifest_argv(args: argparse.Namespace) -> List[str]:
    """The argv `repro resume` replays to rebuild this exact command."""
    argv = ["--seed", str(args.seed), "--campaigns", str(args.campaigns),
            "--faults", args.faults, "--workers", str(args.workers)]
    if args.hostile != "none":
        argv += ["--hostile", args.hostile]
    if args.no_cache:
        argv.append("--no-cache")
    if args.quiet:
        argv.append("--quiet")
    argv.append(args.command)
    if args.command in ("release", "figures"):
        argv.append(str(args.output))
    elif args.command == "casestudy":
        argv += ["--sample", str(args.sample)]
    elif args.command == "mine":
        argv += ["--threshold", str(args.threshold), "--top", str(args.top)]
    return argv


def _execution_policy(args: argparse.Namespace) -> ExecutionPolicy:
    return ExecutionPolicy(workers=args.workers, cache=not args.no_cache)


def _build_run(args: argparse.Namespace) -> PipelineRun:
    progress = None if args.quiet else stderr_sink
    resume_dir = getattr(args, "_resume_dir", None)
    if resume_dir is not None:
        return resume_pipeline(
            resume_dir,
            telemetry_factory=lambda world: Telemetry.create(
                clock=world.clock, progress=progress),
        )
    world = build_world(ScenarioConfig(seed=args.seed,
                                       n_campaigns=args.campaigns,
                                       hostile=args.hostile))
    telemetry = Telemetry.create(clock=world.clock, progress=progress)
    checkpoint = None
    if args.run_dir is not None:
        checkpoint = CheckpointSession.record(
            args.run_dir, cli={"argv": _manifest_argv(args)})
    return run_pipeline(world, telemetry=telemetry,
                        fault_plan=_fault_plan(args),
                        execution=_execution_policy(args),
                        checkpoint=checkpoint)


def _dump_trace(args: argparse.Namespace, telemetry) -> int:
    """Write the trace when ``--trace-out`` was given (JSON or Chrome).

    Returns the command exit code: 0 normally, 1 when the dump path is
    unwritable (the run itself already succeeded, so fail cleanly)."""
    trace_out = args.trace_out
    if trace_out is None:
        return 0
    trace_format = args.trace_format
    try:
        if trace_format == "chrome":
            telemetry.write_chrome_trace(trace_out)
        else:
            telemetry.write_json(trace_out)
    except OSError as exc:
        print(f"repro: error: cannot write trace to {trace_out}: {exc}",
              file=sys.stderr)
        return 1
    print(f"wrote {trace_format} trace to {trace_out}", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    run = _build_run(args)
    report = generate_paper_report(run)
    print(report.render())
    return _dump_trace(args, run.telemetry)


def _cmd_release(args: argparse.Namespace) -> int:
    run = _build_run(args)
    rows = build_release(run.enriched)
    written = save_release(rows, args.output)
    print(f"wrote {written} pseudo-anonymised rows to {args.output}")
    return _dump_trace(args, run.telemetry)


def _cmd_casestudy(args: argparse.Namespace) -> int:
    run = _build_run(args)
    study = run_case_study(run.world, run.dataset,
                           sample_posts=args.sample)
    print(build_table19(study).to_text())
    print()
    print(family_distribution_table(study).to_text())
    return _dump_trace(args, run.telemetry)


def _cmd_mine(args: argparse.Namespace) -> int:
    run = _build_run(args)
    mined = mine_campaigns(run.annotated_dataset,
                           threshold=args.threshold)
    print(campaign_summary_table(mined, top=args.top).to_text())
    return _dump_trace(args, run.telemetry)


def _cmd_figures(args: argparse.Namespace) -> int:
    run = _build_run(args)
    written = export_all_figures(run.enriched, run.collection.reports,
                                 args.output)
    for name, rows in sorted(written.items()):
        print(f"{name}.csv: {rows} rows")
    return _dump_trace(args, run.telemetry)


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.epochs is not None or args.epoch_hours is not None:
        session = _build_stream_session(args)
        session.run()
        run = session.as_pipeline_run()
        epochs = f" epochs={session.state.committed_epochs}"
    else:
        run = _build_run(args)
        epochs = ""
    dataset = run.dataset
    hostile = (f" hostile={args.hostile}" if args.hostile != "none" else "")
    quarantined = (f" quarantined={run.curation_stats.quarantined}"
                   if run.curation_stats.quarantined else "")
    print(f"seed={args.seed} campaigns={args.campaigns} "
          f"faults={args.faults} "
          f"workers={args.workers} "
          f"cache={'off' if args.no_cache else 'on'}"
          f"{hostile}{epochs} "
          f"reports={len(run.collection.reports)} records={len(dataset)} "
          f"limitations={len(run.collection.limitations)} "
          f"gaps={len(run.enriched.gaps)}{quarantined}")
    print()
    print(run.telemetry.summary())
    gapped = run.enriched.gaps_by_service()
    if gapped:
        print()
        print("Enrichment gaps:")
        for service in sorted(gapped):
            kinds: dict = {}
            for gap in gapped[service]:
                kinds[gap.kind] = kinds.get(gap.kind, 0) + 1
            detail = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
            print(f"  {service}: {len(gapped[service])} ({detail})")
    return _dump_trace(args, run.telemetry)


def _telemetry_factory(args: argparse.Namespace):
    progress = None if args.quiet else stderr_sink
    return lambda world: Telemetry.create(clock=world.clock,
                                          progress=progress)


def _build_stream_session(args: argparse.Namespace) -> StreamSession:
    epochs, epoch_hours = args.epochs, args.epoch_hours
    if epochs is None and epoch_hours is None:
        epochs = 4
    return StreamSession.create(
        ScenarioConfig(seed=args.seed, n_campaigns=args.campaigns,
                       hostile=args.hostile),
        epochs=epochs,
        epoch_hours=epoch_hours,
        fault_plan=_fault_plan(args),
        execution=_execution_policy(args),
        telemetry_factory=_telemetry_factory(args),
        stream_dir=args.run_dir,
    )


def _print_stream(args: argparse.Namespace,
                  session: StreamSession) -> int:
    state = session.state
    scenario = session.world.config
    quarantined = (f" quarantined={state.curation_stats.quarantined}"
                   if state.curation_stats.quarantined else "")
    print(f"seed={scenario.seed} campaigns={scenario.n_campaigns} "
          f"faults={session.fault_profile} "
          f"workers={session.policy.workers} "
          f"cache={'on' if session.policy.cache else 'off'} "
          f"epochs={state.committed_epochs}/{session.scheduler.target} "
          f"reports={len(state.collection.reports)} "
          f"records={len(state.dataset)} "
          f"limitations={len(state.collection.limitations)} "
          f"gaps={len(state.gaps)}{quarantined}")
    print()
    print(session.telemetry.summary())
    print()
    print(f"stream fingerprint={state.fingerprint()}")
    return _dump_trace(args, session.telemetry)


def _cmd_watch(args: argparse.Namespace) -> int:
    session = _build_stream_session(args)
    session.run()
    return _print_stream(args, session)


def _cmd_ingest(args: argparse.Namespace) -> int:
    directory = args.directory
    manifest = _run_manifest(directory)
    if manifest not in (None, STREAM_MANIFEST_NAME):
        raise ConfigurationError(
            f"{directory} holds {manifest}, not a stream; finish its run "
            f"with `repro resume {directory}`")
    session = StreamSession.load(
        directory, telemetry_factory=_telemetry_factory(args))
    session.ingest(args.epochs)
    return _print_stream(args, session)


def _resume_stream(args: argparse.Namespace, directory: Path) -> int:
    session = StreamSession.load(
        directory, telemetry_factory=_telemetry_factory(args))
    if not args.quiet:
        pending = session.scheduler.target - session.state.committed_epochs
        print(f"resuming stream from {directory} "
              f"({pending} epoch(s) pending, "
              f"{session.policy.describe()})", file=sys.stderr)
    session.run()
    return _print_stream(args, session)


def _cmd_serve(args: argparse.Namespace) -> int:
    service = IntakeService.create(
        ScenarioConfig(seed=args.seed, n_campaigns=args.campaigns,
                       hostile=args.hostile),
        load=LoadSpec(profile=args.load_profile, requests=args.requests,
                      reporters=args.reporters, seed=args.seed),
        config=ServeConfig(queue_capacity=args.queue_capacity,
                           batch_size=args.batch_size,
                           drain_interval=args.drain_interval,
                           commit_every=args.commit_every),
        fault_plan=_fault_plan(args),
        execution=_execution_policy(args),
        telemetry_factory=_telemetry_factory(args),
        serve_dir=args.run_dir,
    )
    service.run()
    return _print_serve(args, service)


def _resume_serve(args: argparse.Namespace, directory: Path) -> int:
    service = IntakeService.load(directory,
                                 telemetry_factory=_telemetry_factory(args))
    service.run()
    return _print_serve(args, service)


def _print_serve(args: argparse.Namespace, service: IntakeService) -> int:
    stats = service.stats()
    load = stats["load"]
    queue = stats["queue"]
    latency = stats["latency"]
    quarantined = (f" quarantined={stats['quarantined']}"
                   if stats.get("quarantined") else "")
    print(f"seed={service.world.config.seed} "
          f"campaigns={service.world.config.n_campaigns} "
          f"faults={service.fault_profile} "
          f"workers={service.policy.workers} "
          f"profile={load['profile']} "
          f"submitted={stats['submitted']} accepted={stats['accepted']} "
          f"shed={stats['shed']} processed={stats['processed']} "
          f"timed_out={stats['timed_out']} records={stats['records']}"
          f"{quarantined} "
          f"mode={stats['mode']}")
    print()
    print(service.telemetry.summary())
    print()
    print(f"queue depth max={queue['max_depth']}/{queue['capacity']} "
          f"p50={queue.get('p50')} p99={queue.get('p99')}")
    p50 = latency.get("p50")
    p99 = latency.get("p99")
    print(f"intake latency sim-seconds "
          f"p50={p50 if p50 is None else round(p50, 3)} "
          f"p99={p99 if p99 is None else round(p99, 3)}")
    digest = hashlib.sha256(
        serve_fingerprint(service).encode("utf-8")).hexdigest()
    print(f"serve fingerprint={digest}")
    return _dump_trace(args, service.telemetry)


def _cmd_investigate(args: argparse.Namespace) -> int:
    fleet = InvestigationFleet.create(
        ScenarioConfig(seed=args.seed, n_campaigns=args.campaigns,
                       hostile=args.hostile),
        playbook=args.playbook,
        sample=args.sample,
        fault_plan=_fault_plan(args),
        execution=_execution_policy(args),
        telemetry=Telemetry.create(
            progress=None if args.quiet else stderr_sink),
        invest_dir=args.run_dir,
        commit_every=args.commit_every,
    )
    fleet.run()
    return _print_investigation(args, fleet)


def _resume_investigation(args: argparse.Namespace, directory: Path) -> int:
    fleet = InvestigationFleet.load(
        directory,
        telemetry=Telemetry.create(
            progress=None if args.quiet else stderr_sink))
    fleet.run()
    return _print_investigation(args, fleet)


def _print_investigation(args: argparse.Namespace,
                         fleet: InvestigationFleet) -> int:
    report = fleet.report
    world = fleet.world
    print(f"seed={world.config.seed} campaigns={world.config.n_campaigns} "
          f"faults={fleet.fault_profile} "
          f"workers={fleet.policy.workers} "
          f"playbook={report.playbook} "
          f"investigated={report.investigated} "
          f"packages={len(report.packages)} "
          f"payloads={len(report.payloads)} "
          f"scans={len(report.verdicts)} scan_gaps={report.scan_gaps}")
    print()
    print(fleet.telemetry.summary())
    evidence_dir = getattr(args, "evidence_dir", None)
    if evidence_dir is not None:
        manifest_path = write_packages(evidence_dir, report.packages)
        print()
        print(f"wrote {len(report.packages)} evidence package(s) to "
              f"{evidence_dir} (manifest: {manifest_path})")
    digest = hashlib.sha256(
        fleet_fingerprint(report, world).encode("utf-8")).hexdigest()
    print()
    print(f"investigate fingerprint={digest}")
    return _dump_trace(args, fleet.telemetry)


#: Every command; the batch commands that report on one pipeline run;
#: and every command that builds its world from --seed/--campaigns.
COMMANDS = ("report", "release", "casestudy", "mine", "figures", "stats",
            "watch", "ingest", "serve", "investigate", "resume")
_BATCH = ("report", "release", "casestudy", "mine", "figures")
_WORLD = _BATCH + ("stats", "watch", "serve", "investigate")

#: The options several commands share, each declared once: flag, the
#: commands that read it, and its ``add_argument`` keywords. The root
#: parser takes every one with its default, each command the ones it
#: reads, so they parse alike before and after the command;
#: :func:`parse_args` refuses one given to a command that ignores it.
SHARED_OPTIONS: Tuple[Tuple[str, Tuple[str, ...], Dict[str, Any]], ...] = (
    ("--seed", _WORLD,
     dict(type=int, default=7726, help="world seed (default 7726)")),
    ("--campaigns", _WORLD,
     dict(type=int, default=120,
          help="number of simulated campaigns (default 120)")),
    ("--trace-out", COMMANDS,
     dict(type=Path, default=None,
          help="write the run's trace + metrics JSON here")),
    ("--quiet", COMMANDS,
     dict(action="store_true", default=False,
          help="suppress stage progress lines on stderr")),
    ("--faults", _WORLD,
     dict(choices=FAULT_PROFILES, default="none",
          help="chaos profile to inject during the run (default: none)")),
    ("--hostile", _WORLD,
     dict(choices=HOSTILE_PROFILES, default="none",
          help="adversarial reporter profile: mutate a seeded fraction of "
               "reports into hostile shapes (noisy) plus coordinated "
               "floods and poison clusters (poison); clean results are "
               "provably unaffected (default: none)")),
    ("--workers", _WORLD,
     dict(type=int, default=1,
          help="1 runs serially (default); N > 1 runs the pure phases in "
               "N worker processes (any count is byte-identical to serial)")),
    ("--no-cache", _BATCH + ("stats", "watch", "serve"),
     dict(action="store_true", default=False,
          help="disable the per-(service, subject) enrichment cache (on "
               "by default; caching never changes results)")),
    ("--run-dir", _WORLD,
     dict(type=Path, default=None, metavar="DIR",
          help="make the run durable in this missing or empty directory; "
               "`repro resume DIR` finishes it after a crash")),
    ("--kill-at", _WORLD,
     dict(metavar="PHASE:N", default=None,
          help="inject a hard crash (exit 75) before the Nth event the "
               "command counts: a service or forum call (whois:5; "
               "whois:5@E in stream epoch E), a serve arrival (arrival:N) "
               "or an investigation scan (scan:N); needs --run-dir")),
    ("--trace-format", COMMANDS,
     dict(choices=("json", "chrome"), default="json",
          help="format for --trace-out (default json; chrome = Chrome "
               "trace-event JSON, openable in Perfetto / chrome://tracing)")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fishing-for-Smishing reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="regenerate all tables/figures")
    report.set_defaults(func=_cmd_report)

    release = sub.add_parser("release", help="write the anonymised dataset")
    release.add_argument("output", type=Path, nargs="?",
                         default=Path("smishing_release.jsonl"))
    release.set_defaults(func=_cmd_release)

    casestudy = sub.add_parser("casestudy",
                               help="run the §6 malware case study")
    casestudy.add_argument("--sample", type=int, default=200)
    casestudy.set_defaults(func=_cmd_casestudy)

    mine = sub.add_parser("mine", help="cluster records into campaigns")
    mine.add_argument("--threshold", type=float, default=0.7)
    mine.add_argument("--top", type=int, default=10)
    mine.set_defaults(func=_cmd_mine)

    figures = sub.add_parser("figures", help="export figure CSVs")
    figures.add_argument("output", type=Path, nargs="?",
                         default=Path("figures"))
    figures.set_defaults(func=_cmd_figures)

    stats = sub.add_parser(
        "stats", help="run the pipeline and print its telemetry"
    )
    stats.add_argument("--epochs", type=int, default=None,
                       help="run an in-memory incremental ingestion over "
                            "this many epochs instead of one batch run")
    stats.add_argument("--epoch-hours", type=float, default=None,
                       help="epoch window width in hours (with --epochs)")
    stats.set_defaults(func=_cmd_stats)

    watch = sub.add_parser(
        "watch", help="continuous incremental ingestion over epochs"
    )
    watch.add_argument("--epochs", type=int, default=None,
                       help="how many epochs to run (default 4, or the "
                            "full plan when --epoch-hours is given)")
    watch.add_argument("--epoch-hours", type=float, default=None,
                       help="epoch window width in hours (default: divide "
                            "the global window into --epochs equal slices)")
    watch.set_defaults(func=_cmd_watch)

    ingest = sub.add_parser(
        "ingest", help="run follow-on epochs against a stream directory"
    )
    ingest.add_argument("directory", type=Path, metavar="DIR",
                        help="an existing stream directory (`repro watch "
                             "--run-dir DIR`)")
    ingest.add_argument("--epochs", type=int, default=1,
                        help="how many additional epochs to ingest "
                             "(default 1)")
    ingest.set_defaults(func=_cmd_ingest)

    serve = sub.add_parser(
        "serve",
        help="drive the overload-safe intake service under simulated load",
    )
    serve.add_argument("--load-profile", choices=LOAD_PROFILES,
                       default="burst",
                       help="arrival pattern for the simulated reporters "
                            "(default burst)")
    serve.add_argument("--requests", type=int, default=2000,
                       help="how many report submissions to simulate "
                            "(default 2000)")
    serve.add_argument("--reporters", type=int, default=500,
                       help="distinct reporter population, Pareto-skewed "
                            "(default 500)")
    serve.add_argument("--queue-capacity", type=int, default=512,
                       help="bounded ingest queue capacity (default 512)")
    serve.add_argument("--batch-size", type=int, default=32,
                       help="reports drained per processing batch "
                            "(default 32)")
    serve.add_argument("--drain-interval", type=float, default=20.0,
                       help="sim-seconds between batch drains (default 20)")
    serve.add_argument("--commit-every", type=int, default=500,
                       help="arrivals between durable commits with "
                            "--run-dir (default 500)")
    serve.set_defaults(func=_cmd_serve)

    investigate = sub.add_parser(
        "investigate",
        help="run a playbook-driven investigation fleet over the dataset",
    )
    investigate.add_argument("--playbook", choices=sorted(PLAYBOOKS),
                             default="full-funnel",
                             help="which playbook the fleet interprets "
                                  "(default full-funnel; case-study is "
                                  "the §6 protocol)")
    investigate.add_argument("--sample", type=int, default=None,
                             help="investigate only the first N "
                                  "URL-bearing records (default: all)")
    investigate.add_argument("--commit-every", type=int, default=1,
                             help="scans between durable commits with "
                                  "--run-dir (default 1)")
    investigate.add_argument("--evidence-dir", type=Path, default=None,
                             help="write per-campaign evidence packages "
                                  "(content-hashed JSON) here")
    investigate.set_defaults(func=_cmd_investigate)

    resume = sub.add_parser(
        "resume", help="finish a crashed durable run"
    )
    resume.add_argument("directory", type=Path, metavar="DIR",
                        help="the --run-dir of a crashed run of any kind")
    resume.set_defaults(func=_cmd_resume)

    for flag, readers, spec in SHARED_OPTIONS:
        parser.add_argument(flag, **spec)
        for command in readers:
            sub.choices[command].add_argument(
                flag, **dict(spec, default=argparse.SUPPRESS))
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse ``argv``, refusing a shared option its command ignores.

    After the command such an option is unknown to the command's parser;
    before it, it holds a value other than its default. Either way the
    run would drop it, so it raises :class:`ConfigurationError`.
    """
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    given = {token.partition("=")[0] for token in extras}
    for flag, readers, spec in SHARED_OPTIONS:
        dest = flag[2:].replace("-", "_")
        if args.command not in readers and (
                flag in given or getattr(args, dest) != spec["default"]):
            raise ConfigurationError(
                f"{flag} does not apply to `repro {args.command}`")
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _writable_dir(path: Path) -> bool:
    """Is ``path`` (or its nearest existing ancestor) writable?"""
    probe = path
    while not probe.exists():
        parent = probe.parent
        if parent == probe:
            break
        probe = parent
    return os.access(probe, os.W_OK)


#: The manifest each durable kind writes before any work: a batch
#: journal, then the stream, serve and investigation sessions.
RUN_MANIFESTS = (MANIFEST_NAME, STREAM_MANIFEST_NAME, SERVE_MANIFEST_NAME,
                 INVESTIGATE_MANIFEST_NAME)


def _run_manifest(directory: Path) -> Optional[str]:
    """The manifest of the durable run ``directory`` holds, or None."""
    return next((name for name in RUN_MANIFESTS
                 if (directory / name).is_file()), None)


def _validate_run_dir(run_dir: Path) -> None:
    """A fresh run's directory is missing or empty, and writable."""
    if run_dir.exists() and not run_dir.is_dir():
        raise ConfigurationError(
            f"--run-dir {run_dir} exists and is not a directory")
    if not _writable_dir(run_dir):
        raise ConfigurationError(f"--run-dir {run_dir} is not writable")
    if run_dir.is_dir() and any(run_dir.iterdir()):
        if _run_manifest(run_dir) is not None:
            raise ConfigurationError(
                f"--run-dir {run_dir} already holds a run; finish it with "
                f"`repro resume {run_dir}`")
        raise ConfigurationError(f"--run-dir {run_dir} is not empty")


def _validate_args(args: argparse.Namespace) -> None:
    """Fail fast on bad run-shaping inputs, before any work starts."""
    for option in ("workers", "campaigns", "epochs", "sample", "top",
                   "commit_every"):
        value = getattr(args, option, None)
        if value is not None and value < 1:
            raise ConfigurationError(
                f"--{option.replace('_', '-')} must be >= 1, got {value}")
    threshold = getattr(args, "threshold", None)
    if threshold is not None and not 0 < threshold <= 1:
        raise ConfigurationError(
            f"--threshold must lie in (0, 1], got {threshold}")
    if args.trace_format == "chrome" and args.trace_out is None:
        raise ConfigurationError(
            "--trace-format chrome needs --trace-out PATH to write to"
        )
    if args.kill_at is not None:
        _crash_point(args)
        if args.run_dir is None:
            raise ConfigurationError(
                "--kill-at wants --run-dir DIR (a kill without a durable "
                "run loses the run)"
            )
    if args.run_dir is not None:
        if args.command == "stats" and (args.epochs is not None
                                        or args.epoch_hours is not None):
            raise ConfigurationError(
                "--run-dir does not apply to `repro stats --epochs`; make "
                "a stream durable with `repro watch --run-dir`"
            )
        _validate_run_dir(args.run_dir)
    evidence_dir = getattr(args, "evidence_dir", None)
    if evidence_dir is not None and not _writable_dir(evidence_dir):
        raise ConfigurationError(
            f"--evidence-dir {evidence_dir} is not writable"
        )


def _resume_batch(args: argparse.Namespace, directory: Path) -> int:
    """Replay the argv the journal recorded, resuming from its journal."""
    manifest = RunJournal.read_manifest(directory)
    cli = manifest.get("cli") or {}
    argv = cli.get("argv")
    if not argv:
        raise ConfigurationError(
            f"journal at {directory} was not recorded by the CLI; resume "
            f"it with repro.checkpoint.resume_pipeline()"
        )
    # Before the replay: an argv recorded by other code may not parse
    # here, and resume_pipeline refuses that journal in any case.
    if manifest.get("code") != code_fingerprint():
        raise CheckpointError(
            f"journal at {directory} was recorded by other code; only the "
            f"code that recorded it can resume it"
        )
    new_args = parse_args([str(a) for a in argv])
    _validate_args(new_args)
    new_args._resume_dir = directory
    if args.quiet:
        new_args.quiet = True
    if args.trace_out is not None:
        new_args.trace_out = args.trace_out
    if args.trace_format != "json":
        new_args.trace_format = args.trace_format
    if not new_args.quiet:
        policy = policy_from_dict(manifest.get("execution"))
        print(f"resuming run from {directory} ({policy.describe()})",
              file=sys.stderr)
    return new_args.func(new_args)


#: Each durable kind's manifest and the resume that finishes its run.
_RESUMES = {
    MANIFEST_NAME: _resume_batch,
    STREAM_MANIFEST_NAME: _resume_stream,
    SERVE_MANIFEST_NAME: _resume_serve,
    INVESTIGATE_MANIFEST_NAME: _resume_investigation,
}


def _cmd_resume(args: argparse.Namespace) -> int:
    directory = args.directory
    manifest = _run_manifest(directory)
    if manifest is None:
        raise ConfigurationError(
            f"{directory} holds no run manifest "
            f"({', '.join(RUN_MANIFESTS)}); nothing to resume")
    return _RESUMES[manifest](args, directory)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(argv)
        _validate_args(args)
        return args.func(args)
    except (ConfigurationError, CheckpointError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except SimulatedCrash as exc:
        print(f"repro: crashed: {exc}", file=sys.stderr)
        if args.run_dir is not None:
            print(f"repro: resume with: repro resume {args.run_dir}",
                  file=sys.stderr)
        return 75


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
